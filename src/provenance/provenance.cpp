#include "provenance/provenance.hpp"

#include "provenance/explanation.hpp"
#include "rules/diagnosis.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::provenance {

std::string_view to_string(ProvenanceMode mode) {
  switch (mode) {
    case ProvenanceMode::kOff: return "off";
    case ProvenanceMode::kRules: return "rules";
    case ProvenanceMode::kFull: return "full";
  }
  return "?";
}

void Recorder::push_source(std::string label,
                           std::vector<std::string> lineage) {
  Origin& o = origin_pool_.emplace_back();
  o.label = std::move(label);
  if (mode_ == ProvenanceMode::kFull) {
    o.lineage = std::move(lineage);
  }
  source_stack_.push_back(&o);
}

void Recorder::pop_source() {
  if (!source_stack_.empty()) source_stack_.pop_back();
}

void Recorder::on_assert(rules::FactId id) {
  const Origin* o = &outside_;
  if (current_) {
    if (firing_origin_ == nullptr) {
      firing_origin_ = &origin_pool_.emplace_back(Origin{current_, {}, {}});
    }
    o = firing_origin_;
  } else if (!source_stack_.empty()) {
    o = source_stack_.back();
  }
  if (origins_.empty()) first_id_ = id;
  const auto i = static_cast<std::size_t>(id - first_id_);
  if (i >= origins_.size()) origins_.resize(i + 1, nullptr);
  origins_[i] = o;
}

const Recorder::Origin* Recorder::origin_of(rules::FactId id) const noexcept {
  if (id < first_id_ || id - first_id_ >= origins_.size()) return nullptr;
  return origins_[static_cast<std::size_t>(id - first_id_)];
}

void Recorder::begin_firing(
    const FiringInfo& info,
    const std::map<std::string, rules::FactValue>& bindings,
    const std::vector<MatchedFact>& matched) {
  auto node = std::make_shared<FiringNode>();
  node->id = next_firing_id_++;
  node->rule = info.rule;
  node->rule_loc = info.rule_loc;
  node->salience = info.salience;
  node->generation = info.generation;
  node->bindings = bindings;
  node->facts.reserve(matched.size());
  for (const auto& m : matched) {
    BoundFact bf;
    bf.id = m.id;
    bf.pattern_loc = m.pattern_loc;
    if (m.fact) {
      bf.type = m.fact.type();
      if (mode_ == ProvenanceMode::kFull) {
        m.fact.for_each_field(
            [&](const std::string& k, const rules::FactValue& v) {
              bf.fields.emplace(k, v);
            });
      }
    }
    if (const Origin* o = origin_of(m.id)) {
      bf.derived_from = o->firing;
      bf.origin = o->label;
      bf.lineage = o->lineage;
    } else {
      // Facts asserted before provenance was switched on have no
      // recorded origin; keep the tree free of dangling edges anyway.
      bf.origin = "(asserted before provenance capture was enabled)";
    }
    node->facts.push_back(std::move(bf));
  }
  current_ = std::move(node);
  firing_origin_ = nullptr;
}

void Recorder::end_firing() {
  current_.reset();
  firing_origin_ = nullptr;
}

void Recorder::on_print(const std::string& line) {
  if (current_) current_->prints.push_back(line);
}

std::shared_ptr<const Explanation> Recorder::make_explanation(
    const rules::Diagnosis& d) const {
  if (!current_) return nullptr;
  static telemetry::Counter& captured =
      telemetry::counter("provenance.explanations_captured");
  captured.add();
  auto e = std::make_shared<Explanation>();
  e->rule = d.rule;
  e->problem = d.problem;
  e->event = d.event;
  e->metric = d.metric;
  e->severity = d.severity;
  e->message = d.message;
  e->recommendation = d.recommendation;
  e->root = current_;
  return e;
}

}  // namespace perfknow::provenance
