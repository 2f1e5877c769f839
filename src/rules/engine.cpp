#include "rules/engine.hpp"

#include <algorithm>
#include <chrono>

#include "common/error.hpp"
#include "rules/beta.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::rules {

// Out-of-line: beta::BetaNetwork is incomplete in the header.
RuleHarness::RuleHarness() = default;
RuleHarness::~RuleHarness() = default;

std::string_view to_string(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "==";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

bool compare(CmpOp op, const FactValue& lhs, const FactValue& rhs) {
  switch (op) {
    case CmpOp::kEq: return values_equal(lhs, rhs);
    case CmpOp::kNe: return !values_equal(lhs, rhs);
    case CmpOp::kLt: return values_less(lhs, rhs);
    case CmpOp::kLe:
      return values_less(lhs, rhs) || values_equal(lhs, rhs);
    case CmpOp::kGt: return values_less(rhs, lhs);
    case CmpOp::kGe:
      return values_less(rhs, lhs) || values_equal(lhs, rhs);
  }
  return false;
}

FactValue Operand::resolve(const Bindings& b) const {
  if (kind == Kind::kLiteral) return literal;
  if (kind == Kind::kComputed) return compute(b);
  const auto it = b.find(variable);
  if (it == b.end()) {
    throw EvalError("rule constraint references unbound variable '" +
                    variable + "'");
  }
  return it->second;
}

const FactValue& RuleContext::binding(const std::string& name) const {
  const auto it = bindings_.find(name);
  if (it == bindings_.end()) {
    throw EvalError("rule action references unbound variable '" + name +
                    "'");
  }
  return it->second;
}

void RuleContext::print(const std::string& line) {
  harness_.output_.push_back(line);
  if (harness_.recorder_) harness_.recorder_->on_print(line);
}

void RuleContext::diagnose(std::string problem, std::string event,
                           double severity, std::string recommendation) {
  Diagnosis d;
  d.problem = std::move(problem);
  d.event = std::move(event);
  d.severity = severity;
  d.recommendation = std::move(recommendation);
  diagnose(std::move(d));
}

void RuleContext::diagnose(Diagnosis d) {
  d.rule = harness_.current_rule_;
  if (harness_.recorder_) {
    d.provenance = harness_.recorder_->make_explanation(d);
  }
  harness_.diagnoses_.push_back(std::move(d));
}

FactId RuleContext::assert_fact(Fact fact) {
  return harness_.assert_fact(std::move(fact));
}

FactId RuleHarness::assert_fact(Fact fact) {
  const FactId id = memory_.assert_fact(std::move(fact));
  on_asserted(id);
  return id;
}

void RuleHarness::on_asserted(FactId id) {
  static telemetry::Counter& asserted =
      telemetry::counter("rules.facts_asserted");
  asserted.add();
  if (recorder_) recorder_->on_assert(id);
}

bool RuleHarness::retract(FactId id) { return memory_.retract(id); }

FactId RuleHarness::modify(FactId id, Fact replacement) {
  if (!memory_.find(id)) {
    throw NotFoundError("modify: no live fact with id " +
                        std::to_string(id));
  }
  memory_.retract(id);
  return assert_fact(std::move(replacement));
}

void RuleHarness::set_provenance(provenance::ProvenanceMode mode) {
  if (mode == provenance::ProvenanceMode::kOff) {
    recorder_.reset();
  } else {
    recorder_ = std::make_unique<provenance::Recorder>(mode);
  }
}

ProvenanceSource::ProvenanceSource(RuleHarness& harness, std::string label,
                                   std::vector<std::string> lineage) {
  if (harness.recorder_) {
    harness_ = &harness;
    harness.recorder_->push_source(std::move(label), std::move(lineage));
  }
}

ProvenanceSource::~ProvenanceSource() {
  // recorder_ may have been reset mid-scope via set_provenance(kOff).
  if (harness_ != nullptr && harness_->recorder_) {
    harness_->recorder_->pop_source();
  }
}

void RuleHarness::add_rule(Rule rule) {
  if (rule.patterns.empty()) {
    throw InvalidArgumentError("rule '" + rule.name +
                               "' has no patterns in its when-part");
  }
  if (!rule.action) {
    throw InvalidArgumentError("rule '" + rule.name + "' has no action");
  }
  CompiledRule compiled;
  compiled.patterns.reserve(rule.patterns.size());
  SymbolTable& symbols = memory_.symbols();
  for (const auto& pat : rule.patterns) {
    CompiledPattern cp;
    // Intern every rule-referenced name up front: matching then runs on
    // integer compares, and const probes (including the beta network's)
    // are guaranteed to find these spellings in the table.
    cp.type_sym = symbols.intern(pat.fact_type);
    cp.constraint_fields.reserve(pat.constraints.size());
    for (const auto& con : pat.constraints) {
      cp.constraint_fields.push_back(symbols.intern(con.field));
    }
    cp.binding_fields.reserve(pat.bindings.size());
    for (const auto& b : pat.bindings) {
      cp.binding_fields.push_back(symbols.intern(b.field));
    }
    compiled.patterns.push_back(std::move(cp));
  }
  rules_.push_back(std::move(rule));
  compiled_.push_back(std::move(compiled));
}

namespace {

void record_and_set(Bindings& bindings,
                    std::vector<std::pair<std::string, std::optional<FactValue>>>&
                        undo,
                    const std::string& key, const FactValue& value) {
  const auto it = bindings.lower_bound(key);
  if (it != bindings.end() && it->first == key) {
    undo.emplace_back(key, std::move(it->second));
    it->second = value;
  } else {
    undo.emplace_back(key, std::nullopt);
    bindings.emplace_hint(it, key, value);
  }
}

void unwind(Bindings& bindings,
            std::vector<std::pair<std::string, std::optional<FactValue>>>& undo,
            std::size_t mark) {
  while (undo.size() > mark) {
    auto& [key, old] = undo.back();
    if (old) {
      bindings[key] = std::move(*old);
    } else {
      bindings.erase(key);
    }
    undo.pop_back();
  }
}

}  // namespace

void RuleHarness::match_step(std::size_t rule_index,
                             std::size_t pattern_index, FactId round_max,
                             Bindings& bindings,
                             std::vector<FactId>& matched, UndoLog& undo,
                             std::vector<Activation>& out,
                             RuleProfiler* prof) const {
  const Rule& rule = rules_[rule_index];
  if (pattern_index == rule.patterns.size()) {
    out.push_back(Activation{rule_index, matched, bindings});
    return;
  }
  const Pattern& pat = rule.patterns[pattern_index];
  const CompiledPattern& cp = compiled_[rule_index].patterns[pattern_index];

  const std::vector<FactId>& cands = memory_.ids_of_type(cp.type_sym);
  const auto first = cands.begin();
  const auto last = std::upper_bound(first, cands.end(), round_max);
  if (prof) {
    // Every candidate enumerated at this position is a probe; the ones
    // that survive below are hits and admissions (for an enumerating
    // matcher the two coincide — see the file comment in engine.hpp).
    prof->level(rule_index, pattern_index).probes +=
        static_cast<std::uint64_t>(std::distance(first, last));
  }
  for (auto it = first; it != last; ++it) {
    const FactId id = *it;
    // A fact may satisfy at most one pattern of an activation: joins over
    // the *same* fact are almost always a bug in a rulebase.
    if (std::find(matched.begin(), matched.end(), id) != matched.end()) {
      continue;
    }
    const FactRef fact = memory_.find(id);
    const std::size_t undo_mark = undo.size();
    // Bindings are extracted before constraints are evaluated so a
    // constraint may reference a binding declared anywhere in the same
    // pattern ("j : forkJoinCycles, dispatchCycles > j * 2").
    bool ok = true;
    for (std::size_t bi = 0; bi < pat.bindings.size(); ++bi) {
      const FactValue* field = fact.find_field(cp.binding_fields[bi]);
      if (!field) {
        ok = false;
        break;
      }
      record_and_set(bindings, undo, pat.bindings[bi].variable, *field);
    }
    if (ok) {
      for (std::size_t ci = 0; ci < pat.constraints.size(); ++ci) {
        const Constraint& c = pat.constraints[ci];
        const FactValue* field = fact.find_field(cp.constraint_fields[ci]);
        if (!field || !compare(c.op, *field, c.rhs.resolve(bindings))) {
          ok = false;
          break;
        }
      }
    }
    if (ok && pat.guard && !pat.guard(fact, bindings)) ok = false;
    if (ok && !pat.fact_variable.empty()) {
      // The whole-fact binding exposes the fact id as a number so later
      // constraints can reference it; field access resolves via fields.
      record_and_set(bindings, undo, pat.fact_variable,
                     FactValue(static_cast<double>(id)));
      std::string key;
      fact.for_each_field([&](const std::string& k, const FactValue& v) {
        key.assign(pat.fact_variable);
        key += '.';
        key += k;
        record_and_set(bindings, undo, key, v);
      });
    }
    if (ok) {
      if (prof) {
        auto& lvl = prof->level(rule_index, pattern_index);
        ++lvl.hits;
        ++lvl.admissions;
      }
      matched.push_back(id);
      match_step(rule_index, pattern_index + 1, round_max, bindings,
                 matched, undo, out, prof);
      matched.pop_back();
    }
    unwind(bindings, undo, undo_mark);
  }
}

std::size_t RuleHarness::process_rules(std::size_t max_firings) {
  static const telemetry::SpanSite process_site("rules.process_rules");
  static const telemetry::SpanSite match_site("rules.match");
  static const telemetry::SpanSite fire_site("rules.fire");
  static telemetry::Counter& fired_counter =
      telemetry::counter("rules.fired");
  telemetry::ScopedSpan process_span(process_site);

  std::size_t fired_count = 0;
  bool progressed = true;
  std::vector<Activation> agenda;
  Bindings bindings;
  std::vector<FactId> matched;
  UndoLog undo;
  std::size_t round = 0;  ///< match-fire generation, for provenance
  while (progressed) {
    progressed = false;
    agenda.clear();
    ++round;
    // Re-read the gate each cycle: one relaxed load per round is the
    // whole disabled-mode cost here (plus a null test per rule below).
    RuleProfiler* const prof = profiling_enabled() ? &profiler_ : nullptr;
    if (prof) prof->begin_cycle();
    const FactId round_max = memory_.last_id();
    {
      telemetry::ScopedSpan match_span(match_site);
      if (strategy_ == MatchStrategy::kBeta) {
        if (!beta_) beta_ = std::make_unique<beta::BetaNetwork>();
        beta_->match(rules_, memory_, round_max, agenda, prof);
      } else {
        const auto match_rule = [&](std::size_t r) {
          match_step(r, 0, round_max, bindings, matched, undo, agenda, prof);
        };
        for (std::size_t r = 0; r < rules_.size(); ++r) {
          if (prof) {
            const auto t0 = std::chrono::steady_clock::now();
            match_rule(r);
            prof->rule(r).match_ns += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
          } else {
            match_rule(r);
          }
        }
      }
      if (prof) {
        for (const auto& act : agenda) {
          auto& rc = prof->rule(act.rule_index);
          ++rc.activations;
          rc.bindings += act.bindings.size();
        }
      }
      // Salience (desc), then rule order, then fact ids — a total order,
      // so both strategies fire identical sequences.
      std::stable_sort(agenda.begin(), agenda.end(),
                       [this](const Activation& a, const Activation& b) {
                         const int sa = rules_[a.rule_index].salience;
                         const int sb = rules_[b.rule_index].salience;
                         if (sa != sb) return sa > sb;
                         if (a.rule_index != b.rule_index) {
                           return a.rule_index < b.rule_index;
                         }
                         return a.facts < b.facts;
                       });
    }
    telemetry::ScopedSpan fire_span(fire_site);
    for (const auto& act : agenda) {
      const auto key = std::make_pair(act.rule_index, act.facts);
      if (fired_.count(key) != 0) continue;
      fired_.insert(key);
      current_rule_ = rules_[act.rule_index].name;
      RuleContext ctx(*this, act.bindings, act.facts);
      if (recorder_) {
        const Rule& rule = rules_[act.rule_index];
        provenance::FiringInfo info;
        info.rule = rule.name;
        info.rule_loc = rule.loc;
        info.salience = rule.salience;
        info.generation = round;
        std::vector<provenance::MatchedFact> matched_facts;
        matched_facts.reserve(act.facts.size());
        for (std::size_t i = 0; i < act.facts.size(); ++i) {
          provenance::MatchedFact mf;
          mf.id = act.facts[i];
          mf.fact = memory_.find(act.facts[i]);
          if (i < rule.patterns.size()) mf.pattern_loc = rule.patterns[i].loc;
          matched_facts.push_back(std::move(mf));
        }
        recorder_->begin_firing(info, act.bindings, matched_facts);
      }
      rules_[act.rule_index].action(ctx);
      if (recorder_) recorder_->end_firing();
      if (prof) ++prof->rule(act.rule_index).firings;
      ++fired_count;
      fired_counter.add();
      progressed = true;
      if (fired_count >= max_firings) {
        throw EvalError("rule engine exceeded " +
                        std::to_string(max_firings) +
                        " firings; possible assert/match loop (last rule: " +
                        current_rule_ + ")");
      }
    }
  }
  current_rule_.clear();
  return fired_count;
}

std::vector<Diagnosis> RuleHarness::diagnoses_for(
    const std::string& problem) const {
  std::vector<Diagnosis> out;
  for (const auto& d : diagnoses_) {
    if (d.problem == problem) out.push_back(d);
  }
  return out;
}

void RuleHarness::clear_results() {
  output_.clear();
  diagnoses_.clear();
}

RuleProfile RuleHarness::rule_profile() const {
  RuleProfile p;
  switch (strategy_) {
    case MatchStrategy::kNaive: p.strategy = "naive"; break;
    case MatchStrategy::kBeta: p.strategy = "beta"; break;
  }
  p.cycles = profiler_.cycles();
  p.wm_size = memory_.size();
  p.rules.resize(rules_.size());
  const auto& counters = profiler_.rules();
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    auto& out = p.rules[r];
    out.name = rules_[r].name;
    out.index = r;
    out.levels.resize(rules_[r].patterns.size());
    if (r >= counters.size()) continue;
    const auto& rc = counters[r];
    out.match_ns = rc.match_ns;
    out.firings = rc.firings;
    out.activations = rc.activations;
    out.bindings = rc.bindings;
    for (std::size_t l = 0; l < rc.levels.size() && l < out.levels.size();
         ++l) {
      out.levels[l].admissions = rc.levels[l].admissions;
      out.levels[l].probes = rc.levels[l].probes;
      out.levels[l].hits = rc.levels[l].hits;
    }
  }
  // Live/dead token state is read directly from the beta memories: it is
  // snapshot-time occupancy, not a cumulative counter.
  if (strategy_ == MatchStrategy::kBeta && beta_) {
    beta_->collect_token_state(p);
  }
  return p;
}

}  // namespace perfknow::rules
