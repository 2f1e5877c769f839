// Provenance capture for the rule engine: the causal chain behind every
// diagnosis, recorded as a DAG of rule firings and the facts they bound.
//
// The recorder is owned by RuleHarness and is null when provenance is
// off, so the engine's hot path pays exactly one pointer-null branch per
// firing / assert / print. When enabled it observes three things:
//
//   * every asserted fact, tagged with its origin — either the firing
//     that asserted it (a lineage edge in the DAG) or, for baseline
//     facts asserted from the analysis layer, a source label pushed by
//     rules::ProvenanceSource (e.g. "assert_load_balance_facts(...)")
//     plus the metric-lineage chain back to raw PKB columns. Each
//     source and each firing has one shared origin, and a fact records
//     a pointer to it;
//   * every firing: rule name + .rules source location, salience, the
//     delta-window generation (match round) that admitted it, the full
//     binding set, and a per-pattern snapshot of the matched facts;
//   * every print emitted while a firing runs.
//
// The DAG is cycle-free by construction: fact ids are monotonic and the
// firing that asserts a fact always completes before any firing that
// matches it, so derived_from edges only point at earlier firings.
//
// Modes: kOff records nothing; kRules records firings, locations,
// bindings, and the DAG; kFull additionally snapshots the matched
// facts' field values and keeps analysis-layer metric lineage.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/source_loc.hpp"
#include "rules/fact.hpp"

namespace perfknow::rules {
struct Diagnosis;
}  // namespace perfknow::rules

namespace perfknow::provenance {

enum class ProvenanceMode { kOff, kRules, kFull };

[[nodiscard]] std::string_view to_string(ProvenanceMode mode);

struct FiringNode;

/// One fact as it was bound by one pattern position of one firing.
struct BoundFact {
  rules::FactId id = 0;
  std::string type;
  /// Field values at match time (kFull only; empty under kRules).
  std::map<std::string, rules::FactValue> fields;
  /// Where the matching pattern sits in its .rules source.
  SourceLoc pattern_loc;
  /// Analysis-layer origin label for baseline facts ("assert_stall_facts
  /// (trial='X', metric='TIME')"); empty when the fact was asserted by a
  /// rule firing (then derived_from is set) or capture missed it.
  std::string origin;
  /// Metric-lineage chain down to raw trial columns (kFull only).
  std::vector<std::string> lineage;
  /// The firing that asserted this fact; null for baseline facts.
  std::shared_ptr<const FiringNode> derived_from;
};

/// One rule firing: the node type of the provenance DAG.
struct FiringNode {
  std::size_t id = 0;  ///< 1-based, in firing order
  std::string rule;
  SourceLoc rule_loc;
  int salience = 0;
  /// Match round (delta-window generation) that admitted the activation.
  std::size_t generation = 0;
  std::map<std::string, rules::FactValue> bindings;
  std::vector<BoundFact> facts;  ///< one per pattern, in pattern order
  std::vector<std::string> prints;
};

struct Explanation;

/// Everything the engine tells the recorder about one firing, minus the
/// matched facts (passed separately). Kept free of rules::Rule so this
/// header does not depend on the engine.
struct FiringInfo {
  std::string rule;
  SourceLoc rule_loc;
  int salience = 0;
  std::size_t generation = 0;
};

/// A matched fact handed to begin_firing: the id, a handle to the live
/// fact in the columnar store (null when it was already retracted), and
/// the source location of the pattern that bound it.
struct MatchedFact {
  rules::FactId id = 0;
  rules::FactRef fact;
  SourceLoc pattern_loc;
};

class Recorder {
 public:
  explicit Recorder(ProvenanceMode mode) : mode_(mode) {}

  [[nodiscard]] ProvenanceMode mode() const noexcept { return mode_; }

  /// Labels baseline facts asserted until the matching pop_source with
  /// their analysis-layer origin; nests (innermost label wins).
  void push_source(std::string label, std::vector<std::string> lineage);
  void pop_source();

  /// Observes a fact entering working memory. Inside a firing the fact
  /// gets a lineage edge to that firing; outside, the current source
  /// label (or a placeholder when none is pushed).
  void on_assert(rules::FactId id);

  void begin_firing(const FiringInfo& info,
                    const std::map<std::string, rules::FactValue>& bindings,
                    const std::vector<MatchedFact>& matched);
  void end_firing();

  /// Observes a print emitted by the current firing (no-op outside one).
  void on_print(const std::string& line);

  /// Builds the full explanation for a diagnosis emitted by the current
  /// firing. Null when called outside a firing (diagnosis made directly
  /// on the harness without a rule, which has no inference chain).
  [[nodiscard]] std::shared_ptr<const Explanation> make_explanation(
      const rules::Diagnosis& d) const;

  /// How facts came to exist: exactly one of firing / label is set.
  /// Immutable once made and shared by every fact of one source or one
  /// firing, so recording a fact's origin costs one pointer whatever
  /// the label and lineage hold.
  struct Origin {
    std::shared_ptr<const FiringNode> firing;
    std::string label;
    std::vector<std::string> lineage;
  };

  /// The recorded origin of `id`, the same object for every fact of one
  /// source or firing; null when capture never saw it.
  [[nodiscard]] const Origin* origin_of(rules::FactId id) const noexcept;

 private:
  ProvenanceMode mode_;
  /// Every origin ever pushed or fired; a deque, so the pointers below
  /// stay valid for the recorder's life.
  std::deque<Origin> origin_pool_;
  std::vector<const Origin*> source_stack_;
  /// Origin per fact, indexed by id - first_id_ (ids are dense and
  /// monotonic); null for ids the harness never reported (asserted
  /// straight into its memory).
  std::vector<const Origin*> origins_;
  rules::FactId first_id_ = 0;
  const Origin outside_{nullptr, "(asserted outside any labelled source)",
                        {}};
  std::shared_ptr<FiringNode> current_;
  /// The current firing's origin, made on its first assert.
  const Origin* firing_origin_ = nullptr;
  std::size_t next_firing_id_ = 1;
};

}  // namespace perfknow::provenance
