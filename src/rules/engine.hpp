// Forward-chaining inference engine with an agenda and salience, the
// JBoss-Rules-shaped core of automated diagnosis.
//
// A rule is a sequence of patterns (fact type + field constraints +
// variable bindings) and an action. The engine enumerates binding tuples
// over working memory, orders activations by salience (then rule order,
// then fact recency), fires each activation exactly once, and re-matches
// after actions assert new facts — until quiescence.
//
// Two matching strategies produce identical activations:
//
//  * kBeta (default): a beta-memory join network (rules/beta.hpp).
//    Partial join tokens — bound-variable tuples plus their supporting
//    fact ids — are memoized per rule and pattern prefix in
//    structure-of-arrays columns on a bump arena, extended each cycle
//    by the alpha delta only, and invalidated by working-memory
//    mutation epochs on retract/modify. A firing cycle touches tokens
//    reachable from new facts instead of re-running the whole join.
//  * kNaive: the original full re-scan per round, the semantics oracle
//    the differential tests hold kBeta to.
//
// Both strategies fire the same activations in the same order (salience
// desc, then rule order, then fact-id tuple — a total order), so outputs
// and diagnosis sequences are byte-identical. The one permitted
// divergence: on rulebases whose constraints *throw* during matching
// (e.g. unbound variables), the beta matcher front-loads literal and
// same-fact tests before variable and computed ones, so it may reject a
// candidate before reaching the throwing constraint and therefore not
// raise the error. Profiler attribution (rules/profiler.hpp) extends the
// doctrine the same way: firings are byte-identical across strategies,
// but probe/admission counts — and activation/binding counts, which
// tally agenda entries as enqueued, before fire-time dedup suppresses
// the naive matcher's re-enumerated duplicates — describe the
// enumeration work the *active* strategy performed. They are
// strategy-local evidence, never part of the byte-identical contract.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/source_loc.hpp"
#include "provenance/provenance.hpp"
#include "rules/diagnosis.hpp"
#include "rules/fact.hpp"
#include "rules/profiler.hpp"

namespace perfknow::rules {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

[[nodiscard]] std::string_view to_string(CmpOp op);
[[nodiscard]] bool compare(CmpOp op, const FactValue& lhs,
                           const FactValue& rhs);

/// Variable bindings accumulated while matching one rule's patterns.
using Bindings = std::map<std::string, FactValue>;

/// Right-hand side of a constraint: a literal, a reference to a
/// previously bound variable, or an arbitrary computed expression over
/// the bindings (what the DSL's non-trivial right-hand sides become).
struct Operand {
  enum class Kind { kLiteral, kVariable, kComputed } kind = Kind::kLiteral;
  FactValue literal = 0.0;
  std::string variable;
  std::function<FactValue(const Bindings&)> compute;

  [[nodiscard]] static Operand lit(FactValue v) {
    Operand o;
    o.kind = Kind::kLiteral;
    o.literal = std::move(v);
    return o;
  }
  [[nodiscard]] static Operand var(std::string name) {
    Operand o;
    o.kind = Kind::kVariable;
    o.variable = std::move(name);
    return o;
  }
  [[nodiscard]] static Operand expr(
      std::function<FactValue(const Bindings&)> fn) {
    Operand o;
    o.kind = Kind::kComputed;
    o.compute = std::move(fn);
    return o;
  }

  /// Resolves against bindings; throws EvalError on an unbound variable.
  [[nodiscard]] FactValue resolve(const Bindings& b) const;
};

/// `field <op> operand` on the candidate fact.
struct Constraint {
  std::string field;
  CmpOp op = CmpOp::kEq;
  Operand rhs;
};

/// `var : field` — exports a field of the matched fact into bindings.
struct FieldBinding {
  std::string variable;
  std::string field;
};

/// One pattern: match a fact of `fact_type` satisfying all constraints.
struct Pattern {
  std::string fact_type;
  /// Binds the whole fact's id under this name ("f : MeanEventFact(...)").
  std::string fact_variable;
  std::vector<Constraint> constraints;
  std::vector<FieldBinding> bindings;
  /// Optional extra predicate for rules built from C++. Receives the
  /// candidate as a columnar-store handle, not a Fact pointer.
  std::function<bool(const FactRef&, const Bindings&)> guard;
  /// Where this pattern starts in its .rules source (unset for rules
  /// built from C++ without one).
  SourceLoc loc;
};

class RuleHarness;

/// What a firing rule can do.
class RuleContext {
 public:
  RuleContext(RuleHarness& harness, const Bindings& bindings,
              std::vector<FactId> matched)
      : harness_(harness), bindings_(bindings), matched_(std::move(matched)) {}

  [[nodiscard]] const Bindings& bindings() const noexcept {
    return bindings_;
  }
  [[nodiscard]] const FactValue& binding(const std::string& name) const;
  [[nodiscard]] const std::vector<FactId>& matched_facts() const noexcept {
    return matched_;
  }

  /// Emits an output line (collected by the harness, as System.out in
  /// the paper's Fig. 2 action).
  void print(const std::string& line);
  /// Records a structured diagnosis (metric/message left empty).
  void diagnose(std::string problem, std::string event, double severity,
                std::string recommendation);
  /// Records a fully-populated diagnosis; `d.rule` is overwritten with
  /// the firing rule's name.
  void diagnose(Diagnosis d);
  /// Asserts a new fact (visible to subsequent matching cycles).
  FactId assert_fact(Fact fact);

 private:
  RuleHarness& harness_;
  const Bindings& bindings_;
  std::vector<FactId> matched_;
};

struct Rule {
  std::string name;
  int salience = 0;
  std::vector<Pattern> patterns;
  std::function<void(RuleContext&)> action;
  /// Where the rule's `rule "..."` header sits in its .rules source.
  SourceLoc loc;
};

/// One enumerated rule/fact-tuple pair awaiting firing. All strategies
/// produce identical activation sets; the agenda sort makes the firing
/// order identical too.
struct Activation {
  std::size_t rule_index = 0;
  std::vector<FactId> facts;
  Bindings bindings;
};

/// How RuleHarness enumerates activations. See the file comment.
enum class MatchStrategy { kNaive, kBeta };

namespace beta {
class BetaNetwork;
}  // namespace beta

/// Owns a rulebase and working memory; runs the match-fire loop.
class RuleHarness {
 public:
  RuleHarness();
  ~RuleHarness();  // out-of-line: beta::BetaNetwork is incomplete here
  RuleHarness(const RuleHarness&) = delete;
  RuleHarness& operator=(const RuleHarness&) = delete;

  void add_rule(Rule rule);
  [[nodiscard]] std::size_t rule_count() const noexcept {
    return rules_.size();
  }

  /// Strategy may be switched any time before process_rules.
  void set_match_strategy(MatchStrategy s) noexcept { strategy_ = s; }
  [[nodiscard]] MatchStrategy match_strategy() const noexcept {
    return strategy_;
  }

  /// Switches provenance capture. kOff (the default) records nothing and
  /// costs one pointer-null branch per firing/assert; kRules records the
  /// firing DAG; kFull additionally snapshots matched-fact fields and
  /// analysis-layer metric lineage. Facts asserted before capture is
  /// enabled appear with a placeholder origin, so enable it before
  /// asserting baseline facts.
  void set_provenance(provenance::ProvenanceMode mode);
  [[nodiscard]] provenance::ProvenanceMode provenance_mode() const noexcept {
    return recorder_ ? recorder_->mode() : provenance::ProvenanceMode::kOff;
  }
  /// The provenance capture; null while it is off.
  [[nodiscard]] const provenance::Recorder* provenance_recorder()
      const noexcept {
    return recorder_.get();
  }

  [[nodiscard]] WorkingMemory& memory() noexcept { return memory_; }
  [[nodiscard]] const WorkingMemory& memory() const noexcept {
    return memory_;
  }
  /// Declares a fact type and its fields in this harness's memory; see
  /// FactSchema. Asserters declare their schemas once per call and emit
  /// every row through them.
  [[nodiscard]] FactSchema schema(
      std::string_view type, std::initializer_list<std::string_view> fields) {
    return memory_.schema(type, fields);
  }
  /// Opens a row of `schema`'s type, written straight into working
  /// memory: `emit(s).num("f", x).str("g", y).commit()`. The committed
  /// fact is recorded like any assert_fact.
  [[nodiscard]] FactRow emit(const FactSchema& schema) {
    return memory_.open_row(schema, this);
  }
  /// Asserts a fact whose field set is only known at run time.
  FactId assert_fact(Fact fact);
  /// Removes a fact between firing cycles; returns false when the id is
  /// unknown (already retracted). Tuples that fired over the fact stay
  /// fired (no truth maintenance — diagnoses are not withdrawn), and
  /// memoized partial joins over it are invalidated before the next
  /// cycle.
  bool retract(FactId id);
  /// Classic RETE modify: retract + re-assert under a fresh id (facts
  /// are immutable once asserted, so recency watermarks stay truthful).
  /// Returns the new id; throws NotFoundError when `id` is unknown.
  FactId modify(FactId id, Fact replacement);

  /// Runs to quiescence; returns the number of rule firings. Throws
  /// EvalError after `max_firings` (runaway-chain guard).
  std::size_t process_rules(std::size_t max_firings = 100000);

  [[nodiscard]] const std::vector<std::string>& output() const noexcept {
    return output_;
  }
  [[nodiscard]] const std::vector<Diagnosis>& diagnoses() const noexcept {
    return diagnoses_;
  }
  /// Diagnoses filtered by problem tag.
  [[nodiscard]] std::vector<Diagnosis> diagnoses_for(
      const std::string& problem) const;

  /// Clears output/diagnoses (not rules or memory).
  void clear_results();

  /// Cost-attribution snapshot accumulated while profiling_enabled()
  /// was on during process_rules: per-rule match ns / firings /
  /// activations / bindings, per pattern level admissions / probes /
  /// hits, and (kBeta only) live/dead token counts and bytes read from
  /// the beta memories at snapshot time. Counters are cumulative across
  /// process_rules calls; probe/admission semantics are per-strategy
  /// (see the file comment). Cheap enough to call between cycles.
  [[nodiscard]] RuleProfile rule_profile() const;

  /// Clears the profiler's accumulated counters (not rules or memory).
  void clear_profile() { profiler_.reset(); }

 private:
  friend class RuleContext;
  friend class FactRow;

  /// Counts and records a fact that just entered working memory.
  void on_asserted(FactId id);

  /// Per-pattern matching plan computed once in add_rule: the pattern's
  /// type and field names interned to Symbols, so the hot loop never
  /// hashes a string.
  struct CompiledPattern {
    Symbol type_sym = kNoSymbol;
    std::vector<Symbol> constraint_fields;  ///< parallel to constraints
    std::vector<Symbol> binding_fields;     ///< parallel to bindings
  };
  struct CompiledRule {
    std::vector<CompiledPattern> patterns;
  };

  /// Undo log for move-friendly binding propagation: one shared Bindings
  /// map is mutated in place per candidate and rolled back afterwards,
  /// instead of copying the map for every candidate fact.
  using UndoLog = std::vector<std::pair<std::string, std::optional<FactValue>>>;

  /// The naive matcher's recursive enumeration step: every live fact of
  /// the pattern's type with id <= round_max is a candidate. `prof` is
  /// non-null only while profiling is enabled: each candidate examined
  /// at a pattern position counts as a probe, each candidate that
  /// survives bindings+constraints+guard as a hit and admission (for an
  /// enumerating strategy, admissions == hits by doctrine).
  void match_step(std::size_t rule_index, std::size_t pattern_index,
                  FactId round_max, Bindings& bindings,
                  std::vector<FactId>& matched, UndoLog& undo,
                  std::vector<Activation>& out, RuleProfiler* prof) const;

  friend class ProvenanceSource;

  std::vector<Rule> rules_;
  std::vector<CompiledRule> compiled_;
  MatchStrategy strategy_ = MatchStrategy::kBeta;
  /// Memoized join state for kBeta; built on first use, invalidated by
  /// WorkingMemory::mutation_epoch.
  std::unique_ptr<beta::BetaNetwork> beta_;
  WorkingMemory memory_;
  std::vector<std::string> output_;
  std::vector<Diagnosis> diagnoses_;
  std::string current_rule_;  ///< name of the rule being fired
  std::set<std::pair<std::size_t, std::vector<FactId>>> fired_;
  /// Null when provenance is off — the hot-path guard is this one check.
  std::unique_ptr<provenance::Recorder> recorder_;
  /// Cost-attribution counters; written only when profiling_enabled().
  RuleProfiler profiler_;
};

/// RAII origin label for baseline facts asserted from the analysis
/// layer: facts asserted on `harness` while this is alive carry `label`
/// (and `lineage`, under kFull) as their origin in explanations. A
/// no-op when the harness has no recorder.
class ProvenanceSource {
 public:
  ProvenanceSource(RuleHarness& harness, std::string label,
                   std::vector<std::string> lineage = {});
  ~ProvenanceSource();
  ProvenanceSource(const ProvenanceSource&) = delete;
  ProvenanceSource& operator=(const ProvenanceSource&) = delete;

 private:
  RuleHarness* harness_ = nullptr;
};

}  // namespace perfknow::rules
