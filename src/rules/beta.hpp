// Beta-memory join network: the kBeta matching strategy.
//
// Where the naive matcher re-runs the whole join over working memory
// every firing cycle, this network *memoizes* the join. For each rule it
// keeps
//
//   * one alpha memory per pattern: the facts of the pattern's type
//     that pass its statically evaluable tests (literal right-hand
//     sides and same-pattern variable references), stored as
//     structure-of-arrays columns — fact ids and dead flags in chunked
//     arena-backed columns, the pattern's equality-join key as a value
//     column plus a hash bucket map keyed by value_hash; and
//
//   * one beta memory per pattern prefix: partial join tokens, each the
//     fact-id tuple matching patterns [0..l]. Token columns are again
//     SoA — one arena-backed fact-id column per level plus a dead-flag
//     column — so prefix probes scan contiguously and extending a token
//     never copies the store.
//
// Per firing cycle the network admits only the alpha *delta* (facts
// asserted since each type's watermark) and extends tokens by the
// standard disjoint decomposition
//
//     new_tokens(l) = old_tokens(l-1) x new_facts(l)
//                   U new_tokens(l-1) x all_facts(l)
//
// so every tuple is produced exactly once over the harness's lifetime.
// Tokens at the last level are not stored: they become Activations
// immediately (variable bindings are materialized only here, replaying
// the pattern's binding writes in the naive matcher's order, which
// keeps bindings, provenance, and firing order byte-identical).
//
// Retract/modify invalidation is epoch-based: WorkingMemory bumps a
// mutation epoch on every retract/clear; when the network observes a
// new epoch it sweeps alpha rows and tokens whose facts died, marking
// them dead in place (bucket entries are skipped on probe, not erased —
// the BetaMemoryBloat self-diagnosis rule watches the dead/created
// ratio). When no facts were retracted the sweep is a single integer
// compare.
//
// Telemetry counters: rules.beta.tokens, rules.beta.dead_tokens,
// rules.beta.token_bytes, rules.beta.extension_probes,
// rules.beta.extension_hits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "rules/engine.hpp"
#include "rules/fact.hpp"

namespace perfknow::rules::beta {

// The bump Arena and chunked Column that used to live here are now the
// shared perfknow::Arena / perfknow::Column in common/arena.hpp — the
// columnar WorkingMemory is built on the same primitives. Unqualified
// Arena/Column below resolve to them via the enclosing namespace.

/// The network. One instance lives inside a RuleHarness; match() is
/// called once per firing round with the round's fact-id ceiling and
/// appends this round's activations.
class BetaNetwork {
 public:
  // Implementation types, public so file-local helpers in beta.cpp can
  // name them; they are only ever defined and used there.
  struct VarStep;
  struct VarRef;
  struct ResidualTest;
  struct CompiledLevel;
  struct AlphaMemory;
  struct TokenMemory;
  struct RuleNet;
  struct SubscriberPlan;
  struct TypeGroup;

  BetaNetwork();
  ~BetaNetwork();

  /// Admits the alpha delta for every rule, extends token memories, and
  /// appends every activation whose tuple contains at least one fact in
  /// (watermark, round_max]. `rules` must only ever grow between calls.
  /// `prof`, when non-null, receives per-(rule, level) admission and
  /// probe/hit counts plus per-rule extension timing for this round.
  void match(const std::vector<Rule>& rules, const WorkingMemory& memory,
             FactId round_max, std::vector<Activation>& out,
             RuleProfiler* prof = nullptr);

  /// Fills the live/dead token counts and byte estimates of `profile`'s
  /// per-rule levels from the current beta memories (level l's memory
  /// holds the tokens matching patterns [0..l]). Snapshot-time state,
  /// not a counter; used by RuleHarness::rule_profile().
  void collect_token_state(RuleProfile& profile) const;

  /// Introspection for tests and telemetry.
  [[nodiscard]] std::size_t token_count() const noexcept { return tokens_; }
  [[nodiscard]] std::size_t dead_token_count() const noexcept {
    return dead_tokens_;
  }
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_.bytes_reserved();
  }

 private:
  void ensure_rules(const std::vector<Rule>& rules,
                    const WorkingMemory& memory,
                    std::vector<Activation>& out);
  void sweep(const WorkingMemory& memory);
  void extract_slots(const TypeGroup& group, const FactRef& fact,
                     std::vector<const FactValue*>& slots) const;
  void admit_one(const std::vector<Rule>& rules, const WorkingMemory& memory,
                 SubscriberPlan& sub, FactId id, const FactRef& fact,
                 const std::vector<const FactValue*>& slots,
                 std::vector<Activation>& out);
  void admit_deltas(const std::vector<Rule>& rules,
                    const WorkingMemory& memory, FactId round_max,
                    std::vector<Activation>& out);
  void extend_rule(const std::vector<Rule>& rules, RuleNet& net,
                   const WorkingMemory& memory,
                   std::vector<Activation>& out);
  Activation make_activation(const std::vector<Rule>& rules,
                             std::size_t rule_index,
                             std::vector<FactId> facts,
                             const WorkingMemory& memory);

  Arena arena_;
  std::vector<std::unique_ptr<RuleNet>> nets_;
  std::vector<TypeGroup> groups_;
  std::unordered_map<std::string, std::size_t> group_of_type_;
  std::uint64_t seen_epoch_ = 0;
  std::size_t tokens_ = 0;
  std::size_t dead_tokens_ = 0;
  std::size_t reported_bytes_ = 0;
  std::size_t probes_round_ = 0;
  std::size_t hits_round_ = 0;
  /// Valid only within match(); null when profiling is disabled.
  RuleProfiler* prof_ = nullptr;
};

}  // namespace perfknow::rules::beta
