// Per-rule / per-pattern cost attribution for the rule engine.
//
// The matchers (naive, beta) answer "which facts fire which
// rules"; this module answers "which rule or join is burning the match
// time" — the cost-attribution data the AOT codegen roadmap item needs
// to decide what to specialize, and what rules/rule_tuning.rules
// consumes to diagnose the rulebase itself.
//
// Counters, per rule:
//   - match_ns      cumulative wall time spent matching this rule
//   - firings       actions executed (after agenda dedup)
//   - activations   activations enqueued onto the agenda, pre-dedup —
//                   a re-enumerating strategy re-enqueues tuples that
//                   fire-time dedup then suppresses, so this measures
//                   agenda pressure, not work done
//   - bindings      variable bindings materialized across activations
// and per pattern level within a rule:
//   - admissions    facts admitted past the pattern's static tests
//   - probes        join extension attempts (token x candidate pairs)
//   - hits          extensions that survived residual constraints
//   - live/dead tokens and token_bytes (beta only; snapshot-time state)
//
// Attribution is per matcher by doctrine (see engine.hpp): firings are
// byte-identical across strategies, but probes/admissions/activations/
// bindings describe the work a particular strategy performed — the
// naive matcher "probes" every enumeration step and re-enqueues every
// tuple each round, the beta network probes hash-bucket candidates and
// enqueues each tuple once. A profile is only comparable to another
// profile taken under the same strategy, which is why RuleProfile
// records it.
//
// Gating mirrors telemetry: a process-wide relaxed-atomic switch
// (profiling_enabled(), default off, PERFKNOW_RULE_PROFILING=1 to
// enable at startup) that compiles to a constant-false under
// PERFKNOW_NO_TELEMETRY. The disabled-mode cost is one pointer test
// per rule per cycle, CI-gated at <= 2% on the 10k-fact beta workload
// (BM_RulesProfilerOff).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfknow::profile {
class Trial;
class TrialView;
}  // namespace perfknow::profile

namespace perfknow::rules {

class RuleHarness;

namespace profdetail {
#ifdef PERFKNOW_NO_TELEMETRY
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif
extern std::atomic<bool> g_profiling;
}  // namespace profdetail

/// Process-wide profiling gate. Default off; initialized from
/// PERFKNOW_RULE_PROFILING (1/on/true/yes). Relaxed loads only — the
/// engine re-reads it once per process_rules cycle.
[[nodiscard]] inline bool profiling_enabled() noexcept {
  if constexpr (!profdetail::kCompiledIn) return false;
  return profdetail::g_profiling.load(std::memory_order_relaxed);
}

/// Flips the gate. No-op (stays false) under PERFKNOW_NO_TELEMETRY.
void set_profiling_enabled(bool on) noexcept;

/// Point-in-time cost attribution snapshot, taken by
/// RuleHarness::rule_profile(). Plain data: safe to keep after the
/// harness is gone.
struct RuleProfile {
  struct Level {
    std::uint64_t admissions = 0;   ///< facts past the pattern's alpha tests
    std::uint64_t probes = 0;       ///< join extension attempts
    std::uint64_t hits = 0;         ///< extensions surviving residuals+guard
    std::uint64_t live_tokens = 0;  ///< beta: live partial joins at this level
    std::uint64_t dead_tokens = 0;  ///< beta: retract-invalidated, pre-sweep
    std::uint64_t token_bytes = 0;  ///< beta: bytes held by this level's memory
  };
  struct PerRule {
    std::string name;
    std::size_t index = 0;       ///< position in the harness (agenda order key)
    std::uint64_t match_ns = 0;  ///< cumulative match time attributed here
    std::uint64_t firings = 0;
    std::uint64_t activations = 0;
    std::uint64_t bindings = 0;
    std::vector<Level> levels;   ///< one per pattern position
  };
  std::string strategy;          ///< "naive" | "beta"
  std::uint64_t cycles = 0;      ///< process_rules rounds observed
  std::uint64_t wm_size = 0;     ///< live working-memory facts at snapshot
  std::vector<PerRule> rules;
};

/// Accumulator owned by RuleHarness. Not thread-safe (a harness is
/// single-threaded by contract); plain counters, lazily grown so rules
/// added after profiling started still attribute correctly.
class RuleProfiler {
 public:
  struct LevelCounters {
    std::uint64_t admissions = 0;
    std::uint64_t probes = 0;
    std::uint64_t hits = 0;
  };
  struct RuleCounters {
    std::uint64_t match_ns = 0;
    std::uint64_t firings = 0;
    std::uint64_t activations = 0;
    std::uint64_t bindings = 0;
    std::vector<LevelCounters> levels;
  };

  void begin_cycle() noexcept { ++cycles_; }

  RuleCounters& rule(std::size_t r) {
    if (r >= rules_.size()) rules_.resize(r + 1);
    return rules_[r];
  }

  LevelCounters& level(std::size_t r, std::size_t lvl) {
    auto& levels = rule(r).levels;
    if (lvl >= levels.size()) levels.resize(lvl + 1);
    return levels[lvl];
  }

  void reset() {
    rules_.clear();
    cycles_ = 0;
  }

  [[nodiscard]] const std::vector<RuleCounters>& rules() const noexcept {
    return rules_;
  }
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }

 private:
  std::vector<RuleCounters> rules_;
  std::uint64_t cycles_ = 0;
};

/// Exports a RuleProfile as a PKB trial, mirroring telemetry::to_trial:
/// a synthetic "rules" root (group RULEPROF), one child event per rule
/// (TIME = match microseconds, calls = firings) carrying
/// rules.firings/.activations/.bindings/.admissions count metrics, and
/// one grandchild per pattern level ("<rule> => level <l>") carrying
/// rules.admissions/.probes/.hits/.live_tokens/.dead_tokens/
/// .token_bytes. Metadata: perfknow.rules_profile=1, rules.strategy,
/// rules.cycles, rules.wm_size. The result round-trips through the
/// repository like any other trial, so rule_tuning.rules can analyze a
/// stored profile with full provenance down to these counters.
[[nodiscard]] profile::Trial profile_to_trial(
    const RuleProfile& profile, const std::string& trial_name = "rules-profile");

/// Asserts RuleProfileFact (per rule) and JoinLevelFact (per pattern
/// level) facts from a trial written by profile_to_trial, for
/// rules/rule_tuning.rules. Throws InvalidArgumentError if the trial
/// lacks the perfknow.rules_profile marker. Returns facts asserted.
std::size_t assert_profile_facts(RuleHarness& harness,
                                 const profile::TrialView& trial);

}  // namespace perfknow::rules
