// Built-in rulebases: the performance knowledge the paper captures.
//
// Each rulebase is the DSL source of the expert rules one case study
// uses, kept once as a file under rules/. The build embeds every
// rules/*.rules file verbatim under its stem, so the library needs no
// data-file path at runtime; adding a rulebase means adding a file.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "rules/engine.hpp"

namespace perfknow::rules::builtin {

/// Fig. 2: flags events whose stall-per-cycle rate exceeds the
/// application average and that cost > 10 % of runtime.
[[nodiscard]] std::string_view stalls_per_cycle();

/// §III-A: the MSAP load-imbalance rule — two nested loops with high
/// stddev/mean (> 0.25), > 5 % of runtime each, strongly negatively
/// correlated per thread; recommends a small dynamic chunk.
[[nodiscard]] std::string_view load_imbalance();

/// §III-B first script: high Inefficiency = FLOPs x (stalls/cycles).
[[nodiscard]] std::string_view inefficiency();

/// §III-B second script: the 90 % guideline — either memory+FP stalls
/// dominate (diagnosable) or more counter runs are needed.
[[nodiscard]] std::string_view stall_coverage();

/// §III-B third script: data-locality rules — events with a worse
/// local:remote ratio than the application mean, high remote ratios
/// (first-touch placement bug), and serialized non-scaling events.
[[nodiscard]] std::string_view memory_locality();

/// §III-C: power/energy recommendation rules over per-opt-level facts.
[[nodiscard]] std::string_view power();

/// Instrumentation-overhead guidance (selective instrumentation,
/// reference [7]): dilated regions and excessive total probe cost.
[[nodiscard]] std::string_view instrumentation();

/// OpenMP runtime-overhead diagnosis over collector-API facts:
/// fork-join-dominated regions, barrier imbalance, dispatch overhead.
[[nodiscard]] std::string_view openmp();

/// Communication diagnosis over PMPI-derived facts (the Hercule/EXPERT
/// style knowledge the paper's future work asks for): communication-bound
/// ranks, wait domination, late senders, copy-heavy exchanges.
[[nodiscard]] std::string_view communication();

/// Self-observation rules over perfknow's own telemetry trials
/// (TelemetryMetricFact / TelemetrySpanFact from
/// telemetry::assert_self_facts): cache thrashing, match-dominates-
/// ingest, thread-pool imbalance, interpreter overhead, ring overflow.
/// Deliberately NOT part of openuh_rules().
[[nodiscard]] std::string_view self_diagnosis();

/// Performance-history regression diagnosis over the differential facts
/// of analysis/diff.hpp (MetricDeltaFact, EventPresenceFact,
/// DiffSummaryFact, ScalingShiftFact): regressions and improvements vs
/// the noise band, disappeared/new events, within-noise verdicts,
/// scaling-efficiency regressions. Drives the `pkx diff` CI perf gate.
/// Like self_diagnosis(), NOT part of openuh_rules().
[[nodiscard]] std::string_view regression();

/// Rule-engine cost attribution over the profiler facts of
/// rules/profiler.hpp (RuleProfileFact, JoinLevelFact from
/// assert_profile_facts): combinatorial join explosions, dead rules,
/// low-selectivity anchor patterns, dead-token bloat. Drives
/// `pkx rules-profile`. Like self_diagnosis(), NOT part of
/// openuh_rules() — it diagnoses the engine, not the application.
[[nodiscard]] std::string_view rule_tuning();

/// The union of the nine paper rulebases above (stalls_per_cycle through
/// openmp) — the "OpenUHRules" file of Fig. 1.
[[nodiscard]] std::string openuh_rules();

/// The names of every built-in rulebase: the stems of rules/*.rules,
/// sorted.
[[nodiscard]] std::vector<std::string_view> names();

/// Parses one built-in rulebase into `harness`.
void use(RuleHarness& harness, std::string_view rulebase_source);

}  // namespace perfknow::rules::builtin

namespace perfknow::rules {

/// Resolves a rulebase name to DSL source text the way
/// RuleHarness.useGlobalRules does: built-in names and aliases first
/// (every builtin::names() entry, and "openuh" with its Fig. 1 spellings
/// "openuh/OpenUHRules.drl", "OpenUHRules.drl" and
/// "OpenUHRules.rules"), then a file under
/// `rules_path` (when given), then the filesystem as-is. Throws
/// NotFoundError naming the rulebase when nothing matches. This is the
/// one name-resolution policy shared by scripts, `pkx`, and the
/// analysis server.
[[nodiscard]] std::string resolve_rulebase(
    const std::string& name, const std::filesystem::path& rules_path = {});

}  // namespace perfknow::rules
