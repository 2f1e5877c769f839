// Differential facts between two versioned trials.
//
// The trial-history layer's analysis half: given a base and a current
// trial of the same experiment (typically adjacent versions from
// Repository::history), assert typed facts describing what changed so a
// rulebase (rules/regression.rules) can diagnose regressions,
// improvements, and within-noise verdicts instead of a script hardcoding
// thresholds. Fact vocabulary:
//
//   MetricDeltaFact   — one (event, metric) cell compared across the two
//                       trials: baseValue/currentValue (mean exclusive),
//                       delta, ratio (current/base), normalizedRatio
//                       (ratio / per-metric geometric-mean ratio, so a
//                       uniformly slower machine does not read as a
//                       regression), direction ("regressed"/"improved"/
//                       "same" vs the noise band), runtimeFraction (the
//                       event's share of current total runtime),
//                       baseTrial/currentTrial names.
//   TrialDeltaFact    — one per compared metric: baseTotal/currentTotal,
//                       totalRatio, geomeanRatio, sharedEvents.
//   EventPresenceFact — events present in only one trial: eventName,
//                       presence ("added"/"removed"), runtimeFraction in
//                       the trial that has it.
//   DiffSummaryFact   — one per diff: comparedCells, regressedCells,
//                       improvedCells, skippedCells (non-positive on
//                       either side), missingEvents, addedEvents,
//                       maxNormalizedRatio, minNormalizedRatio.
//   NoiseBandFact     — the band the direction classification used, so
//                       rules join against the same threshold.
//   ScalingShiftFact  — per event of two scalability studies: efficiency
//                       at the largest point in each, efficiencyShift
//                       (current - base), base/current speedups,
//                       runtimeFraction at the current largest point.
//
// All asserts run under a ProvenanceSource naming BOTH trials, so kFull
// explanations bottom out in the raw PKB columns of each side.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "profile/profile.hpp"
#include "rules/engine.hpp"

namespace perfknow::analysis {

class ScalabilityAnalysis;  // operations.hpp

struct DiffOptions {
  /// Metrics to compare; empty means every metric present in both
  /// trials, in base-trial order.
  std::vector<std::string> metrics;
  /// Relative noise band for the direction classification: a cell is
  /// "regressed" when normalizedRatio > 1 + band, "improved" when
  /// < 1 - band. Matches the historical CI gate threshold.
  double noise_band = 0.25;
  /// Cells whose event is below this share of current total runtime are
  /// still asserted (rules may want them) but never counted as
  /// regressed/improved in the summary. 0 disables the floor.
  double min_fraction = 0.0;
  /// When false, normalizedRatio is the raw ratio (no geomean division).
  bool normalize = true;

  /// Checks the numeric fields and throws InvalidArgumentError naming
  /// the offending one: noise_band must be finite and > 0 (a zero or
  /// negative band would classify every cell as regressed AND
  /// improved), min_fraction finite and in [0, 1]. Called by
  /// assert_diff_facts; `pkx diff --band` surfaces the same check as a
  /// usage diagnostic.
  void validate() const;
};

/// Counts of what a diff asserted (the return value of
/// assert_diff_facts); mirrors DiffSummaryFact.
struct DiffSummary {
  std::size_t compared_cells = 0;
  std::size_t regressed_cells = 0;
  std::size_t improved_cells = 0;
  std::size_t skipped_cells = 0;
  std::size_t missing_events = 0;
  std::size_t added_events = 0;
  std::size_t facts = 0;  ///< total facts asserted
};

/// Asserts the differential fact set for base -> current into `harness`.
/// Events are matched by name; values are across-thread mean exclusives.
/// Throws InvalidArgumentError when no metric is shared (or a requested
/// metric is missing from either trial).
DiffSummary assert_diff_facts(rules::RuleHarness& harness,
                              const profile::Trial& base,
                              const profile::Trial& current,
                              const DiffOptions& options = {});

/// Asserts ScalingShiftFact per event present in both studies' baseline
/// trials — how each event's scaling efficiency moved between two
/// versions of a parametric experiment. Returns facts asserted.
std::size_t assert_scaling_shift_facts(rules::RuleHarness& harness,
                                       const ScalabilityAnalysis& base,
                                       const ScalabilityAnalysis& current);

/// True for the diagnosis problem codes that should fail a perf gate
/// (MetricRegression, MissingEvent, ScalingRegression) — the contract
/// between rules/regression.rules and the pkx diff exit code.
[[nodiscard]] bool regression_problem(const std::string& problem);

}  // namespace perfknow::analysis
