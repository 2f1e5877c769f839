// Instrumentation-overhead estimation — the quantitative motivation for
// selective instrumentation (the paper's reference [7]: "We want to
// avoid instrumenting regions of code that have small weights ... and
// are invoked many times").
//
// Every TAU-style probe pair (start+stop) costs a roughly constant number
// of cycles; a region's measurement dilation is probes x probe cost
// relative to the time actually spent inside it. This module estimates
// per-region and whole-trial overhead from the recorded call counts,
// asserts OverheadFact facts, and proposes an instrumentation refinement
// (which regions to throttle) — closing the loop with
// instrument::select_regions.
#pragma once

#include <string>
#include <vector>

#include "profile/profile.hpp"
#include "rules/engine.hpp"

namespace perfknow::instrument {

struct OverheadEstimate {
  std::string event;
  double calls = 0.0;
  double probe_cycles = 0.0;     ///< calls x per-probe cost
  double measured_cycles = 0.0;  ///< inclusive CPU_CYCLES (or TIME-derived)
  /// probe cycles / measured cycles — dilation of this region's numbers.
  double dilation = 0.0;
};

struct OverheadReport {
  std::vector<OverheadEstimate> per_event;  ///< descending by dilation
  double total_probe_cycles = 0.0;
  /// Fraction of total runtime spent in probes.
  double app_overhead_fraction = 0.0;
};

/// Per-probe-pair cost in cycles (TAU's start+stop on Itanium-class
/// hardware is a few hundred cycles).
constexpr double kDefaultProbeCycles = 280.0;

/// Estimates instrumentation overhead for every event of a trial. The
/// trial must carry CPU_CYCLES (counter-free TIME-only trials convert via
/// `clock_ghz`). Throws NotFoundError when neither is present.
[[nodiscard]] OverheadReport estimate_overhead(
    const profile::Trial& trial, double probe_cycles = kDefaultProbeCycles,
    double clock_ghz = 1.5);

/// Asserts OverheadFact per event (eventName, calls, dilation) plus one
/// OverheadSummaryFact (appOverheadFraction, totalProbeCycles). Returns
/// the number of facts asserted.
std::size_t assert_overhead_facts(rules::RuleHarness& harness,
                                  const OverheadReport& report);

/// Events whose dilation exceeds `max_dilation` — the throttle list a
/// refinement run should exclude (TAU's throttling rule of thumb).
[[nodiscard]] std::vector<std::string> throttle_candidates(
    const OverheadReport& report, double max_dilation = 0.10);

}  // namespace perfknow::instrument
