// Bridges analysis results into inference-engine facts.
//
// This is PerfExplorer's MeanEventFact machinery: scripts run statistical
// operations and then assert the outcomes as typed facts that rulebases
// match on. Fact vocabularies produced here:
//
//   MeanEventFact        — one event's metric compared against the main
//                          event (the paper's Fig. 1/2 flow). Fields:
//                          factType="Compared to Main", metric, eventName,
//                          higherLower ("higher"/"lower"/"same"),
//                          severity (event's share of total runtime),
//                          mainValue, eventValue.
//   LoadBalanceFact      — per event: cv (stddev/mean across threads) and
//                          runtimeFraction.
//   NestingFact          — parentEvent/childEvent callgraph edges.
//   CorrelationFact      — per event pair: Pearson correlation of
//                          per-thread values.
//   StallBreakdownFact   — per event: memoryFpFraction (share of stalls
//                          explained by L1D-memory + FP), stallsPerCycle,
//                          runtimeFraction.
//   MemoryLocalityFact   — per event: l3Misses, remoteRatio,
//                          localToRemote, appLocalToRemote (application
//                          mean, for "worse than average" rules).
#pragma once

#include <string>

#include "profile/profile.hpp"
#include "rules/engine.hpp"

namespace perfknow::analysis {

/// Compares one event's mean exclusive `metric` value to the main event's
/// mean inclusive value, mirroring MeanEventFact.compareEventToMain.
/// `severity` is the event's share of total runtime (TIME-based when the
/// trial has TIME, else metric-based).
[[nodiscard]] rules::Fact compare_event_to_main(const profile::Trial& trial,
                                                const std::string& metric,
                                                profile::EventId event);

/// Asserts a MeanEventFact for every event (skipping main itself) whose
/// mainValue is the mean of the per-event mean-exclusive values
/// (factType "Compared to Average"), not main's inclusive value as in
/// compare_event_to_main.
/// Right for accumulating metrics like Inefficiency = FLOPs x stall
/// rate, where main's inclusive value is the sum of everything and no
/// event could ever compare "higher".
std::size_t assert_compare_to_average_facts(rules::RuleHarness& harness,
                                            const profile::Trial& trial,
                                            const std::string& metric);

/// Asserts LoadBalanceFact for every event plus NestingFact for every
/// callgraph edge plus CorrelationFact for every (parent, child) pair —
/// the fact set the load-imbalance rule joins over.
std::size_t assert_load_balance_facts(rules::RuleHarness& harness,
                                      const profile::Trial& trial,
                                      const std::string& metric = "TIME");

/// Asserts StallBreakdownFact per event from the trial's counter metrics
/// (requires BACK_END_BUBBLE_ALL, CPU_CYCLES, L1D_STALL_CYCLES,
/// FP_STALL_CYCLES). Returns facts asserted.
std::size_t assert_stall_facts(rules::RuleHarness& harness,
                               const profile::Trial& trial);

/// Asserts MemoryLocalityFact per event (requires L3_MISSES,
/// REMOTE_MEMORY_ACCESSES, LOCAL_MEMORY_ACCESSES).
std::size_t assert_memory_locality_facts(rules::RuleHarness& harness,
                                         const profile::Trial& trial);

class ScalabilityAnalysis;  // operations.hpp

/// Asserts ScalingFact per event of a scalability study, evaluated at the
/// largest thread count: eventName, speedup, idealSpeedup (threads ratio),
/// efficiency, runtimeFraction (share of total at the largest point).
std::size_t assert_scaling_facts(rules::RuleHarness& harness,
                                 const ScalabilityAnalysis& analysis);

}  // namespace perfknow::analysis
