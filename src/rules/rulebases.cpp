#include "rules/rulebases.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "rules/parser.hpp"

namespace perfknow::rules::builtin {

namespace {

constexpr std::string_view kStallsPerCycle = R"RULES(
// Fig. 2 of the paper: fire for any event with a higher-than-average
// stall-per-cycle rate that accounts for at least 10% of total runtime.
rule "Stalls per Cycle"
when
  f : MeanEventFact( metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
                     higherLower == "higher",
                     severity > 0.10,
                     e : eventName,
                     a : mainValue,
                     v : eventValue,
                     factType == "Compared to Main" )
then
  print("Event " + e + " has a higher than average stall / cycle rate")
  print("\tAverage stall / cycle: " + a)
  print("\tEvent stall / cycle: " + v)
  print("\tPercentage of total runtime: " + f.severity)
  diagnose(problem = "HighStallPerCycle", event = e, severity = f.severity,
           recommendation = "Re-run with fine-grain instrumentation and full stall counters for this event")
  assert(HighStallEvent(eventName = e, severity = f.severity))
end
)RULES";

constexpr std::string_view kLoadImbalance = R"RULES(
// The MSAP load-imbalance diagnosis: two nested loops, both unbalanced
// across threads (stddev/mean > 0.25), both significant (> 5% of total
// runtime), whose per-thread times are strongly negatively correlated —
// a thread finishing the inner loop early waits in the outer loop at the
// barrier. Recommends dynamic scheduling with a small chunk.
rule "Load Imbalance"
salience 10
when
  outer : LoadBalanceFact( cv > 0.25, runtimeFraction > 0.05,
                           oe : eventName )
  inner : LoadBalanceFact( cv > 0.25, runtimeFraction > 0.05,
                           ie : eventName )
  NestingFact( parentEvent == oe, childEvent == ie )
  c : CorrelationFact( eventA == oe, eventB == ie, correlation < -0.5,
                       r : correlation )
then
  print("Load imbalance detected: nested loops " + oe + " and " + ie)
  print("\touter cv: " + outer.cv + ", inner cv: " + inner.cv)
  print("\tper-thread correlation: " + r)
  diagnose(problem = "LoadImbalance", event = ie,
           severity = inner.runtimeFraction,
           recommendation = "Use schedule(dynamic,1) (small dynamic chunks) on the parallel loop " + oe)
end
)RULES";

constexpr std::string_view kInefficiency = R"RULES(
// First GenIDLEST script: Inefficiency = FP_OPS x (stalls / cycles).
// Events with higher-than-average inefficiency that matter (> 5% of
// runtime) are where programmer and compiler should focus.
rule "High Inefficiency"
when
  f : MeanEventFact( metric == "(FP_OPS * (BACK_END_BUBBLE_ALL / CPU_CYCLES))",
                     higherLower == "higher",
                     severity > 0.05,
                     e : eventName,
                     factType == "Compared to Average" )
then
  print("Event " + e + " has higher than average inefficiency (" +
        f.severity + " of total runtime)")
  diagnose(problem = "HighInefficiency", event = e, severity = f.severity,
           recommendation = "Instrument this region at loop level and collect stall-source counters")
  assert(InefficientEvent(eventName = e, severity = f.severity))
end
)RULES";

constexpr std::string_view kStallCoverage = R"RULES(
// Second GenIDLEST script: the 90% guideline. If L1D-memory plus FP
// stalls explain at least 90% of an event's stalls, the memory analysis
// can proceed; otherwise additional counter runs are required to fill in
// the remaining terms of the Jarp decomposition.
rule "Memory and FP Stalls Dominate"
when
  f : StallBreakdownFact( memoryFpFraction >= 0.90,
                          runtimeFraction > 0.05,
                          e : eventName )
then
  print("Event " + e + ": memory + FP stalls explain " +
        f.memoryFpFraction + " of stall cycles")
  diagnose(problem = "MemoryFpStallDominated", event = e,
           severity = f.runtimeFraction,
           recommendation = "Proceed to the memory-analysis metrics for this event")
  assert(MemoryBoundEvent(eventName = e, severity = f.runtimeFraction))
end

rule "Stall Sources Unexplained"
when
  f : StallBreakdownFact( memoryFpFraction < 0.90,
                          stallsPerCycle > 0.30,
                          runtimeFraction > 0.05,
                          e : eventName )
then
  print("Event " + e + ": only " + f.memoryFpFraction +
        " of stalls from memory+FP; more counters needed")
  diagnose(problem = "NeedMoreCounters", event = e,
           severity = f.runtimeFraction,
           recommendation = "Perform additional runs to measure branch, I-cache, RSE and flush stall components")
end
)RULES";

constexpr std::string_view kMemoryLocality = R"RULES(
// Third GenIDLEST script: data-locality diagnosis on the SGI Altix.
rule "Poor Data Locality"
salience 5
when
  f : MemoryLocalityFact( belowAppAverage == true,
                          runtimeFraction > 0.05,
                          e : eventName )
then
  print("Event " + e + " has a worse local:remote memory ratio (" +
        f.localToRemote + ") than the application average (" +
        f.appLocalToRemote + ")")
  diagnose(problem = "PoorDataLocality", event = e,
           severity = f.runtimeFraction,
           recommendation = "Check first-touch placement: initialize data in parallel so pages are homed where they are used")
end

rule "Remote Memory Dominates"
when
  f : MemoryLocalityFact( remoteRatio > 0.5, runtimeFraction > 0.05,
                          e : eventName )
then
  print("Event " + e + ": " + f.remoteRatio +
        " of L3 misses go to remote memory")
  diagnose(problem = "RemoteMemoryDominates", event = e,
           severity = f.runtimeFraction,
           recommendation = "Parallelize initialization loops and/or privatize per-thread data to exploit first-touch")
end

rule "Sequential Bottleneck"
salience 3
when
  f : ScalingFact( efficiency < 0.30, runtimeFraction > 0.10,
                   e : eventName, s : speedup )
then
  print("Event " + e + " scales poorly (speedup " + s +
        ") and is " + f.runtimeFraction + " of runtime")
  diagnose(problem = "SequentialBottleneck", event = e,
           severity = f.runtimeFraction,
           recommendation = "Parallelize the serialized work in " + e + " (e.g. boundary-update copies by the master thread)")
end
)RULES";

constexpr std::string_view kPower = R"RULES(
// Power/energy recommendations over the per-optimization-level study
// facts (relative to O0, as in Table I).
rule "Compile for Low Power"
when
  f : PowerStudyFact( isLowestPower == true, l : level )
then
  print("Lowest power dissipation at " + l)
  diagnose(problem = "LowPowerSetting", event = l, severity = 1.0,
           recommendation = "Enable " + l + " when compiling for low power (large-scale servers: reliability, cooling, operating cost)")
end

rule "Compile for Low Energy"
when
  f : PowerStudyFact( isLowestEnergy == true, l : level )
then
  print("Lowest energy consumption at " + l)
  diagnose(problem = "LowEnergySetting", event = l, severity = 1.0,
           recommendation = "Enable " + l + " when compiling for low energy (embedded and scientific workloads)")
end

rule "Compile for Power and Energy Balance"
when
  f : PowerStudyFact( isBalanced == true, l : level )
then
  print("Best power/energy balance at " + l)
  diagnose(problem = "BalancedSetting", event = l, severity = 1.0,
           recommendation = "Enable " + l + " for combined power and energy efficiency")
end

rule "Energy Tracks Instruction Count"
when
  f : PowerStudyFact( correlatedEnergyInstructions == true,
                      l : level, j : relativeJoules,
                      i : relativeInstructions )
then
  print("At " + l + " energy (" + j + ") tracks instruction count (" + i + ")")
end
)RULES";

constexpr std::string_view kCommunication = R"RULES(
// Communication diagnosis from PMPI-derived facts.
rule "Communication Bound Rank"
when
  f : CommunicationFact( commFraction > 0.30, r : rank )
then
  print("Rank " + r + " spends " + f.commFraction +
        " of its time in communication")
  diagnose(problem = "CommunicationBound", event = "rank " + r,
           severity = f.commFraction,
           recommendation = "Increase the computation/communication ratio: larger blocks per rank or message aggregation")
end

rule "Wait Dominated Rank"
salience 5
when
  f : CommunicationFact( waitFraction > 0.20, r : rank )
then
  print("Rank " + r + " is wait-dominated (" + f.waitFraction +
        " of runtime blocked in MPI_Wait)")
  diagnose(problem = "WaitDominated", event = "rank " + r,
           severity = f.waitFraction,
           recommendation = "Overlap communication with computation: post receives earlier and defer waits past independent work")
end

rule "Late Sender"
when
  f : LateSenderFact( waitFraction > 0.05, s : sender, d : receiver )
then
  print("Rank " + d + " waits on late sender rank " + s + " (" +
        f.waitFraction + " of runtime)")
  diagnose(problem = "LateSender", event = "rank " + s,
           severity = f.waitFraction,
           recommendation = "Balance the work ahead of the send on rank " + s + " or post its sends earlier")
end

rule "Copy Heavy Exchange"
when
  f : CommunicationFact( copyFraction > 0.15, r : rank )
then
  print("Rank " + r + " spends " + f.copyFraction +
        " of its time in on-processor buffer copies")
  diagnose(problem = "CopyHeavyExchange", event = "rank " + r,
           severity = f.copyFraction,
           recommendation = "Eliminate intermediate buffers: copy directly from the send buffer to the destination array")
end
)RULES";

constexpr std::string_view kInstrumentation = R"RULES(
// Selective-instrumentation guidance: throttle regions whose probe cost
// dilates their own measurement, and flag runs whose total probe cost
// perturbs the application (reference [7] of the paper).
rule "Instrumentation Dilation"
when
  f : OverheadFact( dilation > 0.10, e : eventName, c : calls )
then
  print("Event " + e + " is dilated " + f.dilation +
        " by its own probes (" + c + " calls)")
  diagnose(problem = "InstrumentationOverhead", event = e,
           severity = f.dilation,
           recommendation = "Throttle or exclude " + e + " from instrumentation (small region, very high call count)")
end

rule "Excessive Probe Cost"
when
  f : OverheadSummaryFact( appOverheadFraction > 0.05 )
then
  print("Instrumentation perturbs the run: " + f.appOverheadFraction +
        " of total cycles are probe overhead")
  diagnose(problem = "ExcessiveProbeCost", event = "whole application",
           severity = f.appOverheadFraction,
           recommendation = "Re-run with selective instrumentation: procedures only, or raise the selectivity score threshold")
end
)RULES";

constexpr std::string_view kOpenmp = R"RULES(
// OpenMP runtime-overhead diagnosis from collector-API facts (the
// paper's §V: attribute fork-join, scheduling and barrier overheads and
// their causes).
rule "Parallel Region Too Fine"
when
  f : OmpRegionFact( forkJoinShare > 0.50, invocations >= 10, r : region )
then
  print("Region " + r + ": fork/join overhead dominates (" +
        f.forkJoinShare + " of runtime overhead over " + f.invocations +
        " invocations)")
  diagnose(problem = "ForkJoinOverhead", event = r,
           severity = f.forkJoinShare,
           recommendation = "Hoist the parallel directive out of the enclosing loop or merge adjacent parallel regions")
end

rule "Barrier Imbalance"
salience 5
when
  f : OmpRegionFact( barrierShare > 0.50, imbalanceCv > 0.25, r : region )
then
  print("Region " + r + ": threads idle unevenly at the barrier (share " +
        f.barrierShare + ", cv " + f.imbalanceCv + ")")
  diagnose(problem = "BarrierImbalance", event = r,
           severity = f.barrierShare,
           recommendation = "Use a dynamic schedule with a small chunk, or rebalance the per-thread work for " + r)
end

rule "Dispatch Overhead"
when
  f : OmpRegionFact( r : region, d : dispatchCycles, j : forkJoinCycles,
                     dispatchCycles > j * 2 )
then
  print("Region " + r + ": chunk-dispatch cost " + d +
        " cycles exceeds fork/join cost")
  diagnose(problem = "DispatchOverhead", event = r, severity = 0.5,
           recommendation = "Increase the dynamic chunk size for " + r + " (dispatch-bound)")
end
)RULES";

constexpr std::string_view kSelfDiagnosis = R"RULES(
// Self-observation rules: diagnose perfknow's own execution from a
// telemetry trial (telemetry::to_trial, re-asserted as facts by
// telemetry::assert_self_facts). Not part of openuh_rules(): these
// consume TelemetryMetricFact / TelemetrySpanFact, not profile facts.
rule "Repository Cache Thrashing"
when
  r : TelemetryMetricFact( name == "perfdmf.repository.cache.hit_rate",
                           value < 0.5, v : value )
  TelemetryMetricFact( name == "perfdmf.repository.cache.lookups",
                       value >= 16 )
then
  print("Repository cache hit rate is only " + v)
  diagnose(problem = "RepositoryCacheThrashing", event = "perfdmf.repository",
           metric = "perfdmf.repository.cache.hit_rate", severity = 1 - v,
           message = "demand-load cache hit rate " + v + " is below 0.5",
           recommendation = "Raise the attach() cache budget (set_cache_budget) or pin hot trials with put()")
end

rule "Rule Matching Dominates Ingest"
when
  m : TelemetrySpanFact( name == "rules.match", totalUsec > 0,
                         t : totalUsec )
  i : TelemetrySpanFact( name == "io.open_trial", totalUsec > 0,
                         u : totalUsec, totalUsec < t * 0.5 )
then
  print("Rule matching took " + t + " usec vs " + u + " usec of ingest")
  diagnose(problem = "RuleMatchDominatesIngest", event = "rules.match",
           metric = "TIME", severity = t / (t + u),
           message = "match time " + t + " usec is more than twice ingest time " + u + " usec",
           recommendation = "Keep MatchStrategy.kBeta (the default) and assert facts for hot events only")
end

rule "Beta Memory Bloat"
when
  t : TelemetryMetricFact( name == "rules.beta.tokens", value >= 1024,
                           n : value )
  d : TelemetryMetricFact( name == "rules.beta.dead_tokens",
                           value > n * 0.5, k : value )
then
  print("Beta join memory holds " + k + " dead tokens of " + n + " created")
  diagnose(problem = "BetaMemoryBloat", event = "rules.beta",
           metric = "rules.beta.dead_tokens", severity = k / n,
           message = "dead tokens " + k + " of " + n + " created: retract/modify churn is bloating memoized join state",
           recommendation = "Retract in batches between process_rules calls")
end

rule "Thread Pool Imbalance"
when
  w : TelemetrySpanFact( name == "threadpool.chunk", imbalanceCv > 0.25,
                         c : imbalanceCv )
then
  print("Thread pool busy-time imbalance cv is " + c)
  diagnose(problem = "ThreadPoolImbalance", event = "threadpool.chunk",
           metric = "TIME", severity = c,
           message = "per-worker busy-time stddev/mean is " + c,
           recommendation = "Reduce the parallel_for grain so chunks are smaller, or balance per-index work")
end

rule "Interpreter Overhead Dominates"
when
  s : TelemetrySpanFact( name == "script.statement", share > 0.5,
                         h : share )
then
  print("Interpreted statements account for " + h + " of instrumented time")
  diagnose(problem = "InterpreterOverheadDominates", event = "script.statement",
           metric = "TIME", severity = h,
           message = "interpreted statements take " + h + " of all instrumented time",
           recommendation = "Move per-event loops from PerfScript into host calls (the assert*Facts helpers)")
end

rule "Telemetry Ring Overflow"
when
  d : TelemetryMetricFact( name == "telemetry.dropped_spans", value > 0,
                           n : value )
then
  print("Telemetry dropped " + n + " spans before the snapshot")
  diagnose(problem = "TelemetryRingOverflow", event = "perfknow",
           metric = "telemetry.dropped_spans", severity = 1,
           message = "dropped " + n + " spans to ring wraparound",
           recommendation = "Snapshot more often, or disable per-statement spans for long scripts")
end

rule "Server Queue Saturated"
when
  o : TelemetryMetricFact( name == "server.rejected.overload", value > 0,
                           n : value )
  q : TelemetryMetricFact( name == "server.requests", r : value )
then
  print("Server admission control rejected " + n + " of " + r + " requests")
  diagnose(problem = "ServerQueueSaturated", event = "server.request",
           metric = "server.rejected.overload", severity = n / r,
           message = "rejected " + n + " of " + r + " requests with 'overloaded': the worker queue is saturated",
           recommendation = "Raise pkx serve --workers or --queue, or slow the clients' pipelining")
end

rule "Server Client Over Budget"
when
  b : TelemetryMetricFact( name == "server.rejected.budget", value > 0,
                           n : value )
then
  print("Server rejected " + n + " uploads over the per-client byte budget")
  diagnose(problem = "ServerClientOverBudget", event = "server.request",
           metric = "server.rejected.budget", severity = 1,
           message = "rejected " + n + " uploads that exceeded a connection's byte budget",
           recommendation = "Raise pkx serve --budget, or split uploads across connections")
end
)RULES";

constexpr std::string_view kRegression = R"RULES(
// Performance-history regression diagnosis over the differential facts
// asserted by analysis::assert_diff_facts / assert_scaling_shift_facts
// (analysis/diff.hpp). Not part of openuh_rules(): these consume
// MetricDeltaFact / EventPresenceFact / DiffSummaryFact /
// ScalingShiftFact, not single-trial profile facts. The problem codes
// MetricRegression, MissingEvent and ScalingRegression fail a perf gate
// (analysis::regression_problem — the `pkx diff` exit-3 contract).
rule "Metric Regression"
salience 10
when
  n : NoiseBandFact( b : band )
  d : MetricDeltaFact( direction == "regressed", m : metric, e : eventName,
                       r : normalizedRatio, w : ratio,
                       normalizedRatio > 1 + b,
                       bv : baseValue, cv : currentValue,
                       bt : baseTrial, ct : currentTrial,
                       f : runtimeFraction )
then
  print("Regression: " + e + " {" + m + "} " + r + "x normalized (" +
        w + "x raw) between " + bt + " and " + ct)
  diagnose(problem = "MetricRegression", event = e, metric = m,
           severity = f,
           message = m + " regressed " + r + "x (normalized; raw " + w +
                     "x) between " + bt + " and " + ct + " in " + e,
           recommendation = "Bisect the change between " + bt + " and " +
                            ct + ": " + e + " went from " + bv + " to " +
                            cv)
end

rule "Metric Improvement"
when
  n : NoiseBandFact( b : band )
  d : MetricDeltaFact( direction == "improved", m : metric, e : eventName,
                       r : normalizedRatio,
                       bt : baseTrial, ct : currentTrial,
                       f : runtimeFraction )
then
  print("Improvement: " + e + " {" + m + "} " + r +
        "x normalized between " + bt + " and " + ct)
  diagnose(problem = "MetricImprovement", event = e, metric = m,
           severity = f,
           message = m + " improved to " + r +
                     "x (normalized) between " + bt + " and " + ct +
                     " in " + e,
           recommendation = "Pin the gain: record " + ct +
                           " as the new baseline for " + e)
end

rule "Benchmark Disappeared"
salience 5
when
  p : EventPresenceFact( presence == "removed", e : eventName,
                         bt : baseTrial, ct : currentTrial,
                         f : runtimeFraction )
then
  print("Missing event: " + e + " present in " + bt +
        " but absent from " + ct)
  diagnose(problem = "MissingEvent", event = e, severity = 1,
           message = e + " was " + f + " of " + bt +
                     " runtime but is absent from " + ct,
           recommendation = "Restore the benchmark or retire it from the baseline deliberately")
end

rule "New Event Appeared"
when
  p : EventPresenceFact( presence == "added", e : eventName,
                         bt : baseTrial, ct : currentTrial,
                         f : runtimeFraction )
then
  print("New event: " + e + " appears in " + ct +
        " with no counterpart in " + bt)
  diagnose(problem = "NewEvent", event = e, severity = f,
           message = e + " is new in " + ct + " (" + f +
                     " of its runtime); no baseline to compare",
           recommendation = "Record " + ct +
                           " as the first baseline for " + e)
end

rule "Within Noise Band"
when
  s : DiffSummaryFact( regressedCells == 0, missingEvents == 0,
                       comparedCells > 0, c : comparedCells,
                       bt : baseTrial, ct : currentTrial )
  n : NoiseBandFact( b : band )
then
  print("No regression: all " + c + " compared cells within the " + b +
        " noise band between " + bt + " and " + ct)
  diagnose(problem = "WithinNoiseBand", event = bt + " .. " + ct,
           severity = 0,
           message = "all " + c + " compared cells are within the " + b +
                     " noise band",
           recommendation = "No action needed")
end

rule "Scaling Regression"
salience 8
when
  f : ScalingShiftFact( efficiencyShift < -0.1, runtimeFraction > 0.05,
                        e : eventName, s : efficiencyShift,
                        be : baseEfficiency, ce : currentEfficiency )
then
  print("Scaling regression: " + e + " efficiency " + be + " -> " + ce)
  diagnose(problem = "ScalingRegression", event = e,
           severity = f.runtimeFraction,
           message = e + " scaling efficiency fell from " + be + " to " +
                     ce + " (" + s + ")",
           recommendation = "Profile " + e +
                           " at the largest thread count: new serialization or communication is limiting it")
end
)RULES";

constexpr std::string_view kRuleTuning = R"RULES(
// Rule-engine cost attribution: diagnoses the *rulebase itself* from the
// RuleProfileFact / JoinLevelFact facts asserted by
// rules::assert_profile_facts over a rules-profile trial
// (rules::profile_to_trial, `pkx rules-profile`). Not part of
// openuh_rules(): these rules consume engine profiler counters, not
// application profile facts. Probe/admission counts are per matching
// strategy (the profile trial records which), so thresholds describe
// the work the active matcher actually performed.
rule "Combinatorial Join Explosion"
salience 10
when
  j : JoinLevelFact( probes >= 500, h : hits, probes > h * 20,
                     r : ruleName, l : level, p : probes )
then
  print("Join explosion: rule '" + r + "' level " + l + " probed " + p +
        " combinations for " + h + " matches")
  diagnose(problem = "CombinatorialJoinExplosion", event = r,
           metric = "rules.probes", severity = 1,
           message = "pattern " + l + " of '" + r + "' probed " + p +
                     " token x fact combinations but matched only " + h +
                     ": the join has no selective equality key",
           recommendation = "Give pattern " + l + " of '" + r +
                           "' an equality constraint on a variable bound by an earlier pattern so the join can be hashed instead of cross-multiplied")
end

rule "Dead Rule"
when
  x : RuleProfileFact( cycles >= 2, admissions >= 1, firings == 0,
                       r : ruleName, a : admissions, u : matchUsec )
then
  print("Dead rule: '" + r + "' admitted " + a + " facts but never fired")
  diagnose(problem = "DeadRule", event = r,
           metric = "rules.firings", severity = 0.5,
           message = "'" + r + "' admitted " + a +
                     " facts past its pattern tests and spent " + u +
                     " usec matching, but produced no firing",
           recommendation = "Tighten or retire '" + r +
                           "': its alpha tests pass but the join never completes, so it only costs match time")
end

rule "Low Selectivity Anchor"
when
  j : JoinLevelFact( level == 0, w : wmSize, a : admissions,
                     admissions >= 8, admissions > w * 0.5,
                     r : ruleName )
then
  print("Low-selectivity anchor: rule '" + r + "' admits " + a + " of " +
        w + " facts at its first pattern")
  diagnose(problem = "LowSelectivityAnchor", event = r,
           metric = "rules.admissions", severity = a / w,
           message = "the first pattern of '" + r + "' admits " + a +
                     " of " + w +
                     " working-memory facts, so every later join starts from a near-full scan",
           recommendation = "Reorder the patterns of '" + r +
                           "' so the most selective one anchors the join")
end

rule "Dead Token Bloat"
when
  j : JoinLevelFact( deadTokens >= 64, t : liveTokens, d : deadTokens,
                     deadTokens > t, r : ruleName, l : level,
                     b : tokenBytes )
then
  print("Dead token bloat: rule '" + r + "' level " + l + " holds " + d +
        " dead vs " + t + " live tokens")
  diagnose(problem = "DeadTokenBloat", event = r,
           metric = "rules.dead_tokens", severity = 0.5,
           message = "level " + l + " of '" + r + "' holds " + d +
                     " retract-invalidated tokens against " + t +
                     " live ones (" + b + " bytes retained)",
           recommendation = "Batch retracts and let a process_rules cycle sweep between them, or assert the churning facts after the stable ones so fewer partial joins are built over them")
end
)RULES";

}  // namespace

std::string_view stalls_per_cycle() { return kStallsPerCycle; }
std::string_view load_imbalance() { return kLoadImbalance; }
std::string_view inefficiency() { return kInefficiency; }
std::string_view stall_coverage() { return kStallCoverage; }
std::string_view memory_locality() { return kMemoryLocality; }
std::string_view power() { return kPower; }
std::string_view communication() { return kCommunication; }
std::string_view instrumentation() { return kInstrumentation; }
std::string_view openmp() { return kOpenmp; }
std::string_view self_diagnosis() { return kSelfDiagnosis; }
std::string_view regression() { return kRegression; }
std::string_view rule_tuning() { return kRuleTuning; }

std::string openuh_rules() {
  std::string all;
  all += kStallsPerCycle;
  all += kLoadImbalance;
  all += kInefficiency;
  all += kStallCoverage;
  all += kMemoryLocality;
  all += kPower;
  all += kCommunication;
  all += kInstrumentation;
  all += kOpenmp;
  return all;
}

namespace {

// Origin label for provenance source locations: name the builtin when
// the source text is one of ours, so explanations read
// "builtin:openmp:12" instead of a bare line number.
std::string origin_for(std::string_view src) {
  static const std::pair<std::string_view, const char*> kKnown[] = {
      {kStallsPerCycle, "builtin:stalls_per_cycle"},
      {kLoadImbalance, "builtin:load_imbalance"},
      {kInefficiency, "builtin:inefficiency"},
      {kStallCoverage, "builtin:stall_coverage"},
      {kMemoryLocality, "builtin:memory_locality"},
      {kPower, "builtin:power"},
      {kCommunication, "builtin:communication"},
      {kInstrumentation, "builtin:instrumentation"},
      {kOpenmp, "builtin:openmp"},
      {kSelfDiagnosis, "builtin:self_diagnosis"},
      {kRegression, "builtin:regression"},
      {kRuleTuning, "builtin:rule_tuning"},
  };
  for (const auto& [text, label] : kKnown) {
    if (src == text) return label;
  }
  if (src == openuh_rules()) return "builtin:openuh";
  return "builtin";
}

}  // namespace

void use(RuleHarness& harness, std::string_view rulebase_source) {
  add_rules(harness, std::string(rulebase_source),
            origin_for(rulebase_source));
}

}  // namespace perfknow::rules::builtin

namespace perfknow::rules {

std::string resolve_rulebase(const std::string& name,
                             const std::filesystem::path& rules_path) {
  namespace rb = builtin;
  // The Fig. 1 name and friendly aliases map to the embedded rulebases.
  if (name == "openuh/OpenUHRules.drl" || name == "OpenUHRules.drl" ||
      name == "openuh") {
    return rb::openuh_rules();
  }
  if (name == "stalls_per_cycle") return std::string(rb::stalls_per_cycle());
  if (name == "load_imbalance") return std::string(rb::load_imbalance());
  if (name == "inefficiency") return std::string(rb::inefficiency());
  if (name == "stall_coverage") return std::string(rb::stall_coverage());
  if (name == "memory_locality") return std::string(rb::memory_locality());
  if (name == "power") return std::string(rb::power());
  if (name == "communication") return std::string(rb::communication());
  if (name == "instrumentation") return std::string(rb::instrumentation());
  if (name == "openmp") return std::string(rb::openmp());
  if (name == "self_diagnosis") return std::string(rb::self_diagnosis());
  if (name == "regression") return std::string(rb::regression());
  if (name == "rule_tuning") return std::string(rb::rule_tuning());
  const auto slurp = [](std::ifstream& is) {
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  if (!rules_path.empty()) {
    std::ifstream is(rules_path / name);
    if (is) return slurp(is);
  }
  std::ifstream is(name);
  if (!is) {
    throw NotFoundError("unknown rulebase '" + name +
                        "' (not a built-in name and not a readable file)");
  }
  return slurp(is);
}

}  // namespace perfknow::rules
