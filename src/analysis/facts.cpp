#include "analysis/facts.hpp"

#include "analysis/operations.hpp"
#include "common/stats.hpp"
#include "provenance/lineage.hpp"

namespace perfknow::analysis {

namespace {

/// Share of total runtime: prefer TIME when present so severity always
/// means "fraction of wall time", as in the paper's 10 % threshold.
RuntimeFraction severity_of(const profile::Trial& trial) {
  return RuntimeFraction(
      trial, trial.find_metric("TIME") ? "TIME" : trial.metric(0).name);
}

/// MeanEventFact's one definition: declares its schema in `sink` (a
/// RuleHarness, or compare_event_to_main's scratch WorkingMemory) and
/// returns the writer behind compare-to-main, compare-to-average and
/// compare_event_to_main. The writer returns the committed fact's id.
auto mean_event_writer(auto& sink) {
  return [&sink,
          schema = sink.schema(
              "MeanEventFact",
              {"factType", "metric", "eventName", "mainValue", "eventValue",
               "higherLower", "severity"})](
             const char* fact_type, const std::string& metric,
             const std::string& event, double reference, double value,
             double severity) {
    const char* rel = "same";
    if (value > reference) rel = "higher";
    else if (value < reference) rel = "lower";
    return sink.emit(schema)
        .str("factType", fact_type)
        .str("metric", metric)
        .str("eventName", event)
        .num("mainValue", reference)
        .num("eventValue", value)
        .str("higherLower", rel)
        .num("severity", severity)
        .commit();
  };
}

/// Metric-lineage chains for the provenance origin label — computed
/// only under kFull so the default path never touches metadata.
std::vector<std::string> chains_if_full(
    const rules::RuleHarness& harness, const profile::Trial& trial,
    std::initializer_list<std::string> metrics) {
  std::vector<std::string> out;
  if (harness.provenance_mode() != provenance::ProvenanceMode::kFull) {
    return out;
  }
  for (const auto& m : metrics) {
    auto chain = provenance::lineage_chain(trial, m);
    out.insert(out.end(), std::make_move_iterator(chain.begin()),
               std::make_move_iterator(chain.end()));
  }
  return out;
}

}  // namespace

rules::Fact compare_event_to_main(const profile::Trial& trial,
                                  const std::string& metric,
                                  profile::EventId event) {
  const auto m = trial.metric_id(metric);
  const double main_value = trial.mean_inclusive(trial.main_event(), m);
  // A per-thread scratch memory keeps its interned symbols and arena
  // chunks across calls, so building the fact costs one row.
  thread_local rules::WorkingMemory scratch;
  scratch.clear();
  const auto id = mean_event_writer(scratch)(
      "Compared to Main", metric, trial.event(event).name, main_value,
      trial.mean_exclusive(event, m), severity_of(trial)(event));
  return scratch.find(id).to_fact();
}

std::size_t assert_compare_to_average_facts(rules::RuleHarness& harness,
                                            const profile::Trial& trial,
                                            const std::string& metric) {
  const rules::ProvenanceSource src(
      harness,
      "assert_compare_to_average_facts(trial='" + trial.name() +
          "', metric='" + metric + "')",
      chains_if_full(harness, trial, {metric}));
  const auto m = trial.metric_id(metric);
  const auto main = trial.main_event();
  double total = 0.0;
  std::size_t counted = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    if (e == main) continue;
    total += trial.mean_exclusive(e, m);
    ++counted;
  }
  const double average =
      counted == 0 ? 0.0 : total / static_cast<double>(counted);
  const RuntimeFraction severity = severity_of(trial);
  const auto write = mean_event_writer(harness);

  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    if (e == main) continue;
    write("Compared to Average", metric, trial.event(e).name, average,
          trial.mean_exclusive(e, m), severity(e));
    ++n;
  }
  return n;
}

std::size_t assert_load_balance_facts(rules::RuleHarness& harness,
                                      const profile::Trial& trial,
                                      const std::string& metric) {
  const rules::ProvenanceSource src(
      harness,
      "assert_load_balance_facts(trial='" + trial.name() + "', metric='" +
          metric + "')",
      chains_if_full(harness, trial, {metric}));
  const RuntimeFraction fraction(trial, metric);
  const auto balance = harness.schema(
      "LoadBalanceFact", {"eventName", "cv", "runtimeFraction"});
  const auto nesting =
      harness.schema("NestingFact", {"parentEvent", "childEvent"});
  const auto correlation = harness.schema(
      "CorrelationFact", {"eventA", "eventB", "metric", "correlation"});
  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const auto s = event_statistics(trial, e, metric, /*exclusive=*/true);
    harness.emit(balance)
        .str("eventName", s.name)
        .num("cv", s.cv)
        .num("runtimeFraction", fraction(e))
        .commit();
    ++n;
  }
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    for (const auto c : trial.children_of(e)) {
      harness.emit(nesting)
          .str("parentEvent", trial.event(e).name)
          .str("childEvent", trial.event(c).name)
          .commit();
      ++n;
      if (trial.thread_count() >= 2) {
        harness.emit(correlation)
            .str("eventA", trial.event(e).name)
            .str("eventB", trial.event(c).name)
            .str("metric", metric)
            .num("correlation", correlate_events(trial, e, c, metric))
            .commit();
        ++n;
      }
    }
  }
  return n;
}

std::size_t assert_stall_facts(rules::RuleHarness& harness,
                               const profile::Trial& trial) {
  const rules::ProvenanceSource src(
      harness, "assert_stall_facts(trial='" + trial.name() + "')",
      chains_if_full(harness, trial,
                     {"BACK_END_BUBBLE_ALL", "CPU_CYCLES",
                      "L1D_STALL_CYCLES", "FP_STALL_CYCLES"}));
  const auto stalls = trial.metric_id("BACK_END_BUBBLE_ALL");
  const auto cycles = trial.metric_id("CPU_CYCLES");
  const auto mem = trial.metric_id("L1D_STALL_CYCLES");
  const auto fp = trial.metric_id("FP_STALL_CYCLES");
  const RuntimeFraction severity = severity_of(trial);
  const auto breakdown = harness.schema(
      "StallBreakdownFact",
      {"eventName", "stallsPerCycle", "memoryFpFraction", "runtimeFraction"});
  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const double st = trial.mean_exclusive(e, stalls);
    const double cy = trial.mean_exclusive(e, cycles);
    const double memfp =
        trial.mean_exclusive(e, mem) + trial.mean_exclusive(e, fp);
    harness.emit(breakdown)
        .str("eventName", trial.event(e).name)
        .num("stallsPerCycle", cy == 0.0 ? 0.0 : st / cy)
        .num("memoryFpFraction", st == 0.0 ? 0.0 : memfp / st)
        .num("runtimeFraction", severity(e))
        .commit();
    ++n;
  }
  return n;
}

std::size_t assert_memory_locality_facts(rules::RuleHarness& harness,
                                         const profile::Trial& trial) {
  const rules::ProvenanceSource src(
      harness, "assert_memory_locality_facts(trial='" + trial.name() + "')",
      chains_if_full(harness, trial,
                     {"L3_MISSES", "REMOTE_MEMORY_ACCESSES",
                      "LOCAL_MEMORY_ACCESSES"}));
  const auto l3 = trial.metric_id("L3_MISSES");
  const auto remote = trial.metric_id("REMOTE_MEMORY_ACCESSES");
  const auto local = trial.metric_id("LOCAL_MEMORY_ACCESSES");

  // Application-mean local/remote ratio, for "worse than average" rules.
  double total_local = 0.0;
  double total_remote = 0.0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    total_local += trial.mean_exclusive(e, local);
    total_remote += trial.mean_exclusive(e, remote);
  }
  const double app_ratio =
      total_remote == 0.0 ? total_local : total_local / total_remote;
  const RuntimeFraction severity = severity_of(trial);
  const auto locality = harness.schema(
      "MemoryLocalityFact",
      {"eventName", "l3Misses", "remoteRatio", "localToRemote",
       "appLocalToRemote", "belowAppAverage", "runtimeFraction"});

  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const double l3m = trial.mean_exclusive(e, l3);
    const double rem = trial.mean_exclusive(e, remote);
    const double loc = trial.mean_exclusive(e, local);
    const double local_to_remote = rem == 0.0 ? loc : loc / rem;
    harness.emit(locality)
        .str("eventName", trial.event(e).name)
        .num("l3Misses", l3m)
        .num("remoteRatio", l3m == 0.0 ? 0.0 : rem / l3m)
        .num("localToRemote", local_to_remote)
        .num("appLocalToRemote", app_ratio)
        .flag("belowAppAverage", local_to_remote < app_ratio)
        .num("runtimeFraction", severity(e))
        .commit();
    ++n;
  }
  return n;
}

std::size_t assert_scaling_facts(rules::RuleHarness& harness,
                                 const ScalabilityAnalysis& analysis) {
  const auto& points = analysis.points();
  const auto& base = points.front();
  const auto& last = points.back();
  const rules::ProvenanceSource src(
      harness, "assert_scaling_facts(threads=" +
                   std::to_string(base.threads) + ".." +
                   std::to_string(last.threads) + ")");
  const double ideal = static_cast<double>(last.threads) /
                       static_cast<double>(base.threads);
  const auto scaling = harness.schema(
      "ScalingFact", {"eventName", "speedup", "idealSpeedup", "efficiency",
                      "runtimeFraction"});
  std::size_t n = 0;
  for (const auto& event : analysis.events_by_baseline_cost()) {
    const auto speedups = analysis.event_speedup(event);
    const double speedup = speedups.back();
    const auto it = last.event_times.find(event);
    const double frac =
        (it == last.event_times.end() || last.total_time == 0.0)
            ? 0.0
            : it->second / last.total_time;
    harness.emit(scaling)
        .str("eventName", event)
        .num("speedup", speedup)
        .num("idealSpeedup", ideal)
        .num("efficiency", ideal == 0.0 ? 0.0 : speedup / ideal)
        .num("runtimeFraction", frac)
        .commit();
    ++n;
  }
  return n;
}

}  // namespace perfknow::analysis
