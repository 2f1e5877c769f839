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

rules::Fact main_comparison(const profile::Trial& trial,
                            const std::string& metric, profile::MetricId m,
                            double main_value, profile::EventId event,
                            double severity) {
  const double event_value = trial.mean_exclusive(event, m);
  rules::Fact f("MeanEventFact");
  f.set("factType", "Compared to Main");
  f.set("metric", metric);
  f.set("eventName", trial.event(event).name);
  f.set("mainValue", main_value);
  f.set("eventValue", event_value);
  const char* rel = "same";
  if (event_value > main_value) rel = "higher";
  else if (event_value < main_value) rel = "lower";
  f.set("higherLower", rel);
  f.set("severity", severity);
  return f;
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
  return main_comparison(trial, metric, m, main_value, event,
                         severity_of(trial)(event));
}

std::size_t assert_compare_to_main_facts(rules::RuleHarness& harness,
                                         const profile::Trial& trial,
                                         const std::string& metric) {
  const rules::ProvenanceSource src(
      harness,
      "assert_compare_to_main_facts(trial='" + trial.name() + "', metric='" +
          metric + "')",
      chains_if_full(harness, trial, {metric}));
  const auto main = trial.main_event();
  const auto m = trial.metric_id(metric);
  const double main_value = trial.mean_inclusive(main, m);
  const RuntimeFraction severity = severity_of(trial);
  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    if (e == main) continue;
    harness.assert_fact(
        main_comparison(trial, metric, m, main_value, e, severity(e)));
    ++n;
  }
  return n;
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

  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    if (e == main) continue;
    const double value = trial.mean_exclusive(e, m);
    rules::Fact f("MeanEventFact");
    f.set("factType", "Compared to Average");
    f.set("metric", metric);
    f.set("eventName", trial.event(e).name);
    f.set("mainValue", average);
    f.set("eventValue", value);
    const char* rel = "same";
    if (value > average) rel = "higher";
    else if (value < average) rel = "lower";
    f.set("higherLower", rel);
    f.set("severity", severity(e));
    harness.assert_fact(std::move(f));
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
  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const auto s = event_statistics(trial, e, metric, /*exclusive=*/true);
    rules::Fact f("LoadBalanceFact");
    f.set("eventName", s.name);
    f.set("cv", s.cv);
    f.set("runtimeFraction", fraction(e));
    harness.assert_fact(std::move(f));
    ++n;
  }
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    for (const auto c : trial.children_of(e)) {
      rules::Fact nest("NestingFact");
      nest.set("parentEvent", trial.event(e).name);
      nest.set("childEvent", trial.event(c).name);
      harness.assert_fact(std::move(nest));
      ++n;
      if (trial.thread_count() >= 2) {
        rules::Fact corr("CorrelationFact");
        corr.set("eventA", trial.event(e).name);
        corr.set("eventB", trial.event(c).name);
        corr.set("metric", metric);
        corr.set("correlation", correlate_events(trial, e, c, metric));
        harness.assert_fact(std::move(corr));
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
  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const double st = trial.mean_exclusive(e, stalls);
    const double cy = trial.mean_exclusive(e, cycles);
    const double memfp =
        trial.mean_exclusive(e, mem) + trial.mean_exclusive(e, fp);
    rules::Fact f("StallBreakdownFact");
    f.set("eventName", trial.event(e).name);
    f.set("stallsPerCycle", cy == 0.0 ? 0.0 : st / cy);
    f.set("memoryFpFraction", st == 0.0 ? 0.0 : memfp / st);
    f.set("runtimeFraction", severity(e));
    harness.assert_fact(std::move(f));
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

  std::size_t n = 0;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const double l3m = trial.mean_exclusive(e, l3);
    const double rem = trial.mean_exclusive(e, remote);
    const double loc = trial.mean_exclusive(e, local);
    rules::Fact f("MemoryLocalityFact");
    f.set("eventName", trial.event(e).name);
    f.set("l3Misses", l3m);
    f.set("remoteRatio", l3m == 0.0 ? 0.0 : rem / l3m);
    const double local_to_remote = rem == 0.0 ? loc : loc / rem;
    f.set("localToRemote", local_to_remote);
    f.set("appLocalToRemote", app_ratio);
    f.set("belowAppAverage", local_to_remote < app_ratio);
    f.set("runtimeFraction", severity(e));
    harness.assert_fact(std::move(f));
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
  std::size_t n = 0;
  for (const auto& event : analysis.events_by_baseline_cost()) {
    const auto speedups = analysis.event_speedup(event);
    const double speedup = speedups.back();
    const auto it = last.event_times.find(event);
    const double frac =
        (it == last.event_times.end() || last.total_time == 0.0)
            ? 0.0
            : it->second / last.total_time;
    rules::Fact f("ScalingFact");
    f.set("eventName", event);
    f.set("speedup", speedup);
    f.set("idealSpeedup", ideal);
    f.set("efficiency", ideal == 0.0 ? 0.0 : speedup / ideal);
    f.set("runtimeFraction", frac);
    harness.assert_fact(std::move(f));
    ++n;
  }
  return n;
}

}  // namespace perfknow::analysis
