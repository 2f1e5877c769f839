#include "telemetry/self_analysis.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "rules/fact.hpp"

namespace perfknow::telemetry {

namespace {

double counter_value(const profile::Trial& trial, profile::EventId root,
                     std::string_view name) {
  const auto m = trial.find_metric(name);
  if (!m) return 0.0;
  return trial.inclusive(0, root, *m);
}

}  // namespace

std::size_t assert_self_facts(rules::RuleHarness& harness,
                              const profile::Trial& trial) {
  const auto root = trial.find_event("perfknow");
  if (!root) {
    throw InvalidArgumentError(
        "assert_self_facts: trial '" + trial.name() +
        "' has no 'perfknow' root event (not a telemetry export)");
  }
  const auto time_m = trial.find_metric("TIME");
  if (!time_m) {
    throw InvalidArgumentError(
        "assert_self_facts: trial '" + trial.name() +
        "' has no TIME metric (not a telemetry export)");
  }

  std::size_t asserted = 0;
  const rules::ProvenanceSource source(
      harness, "assert_self_facts(trial='" + trial.name() + "')");

  // Total instrumented time across threads: the root event's inclusive
  // TIME is the per-thread sum of exclusive span times (see to_trial).
  double total_us = 0.0;
  for (std::size_t th = 0; th < trial.thread_count(); ++th) {
    total_us += trial.inclusive(th, *root, *time_m);
  }

  // ---- span facts --------------------------------------------------------
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    if (e == *root) continue;
    double total = 0.0;
    double exclusive = 0.0;
    double calls = 0.0;
    std::vector<double> per_thread_excl;
    for (std::size_t th = 0; th < trial.thread_count(); ++th) {
      total += trial.inclusive(th, e, *time_m);
      const double x = trial.exclusive(th, e, *time_m);
      exclusive += x;
      const double c = trial.calls(th, e).calls;
      calls += c;
      if (c > 0.0) per_thread_excl.push_back(x);
    }
    const double cv =
        per_thread_excl.size() > 1
            ? stats::coefficient_of_variation(per_thread_excl)
            : 0.0;
    rules::Fact fact("TelemetrySpanFact");
    fact.set("name", trial.event(e).name);
    fact.set("totalUsec", total);
    fact.set("exclusiveUsec", exclusive);
    fact.set("calls", calls);
    fact.set("share", total_us > 0.0 ? exclusive / total_us : 0.0);
    fact.set("imbalanceCv", cv);
    harness.assert_fact(std::move(fact));
    ++asserted;
  }

  // ---- counter/histogram metric facts ------------------------------------
  for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
    const auto& metric = trial.metric(m);
    if (m == *time_m || metric.units != "count") continue;
    rules::Fact fact("TelemetryMetricFact");
    fact.set("name", metric.name);
    fact.set("value", trial.inclusive(0, *root, m));
    harness.assert_fact(std::move(fact));
    ++asserted;
  }

  // ---- derived cache rates ------------------------------------------------
  const double hits =
      counter_value(trial, *root, "perfdmf.repository.cache.hit");
  const double misses =
      counter_value(trial, *root, "perfdmf.repository.cache.miss");
  const double lookups = hits + misses;
  if (lookups > 0.0) {
    rules::Fact lf("TelemetryMetricFact");
    lf.set("name", "perfdmf.repository.cache.lookups");
    lf.set("value", lookups);
    harness.assert_fact(std::move(lf));
    rules::Fact rf("TelemetryMetricFact");
    rf.set("name", "perfdmf.repository.cache.hit_rate");
    rf.set("value", hits / lookups);
    harness.assert_fact(std::move(rf));
    asserted += 2;
  }

  return asserted;
}

}  // namespace perfknow::telemetry
