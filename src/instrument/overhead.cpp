#include "instrument/overhead.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace perfknow::instrument {

OverheadReport estimate_overhead(const profile::Trial& trial,
                                 double probe_cycles, double clock_ghz) {
  if (probe_cycles < 0.0 || clock_ghz <= 0.0) {
    throw InvalidArgumentError(
        "estimate_overhead: need probe_cycles >= 0 and clock > 0");
  }
  const auto cycles_metric = trial.find_metric("CPU_CYCLES");
  const auto time_metric = trial.find_metric("TIME");
  if (!cycles_metric && !time_metric) {
    throw NotFoundError(
        "estimate_overhead: trial has neither CPU_CYCLES nor TIME");
  }

  auto inclusive_cycles = [&](profile::EventId e) {
    double total = 0.0;
    for (std::size_t th = 0; th < trial.thread_count(); ++th) {
      if (cycles_metric) {
        total += trial.inclusive(th, e, *cycles_metric);
      } else {
        total += trial.inclusive(th, e, *time_metric) * clock_ghz * 1e3;
      }
    }
    return total;
  };

  OverheadReport report;
  double app_cycles = 0.0;
  if (trial.event_count() > 0) {
    app_cycles = inclusive_cycles(trial.main_event());
  }
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    OverheadEstimate est;
    est.event = trial.event(e).name;
    for (std::size_t th = 0; th < trial.thread_count(); ++th) {
      est.calls += trial.calls(th, e).calls;
    }
    est.probe_cycles = est.calls * probe_cycles;
    est.measured_cycles = inclusive_cycles(e);
    est.dilation = est.measured_cycles > 0.0
                       ? est.probe_cycles / est.measured_cycles
                       : (est.calls > 0.0 ? 1.0 : 0.0);
    report.total_probe_cycles += est.probe_cycles;
    report.per_event.push_back(std::move(est));
  }
  std::stable_sort(report.per_event.begin(), report.per_event.end(),
                   [](const OverheadEstimate& a, const OverheadEstimate& b) {
                     return a.dilation > b.dilation;
                   });
  report.app_overhead_fraction =
      app_cycles > 0.0 ? report.total_probe_cycles / app_cycles : 0.0;
  return report;
}

std::size_t assert_overhead_facts(rules::RuleHarness& harness,
                                  const OverheadReport& report) {
  const rules::ProvenanceSource source(harness, "assert_overhead_facts()");
  std::size_t n = 0;
  for (const auto& est : report.per_event) {
    rules::Fact f("OverheadFact");
    f.set("eventName", est.event);
    f.set("calls", est.calls);
    f.set("dilation", est.dilation);
    harness.assert_fact(std::move(f));
    ++n;
  }
  rules::Fact summary("OverheadSummaryFact");
  summary.set("appOverheadFraction", report.app_overhead_fraction);
  summary.set("totalProbeCycles", report.total_probe_cycles);
  harness.assert_fact(std::move(summary));
  return n + 1;
}

std::vector<std::string> throttle_candidates(const OverheadReport& report,
                                             double max_dilation) {
  std::vector<std::string> out;
  for (const auto& est : report.per_event) {
    if (est.dilation > max_dilation) out.push_back(est.event);
  }
  return out;
}

}  // namespace perfknow::instrument
