#include "analysis/diff.hpp"

#include <cmath>
#include <map>

#include "analysis/operations.hpp"
#include "common/error.hpp"
#include "provenance/lineage.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::analysis {

namespace {

/// Stable rounding for the ratio fields so fact values (and hence
/// explanation JSON) do not carry platform-dependent decimal tails.
double round4(double v) { return std::round(v * 1e4) / 1e4; }

std::map<std::string, profile::EventId> events_by_name(
    const profile::Trial& trial) {
  std::map<std::string, profile::EventId> out;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    out.emplace(trial.event(e).name, e);
  }
  return out;
}

/// Metric-lineage chains from BOTH trials, computed only under kFull so
/// the default path never touches metadata (same contract as facts.cpp).
std::vector<std::string> chains_if_full(
    const rules::RuleHarness& harness, const profile::Trial& base,
    const profile::Trial& current,
    const std::vector<std::string>& metrics) {
  std::vector<std::string> out;
  if (harness.provenance_mode() != provenance::ProvenanceMode::kFull) {
    return out;
  }
  for (const profile::Trial* trial : {&base, &current}) {
    for (const auto& m : metrics) {
      auto chain = provenance::lineage_chain(*trial, m);
      out.insert(out.end(), std::make_move_iterator(chain.begin()),
                 std::make_move_iterator(chain.end()));
    }
  }
  return out;
}

std::vector<std::string> shared_metrics(const profile::Trial& base,
                                        const profile::Trial& current,
                                        const DiffOptions& options) {
  std::vector<std::string> out;
  if (options.metrics.empty()) {
    for (profile::MetricId m = 0; m < base.metric_count(); ++m) {
      const std::string& name = base.metric(m).name;
      if (current.find_metric(name)) out.push_back(name);
    }
    if (out.empty()) {
      throw InvalidArgumentError("assert_diff_facts: trials '" +
                                 base.name() + "' and '" + current.name() +
                                 "' share no metric");
    }
  } else {
    for (const auto& name : options.metrics) {
      if (!base.find_metric(name) || !current.find_metric(name)) {
        throw InvalidArgumentError("assert_diff_facts: metric '" + name +
                                   "' is not present in both trials");
      }
      out.push_back(name);
    }
  }
  return out;
}

}  // namespace

void DiffOptions::validate() const {
  if (!std::isfinite(noise_band) || noise_band <= 0.0) {
    throw InvalidArgumentError(
        "DiffOptions.noise_band: must be a positive finite fraction "
        "(a band <= 0 would classify every cell as both regressed and "
        "improved)");
  }
  if (!std::isfinite(min_fraction) || min_fraction < 0.0 ||
      min_fraction > 1.0) {
    throw InvalidArgumentError(
        "DiffOptions.min_fraction: must be a finite fraction in [0, 1]");
  }
}

DiffSummary assert_diff_facts(rules::RuleHarness& harness,
                              const profile::Trial& base,
                              const profile::Trial& current,
                              const DiffOptions& options) {
  static const telemetry::SpanSite site("analysis.diff");
  telemetry::ScopedSpan span(site);
  options.validate();

  const std::vector<std::string> metrics =
      shared_metrics(base, current, options);
  const rules::ProvenanceSource src(
      harness,
      "assert_diff_facts(base='" + base.name() + "', current='" +
          current.name() + "')",
      chains_if_full(harness, base, current, metrics));

  const auto base_events = events_by_name(base);
  const auto current_events = events_by_name(current);

  DiffSummary summary;
  double max_nr = 1.0;
  double min_nr = 1.0;

  for (const auto& metric : metrics) {
    const auto bm = base.metric_id(metric);
    const auto cm = current.metric_id(metric);

    // First pass: shared positive cells and the per-metric geomean of
    // their ratios. Dividing each ratio by the geomean is exactly the
    // normalization the historical Python gate applied (ratio relative
    // to the typical ratio), so a uniformly slower machine cancels out.
    struct Cell {
      const std::string* event;
      double base_value;
      double current_value;
    };
    std::vector<Cell> cells;
    double base_total = 0.0;
    double current_total = 0.0;
    double log_sum = 0.0;
    for (const auto& [name, be] : base_events) {
      const auto ce = current_events.find(name);
      if (ce == current_events.end()) continue;
      const double bv = base.mean_exclusive(be, bm);
      const double cv = current.mean_exclusive(ce->second, cm);
      if (bv <= 0.0 || cv <= 0.0) {
        ++summary.skipped_cells;
        continue;
      }
      cells.push_back(Cell{&name, bv, cv});
      base_total += bv;
      current_total += cv;
      log_sum += std::log(cv / bv);
    }
    const double geomean =
        options.normalize && !cells.empty()
            ? std::exp(log_sum / static_cast<double>(cells.size()))
            : 1.0;

    const RuntimeFraction current_fraction(current, metric);
    for (const auto& cell : cells) {
      const double ratio = cell.current_value / cell.base_value;
      const double nr = round4(ratio / geomean);
      const double fraction =
          current_fraction(current_events.at(*cell.event));
      const char* direction = "same";
      if (fraction >= options.min_fraction) {
        if (nr > 1.0 + options.noise_band) {
          direction = "regressed";
          ++summary.regressed_cells;
        } else if (nr < 1.0 - options.noise_band) {
          direction = "improved";
          ++summary.improved_cells;
        }
      }
      if (nr > max_nr) max_nr = nr;
      if (nr < min_nr) min_nr = nr;
      rules::Fact f("MetricDeltaFact");
      f.set("metric", metric);
      f.set("eventName", *cell.event);
      f.set("baseValue", cell.base_value);
      f.set("currentValue", cell.current_value);
      f.set("delta", cell.current_value - cell.base_value);
      f.set("ratio", round4(ratio));
      f.set("normalizedRatio", nr);
      f.set("direction", direction);
      f.set("runtimeFraction", fraction);
      f.set("baseTrial", base.name());
      f.set("currentTrial", current.name());
      harness.assert_fact(std::move(f));
      ++summary.compared_cells;
      ++summary.facts;
    }

    rules::Fact t("TrialDeltaFact");
    t.set("metric", metric);
    t.set("baseTotal", base_total);
    t.set("currentTotal", current_total);
    t.set("totalRatio",
          base_total == 0.0 ? 0.0 : round4(current_total / base_total));
    t.set("geomeanRatio", round4(geomean));
    t.set("sharedEvents", static_cast<double>(cells.size()));
    t.set("baseTrial", base.name());
    t.set("currentTrial", current.name());
    harness.assert_fact(std::move(t));
    ++summary.facts;
  }

  // Presence changes, judged against the first compared metric's
  // runtime share in the trial that still has the event.
  const std::string& fraction_metric = metrics.front();
  const RuntimeFraction base_fraction(base, fraction_metric);
  const RuntimeFraction added_fraction(current, fraction_metric);
  for (const auto& [name, be] : base_events) {
    if (current_events.count(name) != 0) continue;
    rules::Fact f("EventPresenceFact");
    f.set("eventName", name);
    f.set("presence", "removed");
    f.set("runtimeFraction", base_fraction(be));
    f.set("baseTrial", base.name());
    f.set("currentTrial", current.name());
    harness.assert_fact(std::move(f));
    ++summary.missing_events;
    ++summary.facts;
  }
  for (const auto& [name, ce] : current_events) {
    if (base_events.count(name) != 0) continue;
    rules::Fact f("EventPresenceFact");
    f.set("eventName", name);
    f.set("presence", "added");
    f.set("runtimeFraction", added_fraction(ce));
    f.set("baseTrial", base.name());
    f.set("currentTrial", current.name());
    harness.assert_fact(std::move(f));
    ++summary.added_events;
    ++summary.facts;
  }

  rules::Fact band("NoiseBandFact");
  band.set("band", options.noise_band);
  harness.assert_fact(std::move(band));
  ++summary.facts;

  rules::Fact s("DiffSummaryFact");
  s.set("comparedCells", static_cast<double>(summary.compared_cells));
  s.set("regressedCells", static_cast<double>(summary.regressed_cells));
  s.set("improvedCells", static_cast<double>(summary.improved_cells));
  s.set("skippedCells", static_cast<double>(summary.skipped_cells));
  s.set("missingEvents", static_cast<double>(summary.missing_events));
  s.set("addedEvents", static_cast<double>(summary.added_events));
  s.set("maxNormalizedRatio", max_nr);
  s.set("minNormalizedRatio", min_nr);
  s.set("baseTrial", base.name());
  s.set("currentTrial", current.name());
  harness.assert_fact(std::move(s));
  ++summary.facts;

  return summary;
}

std::size_t assert_scaling_shift_facts(rules::RuleHarness& harness,
                                       const ScalabilityAnalysis& base,
                                       const ScalabilityAnalysis& current) {
  const auto& bp = base.points();
  const auto& cp = current.points();
  const rules::ProvenanceSource src(
      harness, "assert_scaling_shift_facts(base_threads=" +
                   std::to_string(bp.front().threads) + ".." +
                   std::to_string(bp.back().threads) +
                   ", current_threads=" +
                   std::to_string(cp.front().threads) + ".." +
                   std::to_string(cp.back().threads) + ")");
  const double base_ideal = static_cast<double>(bp.back().threads) /
                            static_cast<double>(bp.front().threads);
  const double current_ideal = static_cast<double>(cp.back().threads) /
                               static_cast<double>(cp.front().threads);
  std::size_t n = 0;
  const auto current_names = current.events_by_baseline_cost();
  for (const auto& event : base.events_by_baseline_cost()) {
    bool in_current = false;
    for (const auto& name : current_names) {
      if (name == event) {
        in_current = true;
        break;
      }
    }
    if (!in_current) continue;
    const double base_speedup = base.event_speedup(event).back();
    const double current_speedup = current.event_speedup(event).back();
    const double base_eff =
        base_ideal == 0.0 ? 0.0 : base_speedup / base_ideal;
    const double current_eff =
        current_ideal == 0.0 ? 0.0 : current_speedup / current_ideal;
    const auto it = cp.back().event_times.find(event);
    const double fraction =
        (it == cp.back().event_times.end() || cp.back().total_time == 0.0)
            ? 0.0
            : it->second / cp.back().total_time;
    rules::Fact f("ScalingShiftFact");
    f.set("eventName", event);
    f.set("baseEfficiency", round4(base_eff));
    f.set("currentEfficiency", round4(current_eff));
    f.set("efficiencyShift", round4(current_eff - base_eff));
    f.set("baseSpeedup", round4(base_speedup));
    f.set("currentSpeedup", round4(current_speedup));
    f.set("runtimeFraction", fraction);
    harness.assert_fact(std::move(f));
    ++n;
  }
  return n;
}

bool regression_problem(const std::string& problem) {
  return problem == "MetricRegression" || problem == "MissingEvent" ||
         problem == "ScalingRegression";
}

}  // namespace perfknow::analysis
