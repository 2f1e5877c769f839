#include "analysis/diff.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "analysis/operations.hpp"
#include "common/error.hpp"
#include "provenance/lineage.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::analysis {

namespace {

/// Stable rounding for the ratio fields so fact values (and hence
/// explanation JSON) do not carry platform-dependent decimal tails.
double round4(double v) { return std::round(v * 1e4) / 1e4; }

/// The trial's events in name order, the first of each name only.
std::vector<profile::EventId> events_by_name(const profile::Trial& trial) {
  std::vector<profile::EventId> out(trial.event_count());
  std::iota(out.begin(), out.end(), profile::EventId{0});
  const auto name = [&trial](profile::EventId e) -> const std::string& {
    return trial.event(e).name;
  };
  std::stable_sort(out.begin(), out.end(),
                   [&](auto a, auto b) { return name(a) < name(b); });
  out.erase(std::unique(out.begin(), out.end(),
                        [&](auto a, auto b) { return name(a) == name(b); }),
            out.end());
  return out;
}

/// Base and current events matched by name, built once per diff: the
/// base events in name order (the order facts are asserted in), each
/// with its current partner or none, and the current events the base
/// lacks, in name order.
struct EventPairing {
  struct Pair {
    profile::EventId base;
    std::optional<profile::EventId> current;
  };
  std::vector<Pair> base;
  std::vector<profile::EventId> added;
};

EventPairing pair_events(const profile::Trial& base,
                         const profile::Trial& current) {
  const auto b = events_by_name(base);
  const auto c = events_by_name(current);
  EventPairing out;
  out.base.reserve(b.size());
  std::size_t j = 0;
  for (const profile::EventId be : b) {
    const std::string& name = base.event(be).name;
    for (; j < c.size() && current.event(c[j]).name < name; ++j) {
      out.added.push_back(c[j]);
    }
    if (j < c.size() && current.event(c[j]).name == name) {
      out.base.push_back({be, c[j++]});
    } else {
      out.base.push_back({be, std::nullopt});
    }
  }
  out.added.insert(out.added.end(), c.begin() + static_cast<std::ptrdiff_t>(j),
                   c.end());
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

  const EventPairing events = pair_events(base, current);
  const auto delta = harness.schema(
      "MetricDeltaFact",
      {"metric", "eventName", "baseValue", "currentValue", "delta", "ratio",
       "normalizedRatio", "direction", "runtimeFraction", "baseTrial",
       "currentTrial"});
  const auto trial_delta = harness.schema(
      "TrialDeltaFact",
      {"metric", "baseTotal", "currentTotal", "totalRatio", "geomeanRatio",
       "sharedEvents", "baseTrial", "currentTrial"});
  const auto presence = harness.schema(
      "EventPresenceFact", {"eventName", "presence", "runtimeFraction",
                            "baseTrial", "currentTrial"});

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
      profile::EventId current_event;
      double base_value;
      double current_value;
    };
    std::vector<Cell> cells;
    double base_total = 0.0;
    double current_total = 0.0;
    double log_sum = 0.0;
    for (const auto& [be, ce] : events.base) {
      if (!ce) continue;
      const double bv = base.mean_exclusive(be, bm);
      const double cv = current.mean_exclusive(*ce, cm);
      if (bv <= 0.0 || cv <= 0.0) {
        ++summary.skipped_cells;
        continue;
      }
      cells.push_back(Cell{&base.event(be).name, *ce, bv, cv});
      base_total += bv;
      current_total += cv;
      log_sum += std::log(cv / bv);
    }
    const double geomean =
        cells.empty() ? 1.0
                      : std::exp(log_sum / static_cast<double>(cells.size()));

    const RuntimeFraction current_fraction(current, metric);
    for (const auto& cell : cells) {
      const double ratio = cell.current_value / cell.base_value;
      const double nr = round4(ratio / geomean);
      const double fraction = current_fraction(cell.current_event);
      const char* direction = "same";
      if (nr > 1.0 + options.noise_band) {
        direction = "regressed";
        ++summary.regressed_cells;
      } else if (nr < 1.0 - options.noise_band) {
        direction = "improved";
        ++summary.improved_cells;
      }
      if (nr > max_nr) max_nr = nr;
      if (nr < min_nr) min_nr = nr;
      harness.emit(delta)
          .str("metric", metric)
          .str("eventName", *cell.event)
          .num("baseValue", cell.base_value)
          .num("currentValue", cell.current_value)
          .num("delta", cell.current_value - cell.base_value)
          .num("ratio", round4(ratio))
          .num("normalizedRatio", nr)
          .str("direction", direction)
          .num("runtimeFraction", fraction)
          .str("baseTrial", base.name())
          .str("currentTrial", current.name())
          .commit();
      ++summary.compared_cells;
      ++summary.facts;
    }

    harness.emit(trial_delta)
        .str("metric", metric)
        .num("baseTotal", base_total)
        .num("currentTotal", current_total)
        .num("totalRatio",
             base_total == 0.0 ? 0.0 : round4(current_total / base_total))
        .num("geomeanRatio", round4(geomean))
        .num("sharedEvents", static_cast<double>(cells.size()))
        .str("baseTrial", base.name())
        .str("currentTrial", current.name())
        .commit();
    ++summary.facts;
  }

  // Presence changes, judged against the first compared metric's
  // runtime share in the trial that still has the event.
  const std::string& fraction_metric = metrics.front();
  const RuntimeFraction base_fraction(base, fraction_metric);
  const RuntimeFraction added_fraction(current, fraction_metric);
  for (const auto& [be, ce] : events.base) {
    if (ce) continue;
    harness.emit(presence)
        .str("eventName", base.event(be).name)
        .str("presence", "removed")
        .num("runtimeFraction", base_fraction(be))
        .str("baseTrial", base.name())
        .str("currentTrial", current.name())
        .commit();
    ++summary.missing_events;
    ++summary.facts;
  }
  for (const profile::EventId ce : events.added) {
    harness.emit(presence)
        .str("eventName", current.event(ce).name)
        .str("presence", "added")
        .num("runtimeFraction", added_fraction(ce))
        .str("baseTrial", base.name())
        .str("currentTrial", current.name())
        .commit();
    ++summary.added_events;
    ++summary.facts;
  }

  harness.emit(harness.schema("NoiseBandFact", {"band"}))
      .num("band", options.noise_band)
      .commit();
  ++summary.facts;

  harness
      .emit(harness.schema(
          "DiffSummaryFact",
          {"comparedCells", "regressedCells", "improvedCells", "skippedCells",
           "missingEvents", "addedEvents", "maxNormalizedRatio",
           "minNormalizedRatio", "baseTrial", "currentTrial"}))
      .num("comparedCells", static_cast<double>(summary.compared_cells))
      .num("regressedCells", static_cast<double>(summary.regressed_cells))
      .num("improvedCells", static_cast<double>(summary.improved_cells))
      .num("skippedCells", static_cast<double>(summary.skipped_cells))
      .num("missingEvents", static_cast<double>(summary.missing_events))
      .num("addedEvents", static_cast<double>(summary.added_events))
      .num("maxNormalizedRatio", max_nr)
      .num("minNormalizedRatio", min_nr)
      .str("baseTrial", base.name())
      .str("currentTrial", current.name())
      .commit();
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
  const auto shift = harness.schema(
      "ScalingShiftFact",
      {"eventName", "baseEfficiency", "currentEfficiency", "efficiencyShift",
       "baseSpeedup", "currentSpeedup", "runtimeFraction"});
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
    harness.emit(shift)
        .str("eventName", event)
        .num("baseEfficiency", round4(base_eff))
        .num("currentEfficiency", round4(current_eff))
        .num("efficiencyShift", round4(current_eff - base_eff))
        .num("baseSpeedup", round4(base_speedup))
        .num("currentSpeedup", round4(current_speedup))
        .num("runtimeFraction", fraction)
        .commit();
    ++n;
  }
  return n;
}

bool regression_problem(const std::string& problem) {
  return problem == "MetricRegression" || problem == "MissingEvent" ||
         problem == "ScalingRegression";
}

}  // namespace perfknow::analysis
