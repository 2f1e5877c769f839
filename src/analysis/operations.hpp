// PerfExplorer-style analysis operations over parallel profiles.
//
// These are the data-mining primitives the paper's scripts compose:
// derived metrics (Fig. 1 derives BACK_END_BUBBLE_ALL / CPU_CYCLES),
// per-event statistics across threads, correlation between events,
// top-N selection, trial differencing (CUBE's "performance algebra"),
// and multi-trial scalability analysis (speedup / relative efficiency,
// per event and total) for parametric studies.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "perfdmf/repository.hpp"
#include "profile/profile.hpp"

namespace perfknow::analysis {

enum class DeriveOp { kAdd, kSubtract, kMultiply, kDivide };

[[nodiscard]] std::string_view to_string(DeriveOp op);

/// Adds the derived metric "(A <op> B)" to `trial`, computed per
/// (thread, event) on inclusive and exclusive values independently.
/// Division by zero yields 0 (an event with no cycles has no rate).
/// Returns the new metric's id; idempotent for the same name.
profile::MetricId derive_metric(profile::Trial& trial,
                                const std::string& metric_a,
                                const std::string& metric_b, DeriveOp op);

/// Adds "(A * k)" style scaled metric; returns its id.
profile::MetricId scale_metric(profile::Trial& trial,
                               const std::string& metric, double factor,
                               const std::string& new_name);

/// Across-thread statistics of one event's metric values.
struct EventStatistics {
  profile::EventId event = 0;
  std::string name;
  double mean = 0.0;
  double stddev = 0.0;
  double cv = 0.0;  ///< stddev / mean — the load-balance indicator
  double min = 0.0;
  double max = 0.0;
  double total = 0.0;
};

/// Per-event statistics (exclusive values by default — "where is time
/// actually spent"; inclusive available for callpath roots).
[[nodiscard]] std::vector<EventStatistics> basic_statistics(
    const profile::Trial& trial, const std::string& metric,
    bool exclusive = true);

[[nodiscard]] EventStatistics event_statistics(const profile::Trial& trial,
                                               profile::EventId event,
                                               const std::string& metric,
                                               bool exclusive = true);

/// Pearson correlation of two events' per-thread values. The MSAP rule
/// uses this: inner-loop work time and outer-loop barrier time correlate
/// strongly negatively when the imbalance bounces between them.
[[nodiscard]] double correlate_events(const profile::Trial& trial,
                                      profile::EventId a, profile::EventId b,
                                      const std::string& metric,
                                      bool exclusive = true);

/// Top-n events by mean exclusive value of `metric`, descending.
[[nodiscard]] std::vector<EventStatistics> top_events(
    const profile::Trial& trial, const std::string& metric, std::size_t n);

/// Fraction of total runtime (mean inclusive TIME of the main event)
/// spent in `event` (mean exclusive). Returns 0 when main has no time.
[[nodiscard]] double runtime_fraction(const profile::Trial& trial,
                                      profile::EventId event,
                                      const std::string& metric = "TIME");

/// runtime_fraction for many events of one trial and metric: the main
/// event and its total are resolved once, at construction, since
/// main_event() may scan every event. The trial must outlive it.
class RuntimeFraction {
 public:
  RuntimeFraction(const profile::Trial& trial, const std::string& metric);
  [[nodiscard]] double operator()(profile::EventId event) const;

 private:
  const profile::Trial* trial_;
  profile::MetricId metric_ = 0;
  double main_total_ = 0.0;
};

/// Performance algebra: per-event difference of mean exclusive values
/// (trial_b - trial_a), matched by event name. Events present in only
/// one trial appear with the other side treated as 0.
[[nodiscard]] std::map<std::string, double> difference(
    const profile::Trial& trial_a, const profile::Trial& trial_b,
    const std::string& metric);

/// Performance algebra (CUBE-style merge): a trial whose event set is the
/// union of the inputs' and whose values are the element-wise mean of the
/// matching (thread, event, metric) cells over the metrics common to
/// both. Thread counts must match; throws otherwise. Useful for merging
/// repeated runs of the same configuration.
[[nodiscard]] profile::Trial merge_trials(const profile::Trial& trial_a,
                                          const profile::Trial& trial_b);

/// Performance algebra (CUBE-style aggregation): collapses the thread
/// dimension into a single row holding, per (event, metric), either the
/// sum or the mean over threads (calls likewise).
[[nodiscard]] profile::Trial aggregate_threads(const profile::Trial& trial,
                                               bool mean = false);

/// One point of a scalability study.
struct ScalingPoint {
  std::size_t threads = 0;
  double total_time = 0.0;                     ///< mean incl. of main
  std::map<std::string, double> event_times;   ///< mean excl. per event
};

/// Scalability analysis over trials of one parametric experiment.
/// Trials are ordered by thread count; the smallest is the baseline.
class ScalabilityAnalysis {
 public:
  /// `metric` is typically TIME. Throws when fewer than 2 trials.
  ScalabilityAnalysis(std::vector<perfdmf::TrialPtr> trials,
                      std::string metric = "TIME");

  [[nodiscard]] const std::vector<ScalingPoint>& points() const noexcept {
    return points_;
  }

  /// Total speedup vs the baseline trial, per point.
  [[nodiscard]] std::vector<double> total_speedup() const;
  /// Relative efficiency: speedup / (threads / baseline_threads).
  [[nodiscard]] std::vector<double> relative_efficiency() const;
  /// Per-event speedup series for one event name (inclusive of only the
  /// trials that contain the event).
  [[nodiscard]] std::vector<double> event_speedup(
      const std::string& event) const;
  /// Event names present in the baseline trial, by descending baseline
  /// exclusive time.
  [[nodiscard]] std::vector<std::string> events_by_baseline_cost() const;

 private:
  std::vector<ScalingPoint> points_;
  std::vector<std::string> baseline_order_;
};

}  // namespace perfknow::analysis
