#include "analysis/operations.hpp"

#include <algorithm>

#include <cstdio>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "provenance/lineage.hpp"

namespace perfknow::analysis {

namespace {

// Per-index work below this many cube cells is cheaper inline than
// through the pool. parallel_for runs ranges of <= grain indices inline,
// so tiny trials never pay scheduling overhead.
std::size_t grain_for(std::size_t cells_per_index) {
  constexpr std::size_t kInlineCells = 4096;
  return std::max<std::size_t>(1,
                               kInlineCells / std::max<std::size_t>(
                                   1, cells_per_index));
}

}  // namespace

std::string_view to_string(DeriveOp op) {
  switch (op) {
    case DeriveOp::kAdd: return "+";
    case DeriveOp::kSubtract: return "-";
    case DeriveOp::kMultiply: return "*";
    case DeriveOp::kDivide: return "/";
  }
  return "?";
}

namespace {

double apply(DeriveOp op, double a, double b) {
  switch (op) {
    case DeriveOp::kAdd: return a + b;
    case DeriveOp::kSubtract: return a - b;
    case DeriveOp::kMultiply: return a * b;
    case DeriveOp::kDivide: return b == 0.0 ? 0.0 : a / b;
  }
  return 0.0;
}

// Scale factors span 1e-6 (usec->sec) to large; %g keeps both readable
// in lineage stamps.
std::string format_factor(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

profile::MetricId derive_metric(profile::Trial& trial,
                                const std::string& metric_a,
                                const std::string& metric_b, DeriveOp op) {
  const auto a = trial.metric_id(metric_a);
  const auto b = trial.metric_id(metric_b);
  const std::string name = "(" + metric_a + " " +
                           std::string(to_string(op)) + " " + metric_b + ")";
  if (const auto existing = trial.find_metric(name)) return *existing;
  const auto d = trial.add_metric(name, "derived", /*derived=*/true);
  provenance::stamp(trial,
                    {name, "derive(" + std::string(to_string(op)) + ")",
                     {metric_a, metric_b}, trial.name()});
  // Threads write disjoint cube rows, and each row's computation is the
  // same serial loop as before — results are bit-identical to serial.
  ThreadPool::shared().parallel_for(
      trial.thread_count(),
      [&](std::size_t t) {
        for (profile::EventId e = 0; e < trial.event_count(); ++e) {
          trial.set_inclusive(
              t, e, d,
              apply(op, trial.inclusive(t, e, a), trial.inclusive(t, e, b)));
          trial.set_exclusive(
              t, e, d,
              apply(op, trial.exclusive(t, e, a), trial.exclusive(t, e, b)));
        }
      },
      grain_for(trial.event_count()));
  return d;
}

profile::MetricId scale_metric(profile::Trial& trial,
                               const std::string& metric, double factor,
                               const std::string& new_name) {
  const auto m = trial.metric_id(metric);
  if (const auto existing = trial.find_metric(new_name)) return *existing;
  const auto d = trial.add_metric(new_name, "derived", /*derived=*/true);
  provenance::stamp(trial,
                    {new_name, "scale(" + format_factor(factor) + ")",
                     {metric}, trial.name()});
  ThreadPool::shared().parallel_for(
      trial.thread_count(),
      [&](std::size_t t) {
        for (profile::EventId e = 0; e < trial.event_count(); ++e) {
          trial.set_inclusive(t, e, d, trial.inclusive(t, e, m) * factor);
          trial.set_exclusive(t, e, d, trial.exclusive(t, e, m) * factor);
        }
      },
      grain_for(trial.event_count()));
  return d;
}

EventStatistics event_statistics(const profile::Trial& trial,
                                 profile::EventId event,
                                 const std::string& metric, bool exclusive) {
  const auto m = trial.metric_id(metric);
  EventStatistics s;
  s.event = event;
  s.name = trial.event(event).name;
  if (trial.thread_count() == 0) return s;
  // stats::mean and stats::coefficient_of_variation are these same
  // expressions over the summary's total and stddev.
  const auto summary = trial.series_summary(event, m, exclusive);
  s.total = summary.total;
  s.mean = summary.total / static_cast<double>(trial.thread_count());
  s.stddev = summary.stddev;
  s.cv = s.mean == 0.0 ? 0.0 : summary.stddev / s.mean;
  s.min = summary.min;
  s.max = summary.max;
  return s;
}

std::vector<EventStatistics> basic_statistics(const profile::Trial& trial,
                                              const std::string& metric,
                                              bool exclusive) {
  // Resolve the metric up front so a bad name throws before any parallel
  // work starts (same behaviour as the serial loop's first iteration).
  (void)trial.metric_id(metric);
  std::vector<EventStatistics> out(trial.event_count());
  ThreadPool::shared().parallel_for(
      trial.event_count(),
      [&](std::size_t e) {
        out[e] = event_statistics(trial, static_cast<profile::EventId>(e),
                                  metric, exclusive);
      },
      grain_for(trial.thread_count()));
  return out;
}

double correlate_events(const profile::Trial& trial, profile::EventId a,
                        profile::EventId b, const std::string& metric,
                        bool exclusive) {
  const auto m = trial.metric_id(metric);
  const auto xs = exclusive ? trial.exclusive_series(a, m)
                            : trial.inclusive_series(a, m);
  const auto ys = exclusive ? trial.exclusive_series(b, m)
                            : trial.inclusive_series(b, m);
  if (xs.size() < 2) return 0.0;
  return stats::pearson_correlation(xs, ys);
}

std::vector<EventStatistics> top_events(const profile::Trial& trial,
                                        const std::string& metric,
                                        std::size_t n) {
  auto all = basic_statistics(trial, metric, /*exclusive=*/true);
  std::stable_sort(all.begin(), all.end(),
                   [](const EventStatistics& x, const EventStatistics& y) {
                     return x.mean > y.mean;
                   });
  if (all.size() > n) all.resize(n);
  return all;
}

RuntimeFraction::RuntimeFraction(const profile::Trial& trial,
                                 const std::string& metric)
    : trial_(&trial) {
  // An empty trial has no main event, and no event to ask about.
  if (trial.event_count() == 0) return;
  metric_ = trial.metric_id(metric);
  main_total_ = trial.mean_inclusive(trial.main_event(), metric_);
}

double RuntimeFraction::operator()(profile::EventId event) const {
  const double value = trial_->mean_exclusive(event, metric_);
  return main_total_ == 0.0 ? 0.0 : value / main_total_;
}

double runtime_fraction(const profile::Trial& trial, profile::EventId event,
                        const std::string& metric) {
  return RuntimeFraction(trial, metric)(event);
}

std::map<std::string, double> difference(const profile::Trial& trial_a,
                                         const profile::Trial& trial_b,
                                         const std::string& metric) {
  const auto ma = trial_a.metric_id(metric);
  const auto mb = trial_b.metric_id(metric);
  std::map<std::string, double> out;
  for (profile::EventId e = 0; e < trial_a.event_count(); ++e) {
    out[trial_a.event(e).name] = -trial_a.mean_exclusive(e, ma);
  }
  for (profile::EventId e = 0; e < trial_b.event_count(); ++e) {
    out[trial_b.event(e).name] += trial_b.mean_exclusive(e, mb);
  }
  return out;
}

profile::Trial merge_trials(const profile::Trial& trial_a,
                            const profile::Trial& trial_b) {
  if (trial_a.thread_count() != trial_b.thread_count()) {
    throw InvalidArgumentError(
        "merge_trials: thread counts differ (" +
        std::to_string(trial_a.thread_count()) + " vs " +
        std::to_string(trial_b.thread_count()) + ")");
  }
  profile::Trial out("merge(" + trial_a.name() + ", " + trial_b.name() +
                     ")");
  out.set_thread_count(trial_a.thread_count());
  out.set_metadata(provenance::kTrialKey, "merge of '" + trial_a.name() +
                                              "' and '" + trial_b.name() +
                                              "'");
  // Metrics common to both inputs, in trial_a order.
  std::vector<std::pair<profile::MetricId, profile::MetricId>> metric_map;
  for (profile::MetricId m = 0; m < trial_a.metric_count(); ++m) {
    const auto& name = trial_a.metric(m).name;
    if (const auto mb = trial_b.find_metric(name)) {
      const auto id = out.add_metric(name, trial_a.metric(m).units,
                                     trial_a.metric(m).derived);
      (void)id;
      metric_map.emplace_back(m, *mb);
    }
  }
  if (metric_map.empty()) {
    throw InvalidArgumentError("merge_trials: no common metrics");
  }

  // Shared events average the two inputs; events unique to one input
  // pass through unchanged.
  auto fold = [&](const profile::Trial& src, bool is_a) {
    for (profile::EventId e = 0; e < src.event_count(); ++e) {
      const auto& name = src.event(e).name;
      const bool shared = trial_a.find_event(name).has_value() &&
                          trial_b.find_event(name).has_value();
      const double w = shared ? 0.5 : 1.0;
      const auto oe = out.add_event(name, profile::kNoEvent,
                                    src.event(e).group);
      for (std::size_t th = 0; th < src.thread_count(); ++th) {
        for (std::size_t mi = 0; mi < metric_map.size(); ++mi) {
          const auto sm = is_a ? metric_map[mi].first : metric_map[mi].second;
          const auto om = static_cast<profile::MetricId>(mi);
          out.accumulate_inclusive(th, oe, om,
                                   w * src.inclusive(th, e, sm));
          out.accumulate_exclusive(th, oe, om,
                                   w * src.exclusive(th, e, sm));
        }
        const auto ci = src.calls(th, e);
        out.accumulate_calls(th, oe, w * ci.calls, w * ci.subcalls);
      }
    }
  };
  fold(trial_a, /*is_a=*/true);
  fold(trial_b, /*is_a=*/false);
  return out;
}

profile::Trial aggregate_threads(const profile::Trial& trial, bool mean) {
  profile::Trial out((mean ? "mean(" : "sum(") + trial.name() + ")");
  out.set_thread_count(1);
  for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
    out.add_metric(trial.metric(m).name, trial.metric(m).units,
                   trial.metric(m).derived);
  }
  const double scale =
      mean ? 1.0 / static_cast<double>(std::max<std::size_t>(
                 1, trial.thread_count()))
           : 1.0;
  // Schema mutation stays serial; the fold is parallel over events (each
  // event owns disjoint output cells) with the per-event thread loop kept
  // in original order, so the accumulated sums are bit-identical.
  std::vector<profile::EventId> out_event(trial.event_count());
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    out_event[e] = out.add_event(trial.event(e).name, trial.event(e).parent,
                                 trial.event(e).group);
  }
  ThreadPool::shared().parallel_for(
      trial.event_count(),
      [&](std::size_t e) {
        const auto oe = out_event[e];
        for (std::size_t th = 0; th < trial.thread_count(); ++th) {
          for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
            out.accumulate_inclusive(0, oe, m,
                                     scale * trial.inclusive(th, e, m));
            out.accumulate_exclusive(0, oe, m,
                                     scale * trial.exclusive(th, e, m));
          }
          const auto ci = trial.calls(th, e);
          out.accumulate_calls(0, oe, scale * ci.calls, scale * ci.subcalls);
        }
      },
      grain_for(trial.thread_count() * trial.metric_count()));
  for (const auto& [k, v] : trial.all_metadata()) {
    out.set_metadata(k, v);
  }
  out.set_metadata(provenance::kTrialKey,
                   std::string(mean ? "aggregate_threads(mean)"
                                    : "aggregate_threads(sum)") +
                       " of '" + trial.name() + "'");
  return out;
}

ScalabilityAnalysis::ScalabilityAnalysis(
    std::vector<perfdmf::TrialPtr> trials, std::string metric) {
  if (trials.size() < 2) {
    throw InvalidArgumentError(
        "ScalabilityAnalysis: need at least 2 trials");
  }
  std::sort(trials.begin(), trials.end(),
            [](const perfdmf::TrialPtr& a, const perfdmf::TrialPtr& b) {
              return a->thread_count() < b->thread_count();
            });
  // Each trial reduces independently into its own pre-sized slot; a
  // missing metric rethrows from the lowest-indexed trial, matching the
  // serial loop's failure order.
  points_.resize(trials.size());
  ThreadPool::shared().parallel_for(
      trials.size(),
      [&](std::size_t i) {
        const auto& t = trials[i];
        ScalingPoint p;
        p.threads = t->thread_count();
        const auto m = t->metric_id(metric);
        p.total_time = t->mean_inclusive(t->main_event(), m);
        for (profile::EventId e = 0; e < t->event_count(); ++e) {
          p.event_times[t->event(e).name] = t->mean_exclusive(e, m);
        }
        points_[i] = std::move(p);
      });
  // Baseline event ordering by cost.
  const auto& base = *trials.front();
  const auto m = base.metric_id(metric);
  std::vector<std::pair<double, std::string>> order;
  for (profile::EventId e = 0; e < base.event_count(); ++e) {
    order.emplace_back(base.mean_exclusive(e, m), base.event(e).name);
  }
  std::stable_sort(order.begin(), order.end(), [](const auto& a,
                                                  const auto& b) {
    return a.first > b.first;
  });
  for (auto& [_, name] : order) baseline_order_.push_back(std::move(name));
}

std::vector<double> ScalabilityAnalysis::total_speedup() const {
  std::vector<double> out;
  const double base = points_.front().total_time;
  for (const auto& p : points_) {
    out.push_back(p.total_time == 0.0 ? 0.0 : base / p.total_time);
  }
  return out;
}

std::vector<double> ScalabilityAnalysis::relative_efficiency() const {
  std::vector<double> out;
  const auto speedup = total_speedup();
  const double base_threads =
      static_cast<double>(points_.front().threads);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const double ideal =
        static_cast<double>(points_[i].threads) / base_threads;
    out.push_back(ideal == 0.0 ? 0.0 : speedup[i] / ideal);
  }
  return out;
}

std::vector<double> ScalabilityAnalysis::event_speedup(
    const std::string& event) const {
  std::vector<double> out;
  const auto base_it = points_.front().event_times.find(event);
  const double base = base_it == points_.front().event_times.end()
                          ? 0.0
                          : base_it->second;
  for (const auto& p : points_) {
    const auto it = p.event_times.find(event);
    const double v = it == p.event_times.end() ? 0.0 : it->second;
    out.push_back(v == 0.0 ? 0.0 : base / v);
  }
  return out;
}

std::vector<std::string> ScalabilityAnalysis::events_by_baseline_cost()
    const {
  return baseline_order_;
}

}  // namespace perfknow::analysis
