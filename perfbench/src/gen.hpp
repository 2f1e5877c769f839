// Seeded synthetic trial generator shared by every benchmark workload.
//
// A Plan fixes one application's structure from a seed: a callpath tree
// rooted at "main", power-law exclusive times (only a handful of events
// exceed 5% of runtime), two planted nested-loop pairs whose per-thread
// times are anti-correlated (so the "Load Imbalance" rule fires with a
// proof tree), and per-event counter ratios that turn on the stall and
// memory-locality facts. build_trial() then materializes one version of
// that application with per-version noise and any planted regressions.
// Inclusive values are exclusive plus the children's inclusive values on
// every thread and metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "profile/profile.hpp"

namespace perfbench {

struct Shape {
  std::size_t events = 2000;  ///< including main
  std::size_t threads = 64;
  bool counters = true;       ///< TIME only when false
};

struct Plan {
  Shape shape;
  std::vector<std::string> names;     ///< "main => ... => leaf" callpaths
  std::vector<std::size_t> parent;    ///< parent index; main's is itself
  std::vector<double> weight;         ///< mean exclusive TIME (usec)
  std::vector<int> pair;              ///< planted pair index, -1 for none
  std::vector<bool> inner;            ///< planted inner loop of its pair
  std::vector<double> skew;  ///< [pair * threads + t], mean 0, sd 0.5
  std::vector<std::uint32_t> calls;
  /// Per-event counter ratios (cycles/usec, stalls/cycle, memory+FP
  /// share of stalls, L3 misses/cycle, remote share of L3 misses).
  std::vector<double> cycles_per_us, stall_rate, memfp_share, l3_rate,
      remote_share;
  std::vector<std::string> planted_inner;  ///< events LoadImbalance names
  std::size_t hot_events = 0;  ///< events above 5% of main's runtime
  /// A mid-weight event (about 1% of runtime) that planted regressions
  /// slow down, so the diff rulebase flags exactly that version.
  std::size_t regression_event = 0;
};

[[nodiscard]] Plan make_plan(const Shape& shape, std::uint64_t seed);

/// Metric names a plan's trials carry, in column order.
[[nodiscard]] std::vector<std::string> metric_names(const Shape& shape);

/// Builds one version. `noise_seed` varies per-thread noise; the
/// regression event's exclusive values are scaled by `regression_scale`.
/// Schema-first (events and metrics before set_thread_count) unless
/// `reader_order`, which adds the schema after the thread count the way
/// the profile readers do.
[[nodiscard]] perfknow::profile::Trial build_trial(
    const Plan& plan, std::uint64_t noise_seed, const std::string& name,
    double regression_scale = 1.0, bool reader_order = false);

/// Per-metric sums of every exclusive and inclusive cell, in metric-name
/// order; the ingest correctness check compares these across formats.
[[nodiscard]] std::vector<double> cell_sums(
    const perfknow::profile::TrialView& trial);

/// True when every sum agrees to a relative 1e-9.
[[nodiscard]] bool same_sums(const std::vector<double>& a,
                             const std::vector<double>& b);

}  // namespace perfbench
