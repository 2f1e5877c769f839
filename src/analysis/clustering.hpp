// Thread-behaviour clustering, PerfExplorer's signature data-mining op.
//
// Rows are threads, columns are per-event metric values; k-means over the
// (optionally z-scored) rows groups threads with similar behaviour —
// e.g. separating the master thread doing serialized ghost-cell copies
// from the worker threads, or the "short sequences" threads from the
// "long sequences" threads in an imbalanced MSAP run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "profile/profile.hpp"

namespace perfknow::analysis {

struct ClusteringResult {
  std::vector<std::size_t> assignment;          ///< per row: cluster index
  std::vector<std::vector<double>> centroids;   ///< k x dims
  double inertia = 0.0;   ///< sum of squared distances to centroids
  std::size_t iterations = 0;

  [[nodiscard]] std::size_t k() const noexcept { return centroids.size(); }
  /// Number of rows assigned to cluster `c`.
  [[nodiscard]] std::size_t cluster_size(std::size_t c) const;
};

/// Deterministic k-means (k-means++ seeding from a fixed seed, Lloyd
/// iterations until stable or `max_iterations`). Throws when k == 0,
/// k > rows, or rows have inconsistent widths.
[[nodiscard]] ClusteringResult kmeans(
    const std::vector<std::vector<double>>& rows, std::size_t k,
    std::size_t max_iterations = 100, std::uint64_t seed = 42);

/// Mean silhouette coefficient of a clustering (-1..1; higher = crisper).
/// Returns 0 when any cluster is empty or k < 2.
[[nodiscard]] double silhouette(const std::vector<std::vector<double>>& rows,
                                const ClusteringResult& clustering);

/// Builds the thread x event matrix of one metric from a trial
/// (exclusive values), optionally z-scored per column so high-magnitude
/// events don't dominate the distance.
[[nodiscard]] std::vector<std::vector<double>> thread_event_matrix(
    const profile::Trial& trial, const std::string& metric,
    bool zscore = true);

/// Convenience: cluster the threads of a trial by event behaviour.
[[nodiscard]] ClusteringResult cluster_threads(const profile::Trial& trial,
                                               const std::string& metric,
                                               std::size_t k);

}  // namespace perfknow::analysis
