#include "analysis/clustering.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace perfknow::analysis {

namespace {

double sq_distance(const std::vector<double>& a,
                   const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double t = a[i] - b[i];
    d += t * t;
  }
  return d;
}

}  // namespace

std::size_t ClusteringResult::cluster_size(std::size_t c) const {
  return static_cast<std::size_t>(
      std::count(assignment.begin(), assignment.end(), c));
}

ClusteringResult kmeans(const std::vector<std::vector<double>>& rows,
                        std::size_t k, std::size_t max_iterations,
                        std::uint64_t seed) {
  if (k == 0) throw InvalidArgumentError("kmeans: k must be positive");
  if (rows.empty()) throw InvalidArgumentError("kmeans: no rows");
  if (k > rows.size()) {
    throw InvalidArgumentError("kmeans: k exceeds the number of rows");
  }
  const std::size_t dims = rows.front().size();
  for (const auto& r : rows) {
    if (r.size() != dims) {
      throw InvalidArgumentError("kmeans: inconsistent row widths");
    }
  }

  // k-means++ seeding, deterministic via the provided seed.
  Rng rng(seed);
  ClusteringResult result;
  result.centroids.push_back(
      rows[rng.uniform_int(0, rows.size() - 1)]);
  while (result.centroids.size() < k) {
    std::vector<double> d2(rows.size());
    double total = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      double best = std::numeric_limits<double>::max();
      for (const auto& c : result.centroids) {
        best = std::min(best, sq_distance(rows[i], c));
      }
      d2[i] = best;
      total += best;
    }
    if (total == 0.0) {
      // All remaining points coincide with centroids; pick any row.
      result.centroids.push_back(rows[result.centroids.size() % rows.size()]);
      continue;
    }
    double target = rng.uniform() * total;
    std::size_t pick = rows.size() - 1;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      target -= d2[i];
      if (target <= 0.0) {
        pick = i;
        break;
      }
    }
    result.centroids.push_back(rows[pick]);
  }

  result.assignment.assign(rows.size(), 0);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    ++result.iterations;
    bool changed = false;
    // Assign.
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < k; ++c) {
        const double d = sq_distance(rows[i], result.centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    // Update.
    std::vector<std::vector<double>> sums(k, std::vector<double>(dims, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t c = result.assignment[i];
      ++counts[c];
      for (std::size_t d = 0; d < dims; ++d) sums[c][d] += rows[i][d];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // keep the old centroid
      for (std::size_t d = 0; d < dims; ++d) {
        sums[c][d] /= static_cast<double>(counts[c]);
      }
      result.centroids[c] = std::move(sums[c]);
    }
    if (!changed && iter > 0) break;
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    result.inertia +=
        sq_distance(rows[i], result.centroids[result.assignment[i]]);
  }
  return result;
}

double silhouette(const std::vector<std::vector<double>>& rows,
                  const ClusteringResult& clustering) {
  const std::size_t k = clustering.k();
  if (k < 2 || rows.size() != clustering.assignment.size()) return 0.0;
  for (std::size_t c = 0; c < k; ++c) {
    if (clustering.cluster_size(c) == 0) return 0.0;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t own = clustering.assignment[i];
    std::vector<double> mean_d(k, 0.0);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t j = 0; j < rows.size(); ++j) {
      if (i == j) continue;
      mean_d[clustering.assignment[j]] +=
          std::sqrt(sq_distance(rows[i], rows[j]));
      ++counts[clustering.assignment[j]];
    }
    double a = counts[own] == 0
                   ? 0.0
                   : mean_d[own] / static_cast<double>(counts[own]);
    double b = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < k; ++c) {
      if (c == own || counts[c] == 0) continue;
      b = std::min(b, mean_d[c] / static_cast<double>(counts[c]));
    }
    if (b == std::numeric_limits<double>::max()) return 0.0;
    const double denom = std::max(a, b);
    total += denom == 0.0 ? 0.0 : (b - a) / denom;
  }
  return total / static_cast<double>(rows.size());
}

std::vector<std::vector<double>> thread_event_matrix(
    const profile::Trial& trial, const std::string& metric, bool zscore) {
  const auto m = trial.metric_id(metric);
  std::vector<std::vector<double>> rows(
      trial.thread_count(), std::vector<double>(trial.event_count(), 0.0));
  for (std::size_t t = 0; t < trial.thread_count(); ++t) {
    for (profile::EventId e = 0; e < trial.event_count(); ++e) {
      rows[t][e] = trial.exclusive(t, e, m);
    }
  }
  if (zscore && !rows.empty()) {
    for (profile::EventId e = 0; e < trial.event_count(); ++e) {
      std::vector<double> col;
      col.reserve(rows.size());
      for (const auto& r : rows) col.push_back(r[e]);
      const auto z = stats::zscores(col);
      for (std::size_t t = 0; t < rows.size(); ++t) rows[t][e] = z[t];
    }
  }
  return rows;
}

ClusteringResult cluster_threads(const profile::Trial& trial,
                                 const std::string& metric, std::size_t k) {
  return kmeans(thread_event_matrix(trial, metric), k);
}

}  // namespace perfknow::analysis
