// Metric lineage: where a derived metric column came from.
//
// analysis::derive_metric / scale_metric stamp each derived metric into
// the trial's free-form metadata under "provenance.metric.<name>", so
// the lineage survives every save/load format (TAU, CSV, JSON, PKB)
// without a binary-format change. Whole-trial transforms
// (aggregate_threads, merge_trials) stamp "provenance.trial" the same
// way. lineage_chain() resolves a metric recursively down to raw
// columns — the "bottoms out in raw trial facts" guarantee the
// explanation renderer relies on.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "profile/profile.hpp"

namespace perfknow::provenance {

/// Metadata key prefix for per-metric stamps.
inline constexpr const char* kMetricKeyPrefix = "provenance.metric.";
/// Metadata key for whole-trial transform stamps.
inline constexpr const char* kTrialKey = "provenance.trial";

/// How one derived metric was computed.
struct MetricLineage {
  std::string metric;                 ///< the derived metric's name
  std::string operation;              ///< "derive(/)", "scale(1e-06)", ...
  std::vector<std::string> operands;  ///< operand metric names
  std::string trial;                  ///< trial the operands came from
};

/// Records the stamp into the trial's metadata (overwrites any previous
/// stamp for the same metric).
void stamp(profile::Trial& trial, const MetricLineage& lineage);

/// Reads the stamp for `metric`; nullopt for raw metrics, missing
/// stamps, or stamps that fail to decode.
[[nodiscard]] std::optional<MetricLineage> lineage_of(
    const profile::Trial& trial, const std::string& metric);

/// Human-readable chain from `metric` down to raw columns, one line per
/// step:
///   "(A / B)" = derive(/) of [A, B] on trial 'x'
///   "A": raw column of trial 'x'
/// Bounded depth; never throws on malformed stamps.
[[nodiscard]] std::vector<std::string> lineage_chain(
    const profile::Trial& trial, const std::string& metric);

}  // namespace perfknow::provenance
