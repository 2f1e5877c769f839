// The three perfbench workloads. Each run_* sets up its inputs (several
// times when untraced, reporting the median as setup_s), then either
// measures the user-visible operations for cfg.seconds (untraced) or
// runs the per-layer probes (traced), filling `report`.
#pragma once

#include "bench.hpp"

namespace perfbench {

void run_ingest(const Config& cfg, Report& report);
void run_repo_cli(const Config& cfg, Report& report);
void run_serve(const Config& cfg, Report& report);

/// The end-to-end metric names every untraced run prints.
[[nodiscard]] const std::vector<std::string>& end_to_end_metrics();
/// The per-layer metric names every traced run prints.
[[nodiscard]] const std::vector<std::string>& per_layer_metrics();

}  // namespace perfbench
