// The traced run: times calls into each layer's public functions on a
// workload's own inputs and reports the per-layer metrics.
#pragma once

#include <string>

#include "bench.hpp"
#include "gen.hpp"

namespace perfknow::server {
class Server;
}

namespace perfbench {

struct ProbeInputs {
  Plan top;   ///< profile and text-format probes build and read this shape
  Plan half;  ///< half the events of `top`, for the doubling ratio
  /// Files of `top` in each text format; written by the probe when empty.
  fs::path tau_dir, json_file, csv_file;
  Plan stored;  ///< the shape the workload's repository stores (PKB probes)
  /// The workload's repository (probed through a private copy) and an
  /// experiment in it holding `trial` and, when set, its diff base.
  fs::path repo_dir;
  std::string app, exp, trial, base;
  Plan analysis;  ///< counter-carrying shape for analysis/rules probes
  /// A running daemon to probe; a private one is started when null.
  perfknow::server::Server* server = nullptr;
  fs::path socket;
  fs::path upload_file;  ///< body for upload probes (default: stored PKB)
  fs::path import_file;  ///< input for the pkx import probe (default: stored PKB)
};

void probe_layers(const Config& cfg, const ProbeInputs& in, Report& report);

}  // namespace perfbench
