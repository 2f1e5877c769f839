// perfbench: the end-to-end perfknow benchmark.
//
//   perfbench --workload ingest|repo_cli|serve --seed N --seconds S
//             --trace 0|1 [--work DIR] [--results DIR] [--smoke 1]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and also write them as a PKB trial under --results,
// so `pkx diff` over two runs names the layer that moved. The last line
// of standard output is always the JSON result object.
#include <ctime>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage() {
  std::cerr << "usage: perfbench --workload ingest|repo_cli|serve --seed N "
               "--seconds S --trace 0|1 [--work DIR] [--results DIR] "
               "[--smoke 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.work = ".bench_build/work";
  cfg.results = ".bench_build/results";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") cfg.workload = v;
    else if (k == "--seed") cfg.seed = std::stoull(v);
    else if (k == "--seconds") cfg.seconds = std::stod(v);
    else if (k == "--trace") cfg.trace = v == "1";
    else if (k == "--work") cfg.work = v;
    else if (k == "--results") cfg.results = v;
    else if (k == "--smoke") cfg.smoke = v == "1";
    else return usage();
  }
  if (argc % 2 == 0) return usage();
  if (cfg.smoke) {
    cfg.ladder = {100, 200};
    cfg.ladder_threads = 8;
    cfg.repo_versions = 4;
    cfg.repo_events = 200;
    cfg.repo_threads = 8;
    cfg.upload_events = 100;
    cfg.clients = 2;
    cfg.setup_repeats = 1;
  }

  void (*run)(const Config&, Report&) = nullptr;
  if (cfg.workload == "ingest") run = run_ingest;
  else if (cfg.workload == "repo_cli") run = run_repo_cli;
  else if (cfg.workload == "serve") run = run_serve;
  else return usage();

  Report report;
  try {
    run(cfg, report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  const auto& keys = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& k : keys) {
    if (report.metrics.count(k) == 0) {
      std::cerr << "perfbench: metric " << k << " was not measured\n";
      return 1;
    }
  }
  if (cfg.trace) {
    Report layers;
    for (const auto& k : keys) layers.metrics[k] = report.metrics[k];
    const std::string name =
        cfg.workload + "-seed" + std::to_string(cfg.seed) + "-" +
        std::to_string(static_cast<long long>(std::time(nullptr)));
    const auto file =
        record_layer_trial(layer_trial(layers, name), cfg.workload, cfg.results);
    report.notes.push_back("per-layer trial written to " + file.string() +
                           " and to " + (cfg.results / "repo").string());
  }
  std::error_code ec;
  fs::remove_all(cfg.work, ec);
  print_report(report, keys);
  return 0;
}
