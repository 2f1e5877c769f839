#include "bench.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "io/format.hpp"
#include "perfdmf/repository.hpp"

namespace perfbench {

double time_ms(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0) * 1e3;
}

double Samples::sum() const {
  double s = 0.0;
  for (const double v : v_) s += v;
  return s;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

double Kinds::typical() const {
  if (by_.empty()) return 0.0;
  double log_sum = 0.0;
  for (const auto& [kind, s] : by_) log_sum += std::log(s.median());
  return std::exp(log_sum / static_cast<double>(by_.size()));
}

std::size_t Kinds::count() const {
  std::size_t n = 0;
  for (const auto& [kind, s] : by_) n += s.count();
  return n;
}

double Kinds::sum() const {
  double t = 0.0;
  for (const auto& [kind, s] : by_) t += s.sum();
  return t;
}

namespace {

/// The numeric value of a "Key: value" line in a /proc/self file.
std::uint64_t proc_field(const char* file, const std::string& key) {
  std::ifstream is(file);
  std::string line;
  while (std::getline(is, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stoull(line.substr(key.size()));
    }
  }
  return 0;
}

}  // namespace

double peak_rss_mb() {
  return static_cast<double>(proc_field("/proc/self/status", "VmHWM:")) /
         1024.0;
}

std::uint64_t bytes_written() {
  return proc_field("/proc/self/io", "wchar:");
}

void run_in_child(const std::function<void()>& fn) {
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    int code = 0;
    try {
      fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child failed");
  }
}

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

void Report::set_median(const std::string& name, const Samples& s,
                        const std::string& unit) {
  set(name, s.median(), unit, s.count());
  // The highest percentile reported is one with ten samples beyond it.
  for (const double q : {0.99, 0.95, 0.9}) {
    if (static_cast<double>(s.count()) * (1.0 - q) >= 10.0) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s p%.0f = %.4f %s (n=%zu)",
                    name.c_str(), q * 100, s.quantile(q), unit.c_str(),
                    s.count());
      notes.emplace_back(buf);
      break;
    }
  }
}

void print_report(const Report& report, const std::vector<std::string>& keys) {
  for (const auto& n : report.notes) std::cout << "# " << n << "\n";
  for (const auto& f : report.failures) std::cout << "# FAILED: " << f << "\n";
  for (const auto& [name, m] : report.metrics) {
    char buf[200];
    if (m.samples > 0) {
      std::snprintf(buf, sizeof buf, "# %-36s %14.6g %-6s (n=%zu)",
                    name.c_str(), m.value, m.unit.c_str(), m.samples);
    } else {
      std::snprintf(buf, sizeof buf, "# %-36s %14.6g %s", name.c_str(),
                    m.value, m.unit.c_str());
    }
    std::cout << buf << "\n";
  }
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& k : keys) {
    const auto it = report.metrics.find(k);
    if (it == report.metrics.end()) continue;
    if (!first) js << ", ";
    first = false;
    const double v = std::isfinite(it->second.value) ? it->second.value : 0.0;
    js << "\"" << k << "\": {\"value\": " << v << ", \"unit\": \""
       << it->second.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

perfknow::profile::Trial layer_trial(const Report& report,
                                     const std::string& name) {
  namespace pp = perfknow::profile;
  auto column = [](const std::string& unit) -> std::string {
    if (unit == "ms") return "TIME";
    if (unit == "ratio") return "RATIO";
    if (unit == "bytes") return "BYTES";
    if (unit == "%") return "PERCENT";
    return "COUNT";
  };
  pp::Trial trial(name);
  for (const char* m : {"TIME", "COUNT", "RATIO", "BYTES", "PERCENT"}) {
    trial.add_metric(m, m == std::string("TIME") ? "ms" : "count");
  }
  const auto root = trial.add_event("main");
  std::map<std::string, pp::EventId> layers;
  std::vector<std::tuple<pp::EventId, pp::MetricId, double>> cells;
  for (const auto& [metric, m] : report.metrics) {
    const std::string layer = metric.substr(0, metric.find('.'));
    auto it = layers.find(layer);
    if (it == layers.end()) {
      it = layers.emplace(layer, trial.add_event("main => " + layer, root))
               .first;
    }
    const auto e = trial.add_event("main => " + layer + " => " + metric,
                                   it->second);
    cells.emplace_back(e, *trial.find_metric(column(m.unit)), m.value);
  }
  trial.set_thread_count(1);
  trial.set_metadata("generator", "perfbench traced run");
  for (const auto& [e, m, v] : cells) {
    const double value = std::isfinite(v) ? v : 0.0;
    trial.set_exclusive(0, e, m, value);
    // Inclusive rolls up through the layer event to main.
    for (pp::EventId at = e; at != pp::kNoEvent; at = trial.event(at).parent) {
      trial.accumulate_inclusive(0, at, m, value);
    }
    trial.set_calls(0, e, 1, 0);
  }
  return trial;
}

fs::path record_layer_trial(const perfknow::profile::Trial& trial,
                            const std::string& workload, const fs::path& dir) {
  fs::create_directories(dir);
  const fs::path file = dir / (trial.name() + ".pkb");
  perfknow::io::save_trial(trial, file, "pkb");
  const fs::path repo_dir = dir / "repo";
  perfknow::perfdmf::Repository repo;
  if (fs::exists(repo_dir / "index.tsv")) {
    repo = perfknow::perfdmf::Repository::load(repo_dir);
  }
  repo.put_version("perfbench", workload,
                   std::make_shared<perfknow::profile::Trial>(trial));
  repo.save(repo_dir);
  return file;
}

}  // namespace perfbench
