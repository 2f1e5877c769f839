// Shared plumbing for the perfbench driver: run configuration, timing,
// sample statistics, the in-memory span recorder of the traced run, and
// the result line every run ends with.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "profile/profile.hpp"

namespace perfbench {

namespace fs = std::filesystem;

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< reduced sizes for the benchmark's own tests
  fs::path work;       ///< scratch directory for inputs and repositories
  fs::path results;    ///< where the traced run writes its PKB trial

  // Full sizes; main() shrinks them for --smoke.
  std::vector<std::size_t> ladder = {700, 1400, 2800};  ///< ingest rungs
  std::size_t ladder_threads = 64;
  std::size_t repo_versions = 20;
  std::size_t repo_events = 2000;
  std::size_t repo_threads = 64;
  std::size_t upload_events = 300;  ///< serve upload bodies
  std::size_t clients = 3;
  int setup_repeats = 3;
};

// ---- timing -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` and returns its wall time in milliseconds.
double time_ms(const std::function<void()>& fn);

/// A bag of measurements with the order statistics the report uses.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t count() const { return v_.size(); }
  [[nodiscard]] double sum() const;
  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// Samples grouped by operation kind. The typical latency is each kind's
/// median combined by geometric mean, so it does not depend on how many
/// operations of each kind a run happened to complete.
class Kinds {
 public:
  void add(const std::string& kind, double v) { by_[kind].add(v); }
  [[nodiscard]] double typical() const;
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] bool has(const std::string& kind) const {
    return by_.count(kind) != 0;
  }
  [[nodiscard]] const Samples& of(const std::string& kind) const {
    return by_.at(kind);
  }

 private:
  std::map<std::string, Samples> by_;
};

// ---- process facts ------------------------------------------------------

/// Peak resident set size of this process (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();
/// Bytes this process has written through write(2) so far (wchar).
[[nodiscard]] std::uint64_t bytes_written();

/// Runs `fn` in a forked child and waits for it, so set-up allocations
/// do not count toward the workload's peak RSS. Throws when the child
/// fails. Call only while this process runs no other threads.
void run_in_child(const std::function<void()>& fn);

// ---- tracing ------------------------------------------------------------

/// Durations of the calls the traced run makes into each layer, kept in
/// memory by span name.
class Tracer {
 public:
  /// Times `fn` as one span named `name`.
  void span(const std::string& name, const std::function<void()>& fn) {
    spans_[name].add(time_ms(fn));
  }
  /// Median duration (ms) of the spans named `name`; 0 when none.
  [[nodiscard]] double median_ms(const std::string& name) const {
    const auto it = spans_.find(name);
    return it == spans_.end() ? 0.0 : it->second.median();
  }

 private:
  std::map<std::string, Samples> spans_;
};

// ---- results ------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 for derived values
};

/// What one run reports: operation counts and named metrics.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;     ///< extra human-readable lines

  /// Counts one operation; `ok == false` records `what` as a failure.
  void op(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0);
  /// Median of `s` as `name`, plus a note with the highest percentile
  /// that has ten samples beyond it.
  void set_median(const std::string& name, const Samples& s,
                  const std::string& unit);
  /// Kinds::typical() of `k` as `name`.
  void set_typical(const std::string& name, const Kinds& k,
                   const std::string& unit) {
    set(name, k.typical(), unit, k.count());
  }
};

/// Prints the human-readable lines, then the final JSON result line.
void print_report(const Report& report, const std::vector<std::string>& keys);

/// The per-layer metrics as a one-thread trial: root "main", one event
/// per layer, one child per metric; values land in the TIME / COUNT /
/// RATIO / BYTES / PERCENT column matching their unit.
[[nodiscard]] perfknow::profile::Trial layer_trial(const Report& report,
                                                  const std::string& name);

/// Saves `trial` as `<dir>/<name>.pkb` and appends it as the newest
/// version of perfbench/<workload> in the repository `<dir>/repo`, so
/// `pkx <dir>/repo diff perfbench <workload> <old> <new>` compares runs.
/// Returns the PKB file's path.
fs::path record_layer_trial(const perfknow::profile::Trial& trial,
                            const std::string& workload, const fs::path& dir);

}  // namespace perfbench
