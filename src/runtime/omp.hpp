// Simulated OpenMP execution: fork/join teams and work-shared loops under
// static / dynamic / guided scheduling, on deterministic virtual clocks.
//
// The simulation reproduces exactly the phenomena the paper's MSAP case
// study diagnoses: per-thread work-time skew under static-even scheduling
// of a triangular iteration space, time spent waiting at the implicit
// end-of-loop barrier, and the per-chunk dispatch overhead that makes very
// small dynamic chunks a trade-off. Per-thread clocks are uint64 cycles;
// no host threads are involved, so results are bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "machine/machine.hpp"

namespace perfknow::runtime {

enum class ScheduleKind { kStatic, kDynamic, kGuided };

/// Loop schedule, as in OpenMP's schedule(kind, chunk) clause.
struct Schedule {
  ScheduleKind kind = ScheduleKind::kStatic;
  std::uint64_t chunk = 0;  ///< 0 = default (static: even split; dynamic: 1)

  [[nodiscard]] static Schedule static_even() { return {}; }
  [[nodiscard]] static Schedule static_chunked(std::uint64_t c) {
    return {ScheduleKind::kStatic, c};
  }
  [[nodiscard]] static Schedule dynamic(std::uint64_t c = 1) {
    return {ScheduleKind::kDynamic, c};
  }
  [[nodiscard]] static Schedule guided(std::uint64_t min_chunk = 1) {
    return {ScheduleKind::kGuided, min_chunk};
  }

  /// "static", "static,100", "dynamic,1", "guided,8" — used as trial
  /// metadata so rules can recommend a schedule change by name.
  [[nodiscard]] std::string name() const;
};

/// Cost constants of the simulated OpenMP runtime library.
struct OmpCosts {
  std::uint64_t fork_cycles = 9000;      ///< team wake-up at region entry
  std::uint64_t join_cycles = 3000;      ///< team quiesce at region exit
  std::uint64_t barrier_base_cycles = 800;
  std::uint64_t barrier_per_level_cycles = 350;  ///< x ceil(log2 nthreads)
  std::uint64_t dynamic_dequeue_cycles = 240;    ///< atomic chunk fetch
  std::uint64_t static_setup_cycles = 120;       ///< bounds computation
};

/// Outcome of one simulated work-shared loop.
struct ParallelForResult {
  std::vector<std::uint64_t> work_cycles;      ///< per thread: body time
  std::vector<std::uint64_t> dispatch_cycles;  ///< per thread: scheduling
  std::vector<std::uint64_t> barrier_wait_cycles;  ///< per thread: idle
  std::vector<std::uint64_t> iterations_run;   ///< per thread: count
  std::uint64_t barrier_cost = 0;   ///< synchronization itself (all threads)
  std::uint64_t elapsed_cycles = 0; ///< region start to region end
  std::uint64_t total_iterations = 0;

  /// Load-imbalance indicator: coefficient of variation of per-thread
  /// work cycles (the paper's stddev/mean ratio).
  [[nodiscard]] double imbalance() const;
};

/// A simulated OpenMP thread team. Thread t runs on CPU t of the machine
/// (compact pinning, as the paper's runs on the Altix).
class OmpTeam {
 public:
  /// Body of a work-shared loop: returns the virtual cycles one iteration
  /// costs when executed by `thread`. The body may also perform real
  /// computation and counter synthesis; only the returned cycles advance
  /// the clock.
  using Body =
      std::function<std::uint64_t(std::uint64_t iter, unsigned thread)>;

  OmpTeam(machine::Machine& m, unsigned num_threads, OmpCosts costs = {});

  [[nodiscard]] unsigned num_threads() const noexcept {
    return num_threads_;
  }
  /// CPU a team member is pinned to.
  [[nodiscard]] std::uint32_t cpu_of(unsigned thread) const;
  /// NUMA node of a team member.
  [[nodiscard]] std::uint32_t node_of(unsigned thread) const;

  /// Simulates `for (i = 0; i < n; ++i) body(i)` under `sched`, including
  /// the implicit end-of-loop barrier. Iteration order within a thread is
  /// ascending; dynamic chunks go to the earliest-available thread
  /// (ties broken by lowest thread id) — deterministic.
  [[nodiscard]] ParallelForResult parallel_for(std::uint64_t n,
                                               Schedule sched,
                                               const Body& body);

  /// Models a `#pragma omp single`/master section of `cycles` executed by
  /// thread 0 while others wait at the closing barrier; returns elapsed
  /// cycles including the barrier.
  [[nodiscard]] std::uint64_t single(std::uint64_t cycles);

  [[nodiscard]] const OmpCosts& costs() const noexcept { return costs_; }
  [[nodiscard]] machine::Machine& machine() noexcept { return machine_; }

 private:
  [[nodiscard]] std::uint64_t barrier_cost() const;

  machine::Machine& machine_;
  unsigned num_threads_;
  OmpCosts costs_;
};

}  // namespace perfknow::runtime
