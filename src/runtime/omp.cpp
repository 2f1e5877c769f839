#include "runtime/omp.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace perfknow::runtime {

std::string Schedule::name() const {
  switch (kind) {
    case ScheduleKind::kStatic:
      return chunk == 0 ? "static" : "static," + std::to_string(chunk);
    case ScheduleKind::kDynamic:
      return "dynamic," + std::to_string(chunk == 0 ? 1 : chunk);
    case ScheduleKind::kGuided:
      return "guided," + std::to_string(chunk == 0 ? 1 : chunk);
  }
  return "unknown";
}

double ParallelForResult::imbalance() const {
  if (work_cycles.empty()) return 0.0;
  std::vector<double> xs(work_cycles.begin(), work_cycles.end());
  return stats::coefficient_of_variation(xs);
}

OmpTeam::OmpTeam(machine::Machine& m, unsigned num_threads, OmpCosts costs)
    : machine_(m), num_threads_(num_threads), costs_(costs) {
  if (num_threads == 0) {
    throw InvalidArgumentError("OmpTeam: need at least one thread");
  }
  if (num_threads > m.config().num_cpus()) {
    throw InvalidArgumentError(
        "OmpTeam: " + std::to_string(num_threads) + " threads exceed " +
        std::to_string(m.config().num_cpus()) + " CPUs of the machine");
  }
}

std::uint32_t OmpTeam::cpu_of(unsigned thread) const {
  if (thread >= num_threads_) {
    throw InvalidArgumentError("OmpTeam::cpu_of: bad thread id");
  }
  return thread;  // compact pinning: thread t on cpu t
}

std::uint32_t OmpTeam::node_of(unsigned thread) const {
  return machine_.topology().node_of_cpu(cpu_of(thread));
}

std::uint64_t OmpTeam::barrier_cost() const {
  const auto levels = static_cast<std::uint64_t>(
      std::ceil(std::log2(static_cast<double>(std::max(2u, num_threads_)))));
  return costs_.barrier_base_cycles + levels * costs_.barrier_per_level_cycles;
}

ParallelForResult OmpTeam::parallel_for(std::uint64_t n, Schedule sched,
                                        const Body& body) {
  ParallelForResult r;
  r.work_cycles.assign(num_threads_, 0);
  r.dispatch_cycles.assign(num_threads_, 0);
  r.barrier_wait_cycles.assign(num_threads_, 0);
  r.iterations_run.assign(num_threads_, 0);
  r.total_iterations = n;

  std::vector<std::uint64_t> clock(num_threads_, 0);

  switch (sched.kind) {
    case ScheduleKind::kStatic: {
      if (sched.chunk == 0) {
        // Even contiguous split: thread t gets [t*n/T, (t+1)*n/T).
        for (unsigned t = 0; t < num_threads_; ++t) {
          const std::uint64_t lo = n * t / num_threads_;
          const std::uint64_t hi = n * (t + 1) / num_threads_;
          clock[t] += costs_.static_setup_cycles;
          r.dispatch_cycles[t] += costs_.static_setup_cycles;
          for (std::uint64_t i = lo; i < hi; ++i) {
            const std::uint64_t cost = body(i, t);
            clock[t] += cost;
            r.work_cycles[t] += cost;
            ++r.iterations_run[t];
          }
        }
      } else {
        // Round-robin chunks of fixed size.
        for (unsigned t = 0; t < num_threads_; ++t) {
          clock[t] += costs_.static_setup_cycles;
          r.dispatch_cycles[t] += costs_.static_setup_cycles;
        }
        const std::uint64_t c = sched.chunk;
        std::uint64_t chunk_index = 0;
        for (std::uint64_t lo = 0; lo < n; lo += c, ++chunk_index) {
          const unsigned t =
              static_cast<unsigned>(chunk_index % num_threads_);
          const std::uint64_t hi = std::min(lo + c, n);
          for (std::uint64_t i = lo; i < hi; ++i) {
            const std::uint64_t cost = body(i, t);
            clock[t] += cost;
            r.work_cycles[t] += cost;
            ++r.iterations_run[t];
          }
        }
      }
      break;
    }
    case ScheduleKind::kDynamic: {
      const std::uint64_t c = std::max<std::uint64_t>(1, sched.chunk);
      // Earliest-available thread takes the next chunk. A min-heap over
      // (clock, thread-id) keeps this O(n/c * log T) and deterministic.
      using Slot = std::pair<std::uint64_t, unsigned>;
      std::priority_queue<Slot, std::vector<Slot>, std::greater<>> ready;
      for (unsigned t = 0; t < num_threads_; ++t) ready.emplace(0, t);
      std::uint64_t next = 0;
      while (next < n) {
        auto [at, t] = ready.top();
        ready.pop();
        const std::uint64_t lo = next;
        const std::uint64_t hi = std::min(lo + c, n);
        next = hi;
        std::uint64_t cost = costs_.dynamic_dequeue_cycles;
        r.dispatch_cycles[t] += costs_.dynamic_dequeue_cycles;
        for (std::uint64_t i = lo; i < hi; ++i) {
          const std::uint64_t w = body(i, t);
          cost += w;
          r.work_cycles[t] += w;
          ++r.iterations_run[t];
        }
        clock[t] = at + cost;
        ready.emplace(clock[t], t);
      }
      break;
    }
    case ScheduleKind::kGuided: {
      const std::uint64_t min_chunk = std::max<std::uint64_t>(1, sched.chunk);
      using Slot = std::pair<std::uint64_t, unsigned>;
      std::priority_queue<Slot, std::vector<Slot>, std::greater<>> ready;
      for (unsigned t = 0; t < num_threads_; ++t) ready.emplace(0, t);
      std::uint64_t next = 0;
      while (next < n) {
        auto [at, t] = ready.top();
        ready.pop();
        const std::uint64_t remaining = n - next;
        const std::uint64_t c = std::max<std::uint64_t>(
            min_chunk, remaining / (2 * num_threads_));
        const std::uint64_t lo = next;
        const std::uint64_t hi = std::min(lo + c, n);
        next = hi;
        std::uint64_t cost = costs_.dynamic_dequeue_cycles;
        r.dispatch_cycles[t] += costs_.dynamic_dequeue_cycles;
        for (std::uint64_t i = lo; i < hi; ++i) {
          const std::uint64_t w = body(i, t);
          cost += w;
          r.work_cycles[t] += w;
          ++r.iterations_run[t];
        }
        clock[t] = at + cost;
        ready.emplace(clock[t], t);
      }
      break;
    }
  }

  const std::uint64_t finish =
      *std::max_element(clock.begin(), clock.end());
  for (unsigned t = 0; t < num_threads_; ++t) {
    r.barrier_wait_cycles[t] = finish - clock[t];
  }
  r.barrier_cost = barrier_cost();
  r.elapsed_cycles = costs_.fork_cycles + finish + r.barrier_cost +
                     costs_.join_cycles;
  return r;
}

std::uint64_t OmpTeam::single(std::uint64_t cycles) {
  // Thread 0 works; everyone else idles until the closing barrier.
  return cycles + barrier_cost();
}

}  // namespace perfknow::runtime
