// A small fixed-size worker pool for data-parallel analysis primitives.
//
// The only parallel construct the analysis layer needs is a blocking
// parallel_for over an index range where every index writes disjoint
// state: the caller thread participates in the work, exceptions thrown by
// the body are captured and the one from the lowest chunk is rethrown
// (so failure behaviour is deterministic), and nested calls degrade to
// inline execution instead of deadlocking. Results are bit-identical to a
// serial loop because the pool never changes *what* each index computes —
// only which thread computes it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace perfknow {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means "no workers" and every
  /// parallel_for runs inline on the caller.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Runs body(i) for every i in [0, n), splitting the range into
  /// contiguous chunks executed by the workers and the calling thread.
  /// Blocks until all indices ran. If any body invocation throws, the
  /// exception from the lowest-numbered chunk is rethrown after the loop
  /// finishes. Ranges of at most `grain` indices (and all ranges, when
  /// the pool has no workers or the call is nested inside a pool task)
  /// run inline in index order.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// Process-wide pool sized from the PERFKNOW_THREADS environment
  /// variable when set, otherwise std::thread::hardware_concurrency().
  /// The analysis primitives run on it.
  [[nodiscard]] static ThreadPool& shared();

 private:
  void worker_loop();
  void enqueue(std::function<void()> job);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace perfknow
