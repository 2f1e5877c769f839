// A small fixed-size worker pool for data-parallel analysis primitives
// and the text readers.
//
// The analysis layer needs a blocking parallel_for over an index range
// where every index writes disjoint state: the caller thread
// participates in the work, exceptions thrown by the body are captured
// and the one from the lowest chunk is rethrown (so failure behaviour is
// deterministic), and nested calls degrade to inline execution instead
// of deadlocking. The readers need ordered_for: chunks parsed in
// parallel into bounded staging, and applied one by one, in order, on
// the caller. Results are bit-identical to a serial loop because the
// pool never changes *what* each index computes — only which thread
// computes it.
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

  /// The two stages of a parallel reader: runs parse(i) for every i in
  /// [0, n) on the workers and the calling thread, and apply(i) on the
  /// calling thread alone, in index order, each once parse(i) is done.
  /// At most `window` parses run ahead of the applies: parse(i + window)
  /// starts only after apply(i) returned, so indices i and i + window
  /// may share staging slot i % window. An exception from parse(i) is
  /// rethrown in place of apply(i), so the first failure in index order
  /// wins. apply(i) returning false ends the loop: no later index is
  /// applied, and those not yet started are not parsed. No parse is
  /// still running when the call returns or throws. With a window of
  /// 1, no workers, or inside a pool task, parse(i) and apply(i)
  /// alternate inline.
  void ordered_for(std::size_t n, std::size_t window,
                   const std::function<void(std::size_t)>& parse,
                   const std::function<bool(std::size_t)>& apply);

  /// Process-wide pool sized from the PERFKNOW_THREADS environment
  /// variable when set, otherwise std::thread::hardware_concurrency().
  /// The analysis primitives and the text readers run on it.
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
