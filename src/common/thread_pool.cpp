#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "telemetry/telemetry.hpp"

namespace perfknow {

namespace {

// True on threads currently executing pool work: a nested parallel_for
// must not wait on the queue it is itself draining.
thread_local bool tls_in_pool_task = false;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("PERFKNOW_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  tls_in_pool_task = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ and drained
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    job();
  }
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (n == 0) return;
  static const telemetry::SpanSite for_site("threadpool.parallel_for");
  telemetry::ScopedSpan for_span(for_site);
  if (workers_.empty() || tls_in_pool_task || n <= std::max<std::size_t>(grain, 1)) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Contiguous chunks; workers and the caller claim them via an atomic
  // cursor. Errors are kept per chunk so the rethrown exception does not
  // depend on scheduling.
  struct ForState {
    std::size_t n = 0;
    std::size_t chunk = 0;
    std::size_t nchunks = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    std::mutex m;
    std::condition_variable done_cv;
    std::size_t done = 0;
    std::vector<std::exception_ptr> errors;
  };

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->nchunks =
      std::min(n, (workers_.size() + 1) * 4);  // +1: the caller drains too
  state->chunk = (n + state->nchunks - 1) / state->nchunks;
  state->nchunks = (n + state->chunk - 1) / state->chunk;
  state->body = &body;
  state->errors.resize(state->nchunks);

  auto drain = [](ForState& s) {
    // Each chunk is a span on the thread that ran it, so a telemetry
    // snapshot shows per-worker busy time and chunk imbalance (the
    // self_diagnosis rules judge "threadpool.chunk" imbalanceCv).
    static const telemetry::SpanSite chunk_site("threadpool.chunk");
    static telemetry::Counter& chunks = telemetry::counter("threadpool.chunks");
    for (;;) {
      const std::size_t c = s.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= s.nchunks) return;
      const std::size_t begin = c * s.chunk;
      const std::size_t end = std::min(s.n, begin + s.chunk);
      try {
        telemetry::ScopedSpan chunk_span(chunk_site);
        for (std::size_t i = begin; i < end; ++i) (*s.body)(i);
        chunks.add();
      } catch (...) {
        s.errors[c] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(s.m);
      if (++s.done == s.nchunks) s.done_cv.notify_all();
    }
  };

  const std::size_t helper_jobs =
      std::min(workers_.size(), state->nchunks - 1);
  for (std::size_t i = 0; i < helper_jobs; ++i) {
    enqueue([state, drain] { drain(*state); });
  }
  drain(*state);
  {
    std::unique_lock<std::mutex> lock(state->m);
    state->done_cv.wait(lock,
                        [&] { return state->done == state->nchunks; });
  }
  for (auto& e : state->errors) {
    if (e) std::rethrow_exception(e);
  }
}

void ThreadPool::ordered_for(std::size_t n, std::size_t window,
                             const std::function<void(std::size_t)>& parse,
                             const std::function<bool(std::size_t)>& apply) {
  if (window <= 1 || workers_.empty() || tls_in_pool_task || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      parse(i);
      if (!apply(i)) return;
    }
    return;
  }

  // Each index is parsed by whichever thread claims it first: a worker
  // running its job, or the caller on reaching an index no worker has
  // started. A job that finds its index claimed does nothing, so jobs
  // still queued when the call ends never touch `parse`.
  enum : int { kQueued, kRunning, kDone };
  struct Slot {
    std::atomic<int> state{kQueued};
    std::exception_ptr error;
  };
  struct OrderedState {
    explicit OrderedState(std::size_t count) : slots(count) {}
    std::vector<Slot> slots;
    const std::function<void(std::size_t)>* parse = nullptr;
    std::mutex m;
    std::condition_variable done_cv;

    /// Parses index i, unless another thread claimed it first.
    void run(std::size_t i) {
      int queued = kQueued;
      if (!slots[i].state.compare_exchange_strong(queued, kRunning)) return;
      try {
        (*parse)(i);
      } catch (...) {
        slots[i].error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(m);
        slots[i].state.store(kDone);
      }
      done_cv.notify_all();
    }
    void wait(std::size_t i) {
      std::unique_lock<std::mutex> lock(m);
      done_cv.wait(lock, [&] { return slots[i].state.load() == kDone; });
    }
  };
  auto state = std::make_shared<OrderedState>(n);
  state->parse = &parse;
  // On every way out, no index starts any more and the running ones
  // finish, so `parse` and the caller's staging outlive every parse.
  struct Settle {
    OrderedState& s;
    ~Settle() {
      for (Slot& slot : s.slots) {
        int queued = kQueued;
        slot.state.compare_exchange_strong(queued, kDone);
      }
      for (std::size_t i = 0; i < s.slots.size(); ++i) s.wait(i);
      // Parse errors are released here, so an error rethrown to the
      // caller is never freed by a worker that drops the state last.
      for (Slot& slot : s.slots) slot.error = nullptr;
    }
  } settle{*state};

  const auto submit = [&](std::size_t i) {
    enqueue([state, i] { state->run(i); });
  };
  for (std::size_t i = 0; i < std::min(window, n); ++i) submit(i);
  for (std::size_t i = 0; i < n; ++i) {
    state->run(i);
    state->wait(i);
    if (state->slots[i].error) std::rethrow_exception(state->slots[i].error);
    if (!apply(i)) return;
    if (i + window < n) submit(i + window);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

}  // namespace perfknow
