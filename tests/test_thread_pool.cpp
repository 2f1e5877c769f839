// Tests for the common::ThreadPool parallel_for and ordered_for
// primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/operations.hpp"
#include "common/thread_pool.hpp"
#include "profile/profile.hpp"

namespace pk = perfknow;

TEST(ThreadPool, ZeroTasksReturnsImmediately) {
  pk::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NoWorkersRunsInlineInOrder) {
  pk::ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  std::vector<std::size_t> seen;
  pool.parallel_for(8, [&](std::size_t i) { seen.push_back(i); });
  std::vector<std::size_t> want(8);
  std::iota(want.begin(), want.end(), 0u);
  EXPECT_EQ(seen, want);  // inline fallback preserves index order
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  pk::ThreadPool pool(4);
  constexpr std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, OversubscriptionManyMoreTasksThanThreads) {
  pk::ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  constexpr std::size_t n = 50000;
  pool.parallel_for(n, [&](std::size_t i) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  // The pool must be reusable after a big run.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPool, PropagatesBodyException) {
  pk::ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [](std::size_t i) {
                          if (i == 537) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // Still usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for(16, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 16);
}

TEST(ThreadPool, RethrowsLowestChunkExceptionDeterministically) {
  pk::ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    try {
      pool.parallel_for(1024, [](std::size_t i) {
        if (i == 3) throw std::runtime_error("low");
        if (i >= 900) throw std::logic_error("high");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "low");  // lowest chunk wins every time
    }
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  pk::ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPool, GrainRunsSmallRangesInline) {
  pk::ThreadPool pool(2);
  std::vector<std::size_t> seen;  // unsynchronized on purpose: must be inline
  pool.parallel_for(4, [&](std::size_t i) { seen.push_back(i); },
                    /*grain=*/8);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, SharedPoolExists) {
  auto& pool = pk::ThreadPool::shared();
  std::atomic<int> n{0};
  pool.parallel_for(32, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 32);
}

// ordered_for applies every index once, in order, on the caller, and
// never lets a parse run more than `window` indices ahead of the applies,
// with or without workers.
TEST(ThreadPool, OrderedForAppliesInOrderWithinTheWindow) {
  for (const std::size_t workers : {0u, 1u, 3u}) {
    for (const std::size_t window : {1u, 2u, 4u}) {
      pk::ThreadPool pool(workers);
      constexpr std::size_t n = 200;
      std::vector<std::size_t> staged(window);
      std::vector<std::size_t> applied;
      std::atomic<std::size_t> applied_count{0};
      std::atomic<std::size_t> too_far{0};
      const auto caller = std::this_thread::get_id();
      bool off_caller = false;
      pool.ordered_for(
          n, window,
          [&](std::size_t i) {
            if (i >= applied_count.load() + window) too_far.fetch_add(1);
            staged[i % window] = i * 3;
          },
          [&](std::size_t i) {
            off_caller |= std::this_thread::get_id() != caller;
            applied.push_back(staged[i % window] / 3);
            applied_count.store(i + 1);
            return true;
          });
      std::vector<std::size_t> want(n);
      std::iota(want.begin(), want.end(), 0u);
      EXPECT_EQ(applied, want) << workers << " workers, window " << window;
      EXPECT_EQ(too_far.load(), 0u) << workers << " workers, window "
                                    << window;
      EXPECT_FALSE(off_caller);
    }
  }
}

// The first failure in index order wins: a parse error is rethrown in
// place of its apply, after every earlier apply ran, and an apply error
// ends the loop before a later parse error is seen. No parse still runs
// once the call has thrown.
TEST(ThreadPool, OrderedForThrowsTheFirstFailureInIndexOrder) {
  pk::ThreadPool pool(3);
  for (const std::size_t bad : {0u, 1u, 5u, 6u, 49u}) {
    std::size_t applied = 0;
    std::atomic<int> running{0};
    try {
      pool.ordered_for(
          50, 4,
          [&](std::size_t i) {
            running.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            running.fetch_sub(1);
            if (i == bad || i == bad + 2) {
              throw std::runtime_error("parse " + std::to_string(i));
            }
          },
          [&](std::size_t) {
            ++applied;
            return true;
          });
      ADD_FAILURE() << "no error for " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "parse " + std::to_string(bad));
    }
    EXPECT_EQ(applied, bad);
    EXPECT_EQ(running.load(), 0);
  }
  try {
    pool.ordered_for(
        50, 4,
        [&](std::size_t i) {
          if (i == 9) throw std::runtime_error("parse 9");
        },
        [&](std::size_t i) {
          if (i == 7) throw std::runtime_error("apply 7");
          return true;
        });
    ADD_FAILURE() << "no error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "apply 7");
  }
}

// An apply that returns false ends the loop: nothing later is applied,
// and at most a window's worth of later indices was ever parsed.
TEST(ThreadPool, OrderedForStopsWhenApplyReturnsFalse) {
  pk::ThreadPool pool(3);
  std::atomic<std::size_t> parsed{0};
  std::vector<std::size_t> applied;
  pool.ordered_for(
      1000, 4, [&](std::size_t) { parsed.fetch_add(1); },
      [&](std::size_t i) {
        applied.push_back(i);
        return i < 10;
      });
  EXPECT_EQ(applied.size(), 11u);
  EXPECT_EQ(applied.back(), 10u);
  EXPECT_LE(parsed.load(), 11u + 4u);
}

// Inside a pool task, ordered_for runs inline rather than waiting on
// the queue its own thread drains.
TEST(ThreadPool, NestedOrderedForDoesNotDeadlock) {
  pk::ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.ordered_for(
        16, 3, [&](std::size_t) {},
        [&](std::size_t i) {
          total.fetch_add(i);
          return true;
        });
  });
  EXPECT_EQ(total.load(), 8u * 120u);
}

TEST(ThreadPool, ParallelAnalysisBitIdenticalToSerial) {
  // The parallelized analysis primitives must produce bit-for-bit the
  // values the original serial loops produced: each index computes the
  // same thing in the same order, only on a different thread. Values are
  // chosen non-representable (1/3 steps) so any reassociation would show.
  pk::profile::Trial trial("pool-identity");
  trial.set_thread_count(7);
  const auto ma = trial.add_metric("A");
  const auto mb = trial.add_metric("B");
  for (int e = 0; e < 11; ++e) {
    trial.add_event("ev" + std::to_string(e));
  }
  for (std::size_t t = 0; t < 7; ++t) {
    for (pk::profile::EventId e = 0; e < 11; ++e) {
      trial.set_inclusive(t, e, ma, double(t * 11 + e) / 3.0);
      trial.set_inclusive(t, e, mb, double(t + e) / 7.0 + 0.1);
      trial.set_exclusive(t, e, ma, double(t * 3 + e) / 9.0);
      trial.set_exclusive(t, e, mb, double(t) / 11.0 + 1.0);
    }
  }
  const auto d = pk::analysis::derive_metric(trial, "A", "B",
                                             pk::analysis::DeriveOp::kDivide);
  for (std::size_t t = 0; t < 7; ++t) {
    for (pk::profile::EventId e = 0; e < 11; ++e) {
      EXPECT_EQ(trial.inclusive(t, e, d),
                trial.inclusive(t, e, ma) / trial.inclusive(t, e, mb));
    }
  }
  const auto stats = pk::analysis::basic_statistics(trial, "A",
                                                    /*exclusive=*/false);
  ASSERT_EQ(stats.size(), 11u);
  for (pk::profile::EventId e = 0; e < 11; ++e) {
    // The serial oracle: the single-event primitive computed inline.
    const auto one =
        pk::analysis::event_statistics(trial, e, "A", /*exclusive=*/false);
    EXPECT_EQ(stats[e].mean, one.mean);
    EXPECT_EQ(stats[e].stddev, one.stddev);
    EXPECT_EQ(stats[e].total, one.total);
  }
  // Strided series views read the same cells the copying accessors copy.
  for (pk::profile::EventId e = 0; e < 11; ++e) {
    const auto view = trial.inclusive_series(e, ma);
    const auto copy = trial.inclusive_across_threads(e, ma);
    ASSERT_EQ(view.size(), copy.size());
    for (std::size_t t = 0; t < copy.size(); ++t) {
      EXPECT_EQ(view[t], copy[t]);
    }
  }
}
