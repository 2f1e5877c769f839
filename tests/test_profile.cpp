// Unit tests for the profile data model (Trial).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "profile/profile.hpp"
#include "telemetry/telemetry.hpp"

namespace pk = perfknow;
using pk::profile::Trial;

namespace {

Trial make_small_trial() {
  Trial t("small");
  t.set_thread_count(2);
  const auto time = t.add_metric("TIME", "usec");
  const auto main = t.add_event("main");
  const auto loop = t.add_event("loop", main);
  t.set_inclusive(0, main, time, 100.0);
  t.set_exclusive(0, main, time, 40.0);
  t.set_inclusive(0, loop, time, 60.0);
  t.set_exclusive(0, loop, time, 60.0);
  t.set_inclusive(1, main, time, 120.0);
  t.set_exclusive(1, main, time, 30.0);
  t.set_inclusive(1, loop, time, 90.0);
  t.set_exclusive(1, loop, time, 90.0);
  t.set_calls(0, main, 1, 1);
  t.set_calls(0, loop, 5, 0);
  return t;
}

}  // namespace

TEST(Trial, SchemaIsIdempotent) {
  Trial t("x");
  const auto m1 = t.add_metric("TIME");
  const auto m2 = t.add_metric("TIME");
  EXPECT_EQ(m1, m2);
  const auto e1 = t.add_event("main");
  const auto e2 = t.add_event("main");
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(t.metric_count(), 1u);
  EXPECT_EQ(t.event_count(), 1u);
}

TEST(Trial, LookupsAndErrors) {
  Trial t = make_small_trial();
  EXPECT_TRUE(t.find_metric("TIME").has_value());
  EXPECT_FALSE(t.find_metric("NOPE").has_value());
  EXPECT_THROW((void)t.metric_id("NOPE"), pk::NotFoundError);
  EXPECT_THROW((void)t.event_id("nope"), pk::NotFoundError);
  EXPECT_THROW((void)t.inclusive(5, 0, 0), pk::InvalidArgumentError);
  EXPECT_THROW((void)t.inclusive(0, 99, 0), pk::InvalidArgumentError);
  EXPECT_THROW((void)t.inclusive(0, 0, 99), pk::InvalidArgumentError);
}

TEST(Trial, ValuesSurviveSchemaGrowth) {
  // Adding metrics/events after data exists must preserve the cube.
  Trial t = make_small_trial();
  const auto time = t.metric_id("TIME");
  const auto loop = t.event_id("loop");
  t.add_metric("CPU_CYCLES");
  t.add_event("extra");
  EXPECT_DOUBLE_EQ(t.inclusive(1, loop, time), 90.0);
  EXPECT_DOUBLE_EQ(t.exclusive(0, loop, time), 60.0);
  EXPECT_DOUBLE_EQ(t.calls(0, loop).calls, 5.0);
  // New cells start at zero.
  const auto extra = t.event_id("extra");
  EXPECT_DOUBLE_EQ(t.inclusive(0, extra, time), 0.0);
}

TEST(Trial, ThreadGrowthAllowedShrinkForbidden) {
  Trial t = make_small_trial();
  t.set_thread_count(4);
  EXPECT_EQ(t.thread_count(), 4u);
  const auto time = t.metric_id("TIME");
  EXPECT_DOUBLE_EQ(t.inclusive(3, t.event_id("main"), time), 0.0);
  EXPECT_DOUBLE_EQ(t.inclusive(0, t.event_id("main"), time), 100.0);
  EXPECT_THROW(t.set_thread_count(1), pk::InvalidArgumentError);
}

TEST(Trial, AcrossThreadsAndMeans) {
  const Trial t = make_small_trial();
  const auto time = t.metric_id("TIME");
  const auto loop = t.event_id("loop");
  const auto xs = t.exclusive_across_threads(loop, time);
  ASSERT_EQ(xs.size(), 2u);
  EXPECT_DOUBLE_EQ(xs[0], 60.0);
  EXPECT_DOUBLE_EQ(xs[1], 90.0);
  EXPECT_DOUBLE_EQ(t.mean_exclusive(loop, time), 75.0);
  EXPECT_DOUBLE_EQ(t.mean_inclusive(t.event_id("main"), time), 110.0);
}

TEST(Trial, CallgraphQueries) {
  Trial t = make_small_trial();
  const auto main = t.event_id("main");
  const auto loop = t.event_id("loop");
  const auto inner = t.add_event("inner", loop);
  EXPECT_TRUE(t.is_nested_under(inner, main));
  EXPECT_TRUE(t.is_nested_under(loop, main));
  EXPECT_FALSE(t.is_nested_under(main, loop));
  const auto kids = t.children_of(main);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0], loop);
}

TEST(Trial, MainEventPrefersName) {
  Trial t = make_small_trial();
  EXPECT_EQ(t.main_event(), t.event_id("main"));
}

TEST(Trial, MainEventFallsBackToLargestInclusive) {
  Trial t("anon");
  t.set_thread_count(1);
  const auto m = t.add_metric("TIME");
  const auto a = t.add_event("worker_a");
  const auto b = t.add_event("driver");
  t.set_inclusive(0, a, m, 10.0);
  t.set_inclusive(0, b, m, 100.0);
  EXPECT_EQ(t.main_event(), b);
}

TEST(Trial, MainEventOnEmptyTrialThrows) {
  Trial t("empty");
  EXPECT_THROW((void)t.main_event(), pk::NotFoundError);
}

TEST(Trial, AccumulateAddsUp) {
  Trial t("acc");
  t.set_thread_count(1);
  const auto m = t.add_metric("TIME");
  const auto e = t.add_event("ev");
  t.accumulate_exclusive(0, e, m, 5.0);
  t.accumulate_exclusive(0, e, m, 7.0);
  t.accumulate_inclusive(0, e, m, 12.0);
  t.accumulate_calls(0, e, 1, 2);
  t.accumulate_calls(0, e, 1, 3);
  EXPECT_DOUBLE_EQ(t.exclusive(0, e, m), 12.0);
  EXPECT_DOUBLE_EQ(t.inclusive(0, e, m), 12.0);
  EXPECT_DOUBLE_EQ(t.calls(0, e).calls, 2.0);
  EXPECT_DOUBLE_EQ(t.calls(0, e).subcalls, 5.0);
}

TEST(Trial, Metadata) {
  Trial t("md");
  t.set_metadata("schedule", "dynamic,1");
  ASSERT_TRUE(t.metadata("schedule").has_value());
  EXPECT_EQ(*t.metadata("schedule"), "dynamic,1");
  EXPECT_FALSE(t.metadata("absent").has_value());
  t.set_metadata("schedule", "static");
  EXPECT_EQ(*t.metadata("schedule"), "static");
}

TEST(Trial, BadParentInAddEventThrows) {
  Trial t("bad");
  EXPECT_THROW(t.add_event("x", 42), pk::InvalidArgumentError);
}

// Building a trial event by event after set_thread_count (what the TAU,
// JSON and CSV readers do) must grow linearly: 4x the events costs ~4x,
// while re-laying-out the values on every add_event would cost ~16x.
// The bound of 8 leaves room for cache effects and a noisy host.
TEST(Trial, BuildingThreadsFirstGrowsLinearly) {
  constexpr std::size_t kThreads = 256;
  const auto build_ms = [](std::size_t events) {
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      Trial t("growth");
      t.set_thread_count(kThreads);
      const auto time = t.add_metric("TIME", "usec");
      for (std::size_t e = 0; e < events; ++e) {
        const auto id = t.add_event("ev" + std::to_string(e));
        for (std::size_t th = 0; th < kThreads; ++th) {
          t.set_inclusive(th, id, time, static_cast<double>(th + e));
          t.set_exclusive(th, id, time, static_cast<double>(th));
        }
      }
      const std::chrono::duration<double, std::milli> ms =
          std::chrono::steady_clock::now() - t0;
      if (rep == 0 || ms.count() < best) best = ms.count();
    }
    return best;
  };
  const double small = build_ms(1000);
  const double large = build_ms(4000);
  EXPECT_LT(large / small, 8.0)
      << "1000 events: " << small << " ms, 4000 events: " << large << " ms";
}

// The counted-work twin of the timing test above: doubling the row
// stride makes 4x the events cost two more relayouts (telemetry counter
// "profile.trial.relayout"), where relaying out on every add_event would
// cost 3000 more.
TEST(Trial, BuildingThreadsFirstRelaysOutLogarithmically) {
  pk::telemetry::Counter& relayouts =
      pk::telemetry::counter("profile.trial.relayout");
  const bool was_enabled = pk::telemetry::enabled();
  pk::telemetry::set_enabled(true);
  const auto count = [&](std::size_t events) {
    const std::uint64_t before = relayouts.value();
    Trial t("growth");
    t.set_thread_count(4);
    const auto time = t.add_metric("TIME", "usec");
    for (std::size_t e = 0; e < events; ++e) {
      const auto id = t.add_event("ev" + std::to_string(e));
      t.set_inclusive(0, id, time, static_cast<double>(e));
    }
    return relayouts.value() - before;
  };
  const std::uint64_t small = count(1000);
  const std::uint64_t large = count(4000);
  pk::telemetry::set_enabled(was_enabled);
  EXPECT_GT(small, 0u);
  EXPECT_LE(large, small + 2)
      << "1000 events: " << small << " relayouts, 4000 events: " << large;
}

TEST(Trial, ReservedEventsAddWithoutSlackOrRelayout) {
  Trial t("reserved");
  t.set_thread_count(3);
  t.reserve_events(5);
  const auto time = t.add_metric("TIME", "usec");
  EXPECT_EQ(t.row_stride(), 5u);
  for (int e = 0; e < 5; ++e) {
    const auto id = t.add_event("ev" + std::to_string(e));
    for (std::size_t th = 0; th < 3; ++th) {
      t.set_inclusive(th, id, time, 10.0 * e + static_cast<double>(th));
    }
  }
  EXPECT_EQ(t.row_stride(), 5u);
  t.reserve_events(2);  // never shrinks
  EXPECT_EQ(t.row_stride(), 5u);
  const auto sixth = t.add_event("ev5");  // grows geometrically again
  EXPECT_GT(t.row_stride(), 5u);
  EXPECT_EQ(t.inclusive(2, t.event_id("ev4"), time), 42.0);
  EXPECT_EQ(t.inclusive(1, sixth, time), 0.0);
}

// Callpath names share long "main => ..." prefixes; the name index must
// still tell them apart by the whole name, answer string_view lookups
// without a copy, and keep its add-or-find contract.
TEST(Trial, EventIndexFindsExactNamesSharingLongPrefixes) {
  std::string prefix = "main";
  for (int depth = 0; depth < 12; ++depth) {
    prefix += " => solver_stage_" + std::to_string(depth);
  }
  prefix += " => ";
  constexpr std::size_t kEvents = 2000;
  Trial t("callpaths");
  t.reserve_events(kEvents);
  const auto root = t.add_event("main");
  for (std::size_t e = 1; e < kEvents; ++e) {
    EXPECT_EQ(t.add_event(prefix + "leaf_" + std::to_string(e), root), e);
  }
  ASSERT_EQ(t.event_count(), kEvents);
  for (std::size_t e = 1; e < kEvents; ++e) {
    const std::string name = prefix + "leaf_" + std::to_string(e);
    const auto id = t.find_event(std::string_view(name));
    ASSERT_TRUE(id.has_value()) << name;
    EXPECT_EQ(*id, e);
    EXPECT_EQ(t.event(*id).name, name);
  }
  // Names that are prefixes of one another are distinct events.
  EXPECT_EQ(t.find_event(prefix + "leaf_19"), 19u);
  EXPECT_EQ(t.find_event(prefix + "leaf_199"), 199u);
  EXPECT_EQ(t.find_event(prefix + "leaf_1999"), 1999u);
  // Misses: the bare prefix, a name one character short or long of a
  // stored one, and an id past the last.
  EXPECT_FALSE(t.find_event(prefix).has_value());
  EXPECT_FALSE(t.find_event(prefix + "leaf_1999x").has_value());
  EXPECT_FALSE(t.find_event(prefix + "leaf_").has_value());
  EXPECT_FALSE(t.find_event(prefix + "leaf_2000").has_value());
  EXPECT_FALSE(t.find_event(std::string_view{}).has_value());
  const std::string padded = "  " + prefix + "leaf_7";
  EXPECT_FALSE(
      t.find_event(std::string_view(padded).substr(1)).has_value());
  EXPECT_EQ(t.find_event(std::string_view(padded).substr(2)), 7u);
  // Re-adding a name returns the earlier id, whatever parent or group
  // the second call names, and adds nothing.
  EXPECT_EQ(t.add_event(prefix + "leaf_42", pk::profile::kNoEvent, "LOOP"),
            42u);
  EXPECT_EQ(t.add_event("main"), root);
  EXPECT_EQ(t.event_count(), kEvents);
  EXPECT_EQ(t.event(42).parent, root);
  // A name whose add_event threw "bad parent id" was not kept: it stays
  // unknown and can be added again with a valid parent.
  const std::string orphan = prefix + "orphan";
  EXPECT_THROW(t.add_event(orphan, static_cast<pk::profile::EventId>(kEvents)),
               pk::InvalidArgumentError);
  EXPECT_FALSE(t.find_event(orphan).has_value());
  EXPECT_EQ(t.event_count(), kEvents);
  EXPECT_EQ(t.add_event(orphan, root), kEvents);
  EXPECT_EQ(t.event_id(orphan), kEvents);
  EXPECT_EQ(t.event(kEvents).parent, root);
}
