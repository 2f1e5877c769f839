// Telemetry subsystem tests: the probes themselves (spans, counters,
// rings), the Trial exporter, and the closed self-diagnosis loop —
// perfknow's own execution exported as a profile, stored as PKB,
// reloaded, and judged by the shipped self_diagnosis rulebase.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.hpp"
#include "common/error.hpp"
#include "io/format.hpp"
#include "perfdmf/repository.hpp"
#include "perfdmf/tau_format.hpp"
#include "profile/profile.hpp"
#include "rules/parser.hpp"
#include "rules/rulebases.hpp"
#include "telemetry/export.hpp"
#include "telemetry/self_analysis.hpp"
#include "telemetry/telemetry.hpp"

namespace pk = perfknow;
namespace tel = pk::telemetry;
namespace fs = std::filesystem;

namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_tel_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
  static inline int counter_ = 0;
};

/// Spans recorded on the calling thread under a given name.
std::vector<tel::SpanRecord> spans_named(const tel::Snapshot& snap,
                                         const std::string& name) {
  std::vector<tel::SpanRecord> out;
  for (const auto& r : snap.spans) {
    if (snap.names[r.name] == name) out.push_back(r);
  }
  return out;
}

std::uint64_t counter_value(const tel::Snapshot& snap,
                            const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

/// Every test starts from a clean, enabled slate (the registry is
/// process-wide and cumulative).
void fresh_start(bool enabled) {
  tel::set_enabled(false);
  tel::reset();
  tel::set_enabled(enabled);
}

}  // namespace

TEST(Telemetry, DisabledProbesAreNoOps) {
  fresh_start(false);
  tel::Counter& c = tel::counter("test.disabled_counter");
  c.add(42);
  tel::histogram("test.disabled_hist").record(7);
  {
    static const tel::SpanSite site("test.disabled_span");
    tel::ScopedSpan span(site);
  }
  const auto snap = tel::snapshot();
  EXPECT_EQ(counter_value(snap, "test.disabled_counter"), 0u);
  EXPECT_TRUE(spans_named(snap, "test.disabled_span").empty());
  for (const auto& h : snap.histograms) {
    if (h.name == "test.disabled_hist") {
      EXPECT_EQ(h.count, 0u);
    }
  }
}

TEST(Telemetry, SpansNestAndExclusiveTimePartitions) {
  fresh_start(true);
  {
    tel::ScopedSpan outer(std::string_view("test.outer"));
    {
      tel::ScopedSpan inner(std::string_view("test.inner"));
    }
  }
  tel::set_enabled(false);
  const auto snap = tel::snapshot();
  const auto outer = spans_named(snap, "test.outer");
  const auto inner = spans_named(snap, "test.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  // The inner span completes first (ring order) and owns all its time.
  EXPECT_EQ(inner[0].exclusive_ns, inner[0].duration_ns);
  // The outer span's exclusive time excludes the inner span's duration.
  EXPECT_EQ(outer[0].exclusive_ns,
            outer[0].duration_ns - inner[0].duration_ns);
  EXPECT_GE(outer[0].duration_ns, inner[0].duration_ns);
}

// The stages of an analysis that used to fall in no span: the COLS
// check of a verified read, the three asserters of the analyze
// pipeline, and the TAU writer, which no io::save_trial wraps.
TEST(Telemetry, AnalysisStagesAndTheTauWriterHaveSpans) {
  TempDir dir;
  auto t = std::make_shared<pk::profile::Trial>("staged");
  t->set_thread_count(2);
  for (const char* metric :
       {"TIME", "BACK_END_BUBBLE_ALL", "CPU_CYCLES", "L1D_STALL_CYCLES",
        "FP_STALL_CYCLES", "L3_MISSES", "REMOTE_MEMORY_ACCESSES",
        "LOCAL_MEMORY_ACCESSES"}) {
    t->add_metric(metric);
  }
  const auto main = t->add_event("main");
  t->add_event("main => loop", main);
  for (std::size_t th = 0; th < 2; ++th) {
    for (pk::profile::MetricId m = 0; m < t->metric_count(); ++m) {
      t->set_inclusive(th, main, m, 10.0 + th + m);
      t->set_exclusive(th, main, m, 4.0 + th);
      t->set_inclusive(th, main + 1, m, 6.0 + m);
      t->set_exclusive(th, main + 1, m, 6.0 - th);
    }
  }
  {
    pk::perfdmf::Repository repo;
    repo.put("app", "exp", t);
    repo.save(dir.path() / "repo");
  }
  const auto repo = pk::perfdmf::Repository::attach(dir.path() / "repo");

  fresh_start(true);
  pk::rules::RuleHarness harness;
  (void)pk::analysis::run_analysis(repo, {"app", "exp", "staged"}, {},
                                   harness);
  pk::perfdmf::write_tau_profiles(*t, "TIME", dir.path() / "tau");
  tel::set_enabled(false);
  const auto snap = tel::snapshot();
  for (const char* name :
       {"perfdmf.verify_columns", "analysis.load_balance", "analysis.stall",
        "analysis.locality", "io.write.tau"}) {
    EXPECT_EQ(spans_named(snap, name).size(), 1u) << name;
  }
}

TEST(Telemetry, CountersAndHistogramsAccumulate) {
  fresh_start(true);
  tel::Counter& c = tel::counter("test.counter");
  c.add();
  c.add(9);
  tel::Histogram& h = tel::histogram("test.hist");
  h.record(0);
  h.record(1);
  h.record(1024);
  tel::set_enabled(false);
  const auto snap = tel::snapshot();
  EXPECT_EQ(counter_value(snap, "test.counter"), 10u);
  bool found = false;
  for (const auto& hs : snap.histograms) {
    if (hs.name != "test.hist") continue;
    found = true;
    EXPECT_EQ(hs.count, 3u);
    EXPECT_EQ(hs.sum, 1025u);
    EXPECT_EQ(hs.buckets[0], 1u);   // value 0
    EXPECT_EQ(hs.buckets[1], 1u);   // value 1
    EXPECT_EQ(hs.buckets[11], 1u);  // value 1024 = bit_width 11
  }
  EXPECT_TRUE(found);
}

TEST(Telemetry, RingWraparoundKeepsNewestAndCountsDropped) {
  fresh_start(true);
  const std::size_t cap = tel::ring_capacity();
  static const tel::SpanSite site("test.wrap");
  const std::size_t emitted = cap + 100;
  for (std::size_t i = 0; i < emitted; ++i) {
    tel::ScopedSpan span(site);
  }
  tel::set_enabled(false);
  const auto snap = tel::snapshot();
  EXPECT_EQ(spans_named(snap, "test.wrap").size(), cap);
  EXPECT_GE(snap.dropped_spans, 100u);
}

TEST(Telemetry, ConcurrentEmissionWhileSnapshotting) {
  fresh_start(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 20000;
  static const tel::SpanSite site("test.concurrent");
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      tel::Counter& c = tel::counter("test.concurrent_counter");
      for (int i = 0; i < kSpansPerThread; ++i) {
        tel::ScopedSpan span(site);
        c.add();
      }
    });
  }
  // Concurrent reads must observe only whole records (seq-validated);
  // TSan checks there is no data race between writers and this reader.
  for (int i = 0; i < 50; ++i) {
    const auto snap = tel::snapshot();
    for (const auto& r : snap.spans) {
      ASSERT_LT(r.name, snap.names.size());
    }
  }
  for (auto& w : writers) w.join();
  tel::set_enabled(false);
  const auto snap = tel::snapshot();
  EXPECT_EQ(counter_value(snap, "test.concurrent_counter"),
            std::uint64_t{kThreads} * kSpansPerThread);
  // Every span was either retained in some ring or counted as dropped.
  std::uint64_t retained = spans_named(snap, "test.concurrent").size();
  EXPECT_GE(retained + snap.dropped_spans,
            std::uint64_t{kThreads} * kSpansPerThread);
}

TEST(TelemetryExport, TrialRoundTripsThroughPkb) {
  fresh_start(true);
  {
    tel::ScopedSpan outer(std::string_view("loop.outer"));
    tel::ScopedSpan inner(std::string_view("loop.inner"));
  }
  tel::counter("loop.counter").add(5);
  tel::set_enabled(false);
  const auto trial = tel::to_trial(tel::snapshot(), "roundtrip");

  TempDir dir;
  const fs::path file = dir.path() / "self.pkb";
  pk::io::save_trial(trial, file);
  const pk::profile::Trial back = pk::io::open_trial(file);

  EXPECT_EQ(back.name(), "roundtrip");
  ASSERT_TRUE(back.find_event("perfknow"));
  ASSERT_TRUE(back.find_event("loop.outer"));
  ASSERT_TRUE(back.find_event("loop.inner"));
  ASSERT_TRUE(back.find_metric("TIME"));
  ASSERT_TRUE(back.find_metric("loop.counter"));
  const auto root = *back.find_event("perfknow");
  const auto m = *back.find_metric("loop.counter");
  EXPECT_EQ(back.inclusive(0, root, m), 5.0);
  // The reloaded trial feeds the self-analysis like the live one.
  pk::rules::RuleHarness h;
  EXPECT_GE(tel::assert_self_facts(h, back), 2u);
}

TEST(SelfDiagnosis, FiresOnSyntheticDegenerateSnapshot) {
  // A hand-built "telemetry trial" describing a pathological run: the
  // cache thrashing (hit rate 4%) and the ring overflowing.
  pk::profile::Trial t("degenerate");
  t.set_thread_count(1);
  const auto time = t.add_metric("TIME", "usec");
  const auto root = t.add_event("perfknow", pk::profile::kNoEvent,
                                "TELEMETRY");
  const auto match = t.add_event("rules.match", root, "TELEMETRY");
  t.set_inclusive(0, root, time, 1000.0);
  t.set_exclusive(0, root, time, 0.0);
  t.set_calls(0, root, 1, 0);
  t.set_inclusive(0, match, time, 900.0);
  t.set_exclusive(0, match, time, 900.0);
  t.set_calls(0, match, 3, 0);
  const auto hit = t.add_metric("perfdmf.repository.cache.hit");
  const auto miss = t.add_metric("perfdmf.repository.cache.miss");
  const auto dropped = t.add_metric("telemetry.dropped_spans");
  t.set_inclusive(0, root, hit, 4.0);
  t.set_inclusive(0, root, miss, 96.0);
  t.set_inclusive(0, root, dropped, 12.0);

  pk::rules::RuleHarness h;
  pk::rules::add_rules(h, std::string(pk::rules::builtin::self_diagnosis()));
  EXPECT_GE(tel::assert_self_facts(h, t), 4u);
  h.process_rules();
  EXPECT_EQ(h.diagnoses_for("RepositoryCacheThrashing").size(), 1u);
  EXPECT_EQ(h.diagnoses_for("TelemetryRingOverflow").size(), 1u);
  const auto thrash = h.diagnoses_for("RepositoryCacheThrashing")[0];
  EXPECT_NEAR(thrash.severity, 0.96, 1e-9);
  EXPECT_FALSE(thrash.recommendation.empty());
}

TEST(SelfDiagnosis, RejectsForeignTrials) {
  pk::profile::Trial t("not telemetry");
  t.set_thread_count(1);
  t.add_metric("TIME", "usec");
  t.add_event("main");
  pk::rules::RuleHarness h;
  EXPECT_THROW(tel::assert_self_facts(h, t), pk::InvalidArgumentError);
}

// The full closed loop on real measurements, structurally deterministic:
// a budget-0 repository cache can never retain a trial, so every get()
// is a miss, the exported hit rate is 0%, and the shipped rulebase must
// diagnose RepositoryCacheThrashing on perfknow's own profile.
TEST(SelfDiagnosis, ClosedLoopDiagnosesBudgetZeroRepository) {
  TempDir dir;
  {
    pk::perfdmf::Repository repo;
    for (int i = 0; i < 4; ++i) {
      auto t = std::make_shared<pk::profile::Trial>("t" + std::to_string(i));
      t->set_thread_count(2);
      const auto m = t->add_metric("TIME", "usec");
      const auto e = t->add_event("main");
      t->set_inclusive(0, e, m, 1.0 + i);
      t->set_inclusive(1, e, m, 2.0 + i);
      t->set_calls(0, e, 1, 0);
      repo.put("app", "exp", std::move(t));
    }
    repo.save(dir.path() / "repo");
  }

  fresh_start(true);
  const pk::perfdmf::Repository cold =
      pk::perfdmf::Repository::attach(dir.path() / "repo",
                                      /*cache_budget=*/0);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) {
      (void)cold.get("app", "exp", "t" + std::to_string(i));
    }
  }
  tel::set_enabled(false);

  // Export perfknow's own run, round-trip it through the PKB store, and
  // let the shipped rules judge it.
  const auto self = tel::to_trial(tel::snapshot(), "perfknow.self");
  const fs::path file = dir.path() / "self.pkb";
  pk::io::save_trial(self, file);
  const pk::profile::Trial reloaded = pk::io::open_trial(file);

  pk::rules::RuleHarness h;
  pk::rules::add_rules(h, std::string(pk::rules::builtin::self_diagnosis()));
  ASSERT_GE(tel::assert_self_facts(h, reloaded), 1u);
  h.process_rules();
  const auto diags = h.diagnoses_for("RepositoryCacheThrashing");
  ASSERT_EQ(diags.size(), 1u);
  // 20 lookups, 0 hits: maximum severity.
  EXPECT_NEAR(diags[0].severity, 1.0, 1e-9);
  EXPECT_NE(diags[0].recommendation.find("set_cache_budget"),
            std::string::npos);
}
