// Tests for the analysis operations: derived metrics, statistics,
// correlation, differencing, scalability, clustering and fact bridges.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/clustering.hpp"
#include "analysis/facts.hpp"
#include "analysis/pca.hpp"
#include "analysis/operations.hpp"
#include "common/error.hpp"
#include "rules/engine.hpp"
#include "telemetry/telemetry.hpp"

namespace pk = perfknow;
using pk::analysis::DeriveOp;
using pk::profile::Trial;

namespace {

std::shared_ptr<Trial> scaling_trial(std::size_t threads, double total,
                                     double loop_time) {
  auto t = std::make_shared<Trial>(std::to_string(threads) + "t");
  t->set_thread_count(threads);
  const auto time = t->add_metric("TIME", "usec");
  const auto main = t->add_event("main");
  const auto loop = t->add_event("loop", main);
  const auto serial = t->add_event("serial_part", main);
  for (std::size_t th = 0; th < threads; ++th) {
    t->set_inclusive(th, main, time, total);
    t->set_exclusive(th, main, time, total - loop_time - 50.0);
    t->set_exclusive(th, loop, time, loop_time);
    t->set_inclusive(th, loop, time, loop_time);
    t->set_exclusive(th, serial, time, 50.0);
    t->set_inclusive(th, serial, time, 50.0);
  }
  return t;
}

Trial two_metric_trial() {
  Trial t("derive");
  t.set_thread_count(2);
  const auto a = t.add_metric("A");
  const auto b = t.add_metric("B");
  const auto e = t.add_event("ev");
  t.set_exclusive(0, e, a, 10.0);
  t.set_exclusive(0, e, b, 4.0);
  t.set_inclusive(0, e, a, 20.0);
  t.set_inclusive(0, e, b, 5.0);
  t.set_exclusive(1, e, a, 8.0);
  t.set_exclusive(1, e, b, 0.0);  // division-by-zero case
  return t;
}

}  // namespace

TEST(DeriveMetric, AllOperatorsAndNaming) {
  Trial t = two_metric_trial();
  const auto e = t.event_id("ev");
  const auto div = pk::analysis::derive_metric(t, "A", "B", DeriveOp::kDivide);
  EXPECT_EQ(t.metric(div).name, "(A / B)");
  EXPECT_TRUE(t.metric(div).derived);
  EXPECT_DOUBLE_EQ(t.exclusive(0, e, div), 2.5);
  EXPECT_DOUBLE_EQ(t.inclusive(0, e, div), 4.0);
  EXPECT_DOUBLE_EQ(t.exclusive(1, e, div), 0.0);  // x/0 -> 0 by contract

  const auto add = pk::analysis::derive_metric(t, "A", "B", DeriveOp::kAdd);
  EXPECT_DOUBLE_EQ(t.exclusive(0, e, add), 14.0);
  const auto sub =
      pk::analysis::derive_metric(t, "A", "B", DeriveOp::kSubtract);
  EXPECT_DOUBLE_EQ(t.exclusive(0, e, sub), 6.0);
  const auto mul =
      pk::analysis::derive_metric(t, "A", "B", DeriveOp::kMultiply);
  EXPECT_DOUBLE_EQ(t.exclusive(0, e, mul), 40.0);

  // Idempotent: deriving again returns the same column.
  EXPECT_EQ(pk::analysis::derive_metric(t, "A", "B", DeriveOp::kDivide),
            div);
  EXPECT_THROW(pk::analysis::derive_metric(t, "A", "NOPE", DeriveOp::kAdd),
               pk::NotFoundError);
}

TEST(DeriveMetric, NestedDerivationMatchesInefficiencyFormula) {
  // Inefficiency = FP_OPS * (BACK_END_BUBBLE_ALL / CPU_CYCLES).
  Trial t("ineff");
  t.set_thread_count(1);
  const auto fp = t.add_metric("FP_OPS");
  const auto st = t.add_metric("BACK_END_BUBBLE_ALL");
  const auto cy = t.add_metric("CPU_CYCLES");
  const auto e = t.add_event("ev");
  t.set_exclusive(0, e, fp, 100.0);
  t.set_exclusive(0, e, st, 30.0);
  t.set_exclusive(0, e, cy, 60.0);
  pk::analysis::derive_metric(t, "BACK_END_BUBBLE_ALL", "CPU_CYCLES",
                              DeriveOp::kDivide);
  const auto ineff = pk::analysis::derive_metric(
      t, "FP_OPS", "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
      DeriveOp::kMultiply);
  EXPECT_EQ(t.metric(ineff).name,
            "(FP_OPS * (BACK_END_BUBBLE_ALL / CPU_CYCLES))");
  EXPECT_DOUBLE_EQ(t.exclusive(0, e, ineff), 50.0);
}

TEST(ScaleMetric, MultipliesEverything) {
  Trial t = two_metric_trial();
  const auto s = pk::analysis::scale_metric(t, "A", 2.0, "A_x2");
  EXPECT_DOUBLE_EQ(t.exclusive(0, t.event_id("ev"), s), 20.0);
}

TEST(Statistics, PerEventAcrossThreads) {
  Trial t("stats");
  t.set_thread_count(4);
  const auto m = t.add_metric("TIME");
  const auto e = t.add_event("ev");
  const double vals[] = {10, 20, 30, 40};
  for (std::size_t th = 0; th < 4; ++th) {
    t.set_exclusive(th, e, m, vals[th]);
  }
  const auto s = pk::analysis::event_statistics(t, e, "TIME");
  EXPECT_DOUBLE_EQ(s.mean, 25.0);
  EXPECT_DOUBLE_EQ(s.min, 10.0);
  EXPECT_DOUBLE_EQ(s.max, 40.0);
  EXPECT_DOUBLE_EQ(s.total, 100.0);
  EXPECT_NEAR(s.cv, 0.4472, 1e-3);
  EXPECT_EQ(pk::analysis::basic_statistics(t, "TIME").size(), 1u);
}

TEST(Statistics, TopEventsOrdering) {
  const auto t = scaling_trial(2, 1000, 700);
  const auto top = pk::analysis::top_events(*t, "TIME", 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].name, "loop");
  EXPECT_EQ(top[1].name, "main");
}

TEST(Statistics, RuntimeFraction) {
  const auto t = scaling_trial(2, 1000, 700);
  EXPECT_DOUBLE_EQ(
      pk::analysis::runtime_fraction(*t, t->event_id("loop")), 0.7);
  EXPECT_DOUBLE_EQ(
      pk::analysis::runtime_fraction(*t, t->event_id("serial_part")), 0.05);
}

TEST(Correlation, NegativeAcrossThreads) {
  Trial t("corr");
  t.set_thread_count(4);
  const auto m = t.add_metric("TIME");
  const auto outer = t.add_event("outer");
  const auto inner = t.add_event("inner", outer);
  // Work+wait sums constant per thread: perfect negative correlation.
  const double work[] = {10, 20, 30, 40};
  for (std::size_t th = 0; th < 4; ++th) {
    t.set_exclusive(th, inner, m, work[th]);
    t.set_exclusive(th, outer, m, 50.0 - work[th]);
  }
  EXPECT_NEAR(pk::analysis::correlate_events(t, outer, inner, "TIME"), -1.0,
              1e-12);
}

TEST(Difference, PerformanceAlgebra) {
  const auto a = scaling_trial(2, 1000, 700);
  const auto b = scaling_trial(2, 800, 500);
  const auto diff = pk::analysis::difference(*a, *b, "TIME");
  EXPECT_DOUBLE_EQ(diff.at("loop"), -200.0);
  EXPECT_DOUBLE_EQ(diff.at("serial_part"), 0.0);
}

TEST(Scalability, SpeedupAndEfficiency) {
  std::vector<pk::perfdmf::TrialPtr> trials = {
      scaling_trial(1, 1600, 1500),
      scaling_trial(2, 830, 750),
      scaling_trial(4, 430, 375),
  };
  pk::analysis::ScalabilityAnalysis sc(trials);
  const auto speedup = sc.total_speedup();
  ASSERT_EQ(speedup.size(), 3u);
  EXPECT_DOUBLE_EQ(speedup[0], 1.0);
  EXPECT_NEAR(speedup[1], 1600.0 / 830.0, 1e-12);
  const auto eff = sc.relative_efficiency();
  EXPECT_DOUBLE_EQ(eff[0], 1.0);
  EXPECT_NEAR(eff[1], 1600.0 / 830.0 / 2.0, 1e-12);
  // Per-event: the loop scales, the serial part does not.
  const auto loop_speedup = sc.event_speedup("loop");
  EXPECT_NEAR(loop_speedup[2], 4.0, 1e-12);
  const auto serial_speedup = sc.event_speedup("serial_part");
  EXPECT_NEAR(serial_speedup[2], 1.0, 1e-12);
  EXPECT_EQ(sc.events_by_baseline_cost().front(), "loop");
  EXPECT_THROW(pk::analysis::ScalabilityAnalysis({trials[0]}),
               pk::InvalidArgumentError);
}

TEST(Clustering, SeparatesTwoThreadPopulations) {
  // 6 threads: 3 "fast" and 3 "slow" with distinct event signatures.
  std::vector<std::vector<double>> rows = {
      {1, 10}, {1.2, 10.5}, {0.9, 9.8}, {8, 2}, {8.2, 2.1}, {7.9, 1.9}};
  const auto r = pk::analysis::kmeans(rows, 2);
  EXPECT_EQ(r.k(), 2u);
  EXPECT_EQ(r.assignment[0], r.assignment[1]);
  EXPECT_EQ(r.assignment[0], r.assignment[2]);
  EXPECT_EQ(r.assignment[3], r.assignment[4]);
  EXPECT_NE(r.assignment[0], r.assignment[3]);
  EXPECT_EQ(r.cluster_size(0) + r.cluster_size(1), 6u);
  EXPECT_GT(pk::analysis::silhouette(rows, r), 0.6);
}

TEST(Clustering, DeterministicAndValidated) {
  std::vector<std::vector<double>> rows = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  const auto a = pk::analysis::kmeans(rows, 2);
  const auto b = pk::analysis::kmeans(rows, 2);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_THROW(pk::analysis::kmeans(rows, 0), pk::InvalidArgumentError);
  EXPECT_THROW(pk::analysis::kmeans(rows, 5), pk::InvalidArgumentError);
  std::vector<std::vector<double>> ragged = {{1, 2}, {3}};
  EXPECT_THROW(pk::analysis::kmeans(ragged, 1), pk::InvalidArgumentError);
}

TEST(Clustering, ThreadEventMatrixFromTrial) {
  Trial t("cluster");
  t.set_thread_count(4);
  const auto m = t.add_metric("TIME");
  const auto e1 = t.add_event("a");
  const auto e2 = t.add_event("b");
  for (std::size_t th = 0; th < 4; ++th) {
    t.set_exclusive(th, e1, m, th < 2 ? 10.0 : 100.0);
    t.set_exclusive(th, e2, m, th < 2 ? 100.0 : 10.0);
  }
  const auto r = pk::analysis::cluster_threads(t, "TIME", 2);
  EXPECT_EQ(r.assignment[0], r.assignment[1]);
  EXPECT_NE(r.assignment[0], r.assignment[2]);
}

TEST(Facts, CompareEventToMainFields) {
  const auto t = scaling_trial(2, 1000, 700);
  const auto f = pk::analysis::compare_event_to_main(
      *t, "TIME", t->event_id("loop"));
  EXPECT_EQ(f.type(), "MeanEventFact");
  EXPECT_EQ(f.text("factType"), "Compared to Main");
  EXPECT_EQ(f.text("eventName"), "loop");
  EXPECT_EQ(f.text("higherLower"), "lower");  // 700 excl < 1000 main incl
  EXPECT_DOUBLE_EQ(f.number("severity"), 0.7);
  EXPECT_DOUBLE_EQ(f.number("mainValue"), 1000.0);
  EXPECT_DOUBLE_EQ(f.number("eventValue"), 700.0);
}

TEST(Facts, LoadBalanceFactsIncludeNestingAndCorrelation) {
  Trial t("lb");
  t.set_thread_count(4);
  const auto m = t.add_metric("TIME");
  const auto main = t.add_event("main");
  const auto outer = t.add_event("outer", main);
  const auto inner = t.add_event("inner", outer);
  const double work[] = {10, 20, 30, 40};
  for (std::size_t th = 0; th < 4; ++th) {
    t.set_inclusive(th, main, m, 100.0);
    t.set_exclusive(th, inner, m, work[th]);
    t.set_exclusive(th, outer, m, 50.0 - work[th]);
  }
  pk::rules::RuleHarness h;
  const auto n = pk::analysis::assert_load_balance_facts(h, t, "TIME");
  EXPECT_EQ(n, 3u + 2u + 2u);  // 3 LB facts, 2 nesting, 2 correlation
  EXPECT_EQ(h.memory().ids_of_type("LoadBalanceFact").size(), 3u);
  EXPECT_EQ(h.memory().ids_of_type("NestingFact").size(), 2u);
  const auto corr = h.memory().ids_of_type("CorrelationFact");
  ASSERT_EQ(corr.size(), 2u);
  // outer->inner correlation is -1.
  bool found = false;
  for (const auto id : corr) {
    const auto f = h.memory().find(id);
    if (f.text("eventA") == "outer" && f.text("eventB") == "inner") {
      EXPECT_NEAR(f.number("correlation"), -1.0, 1e-9);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// The nesting facts come in parent order, each parent's children in
// ascending id order, and the child index behind them looks at each
// event once in each of its three passes: the counted twin of the
// asserter's cost, which doubles with the events.
TEST(Facts, LoadBalanceChildIndexScansGrowLinearlyInEvents) {
  const auto make = [](std::size_t events) {
    Trial t("lb");
    t.set_thread_count(2);
    const auto m = t.add_metric("TIME");
    t.add_event("main");
    for (std::size_t e = 1; e < events; ++e) {
      t.add_event("e" + std::to_string(e),
                  e % 3 == 0 ? 0 : static_cast<pk::profile::EventId>(e / 2));
    }
    for (std::size_t th = 0; th < 2; ++th) {
      for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
        t.set_exclusive(th, e, m, static_cast<double>((th + 1) * (e % 7)));
      }
    }
    return t;
  };
  pk::telemetry::Counter& indexed =
      pk::telemetry::counter("analysis.child_index.scanned");
  const bool was_enabled = pk::telemetry::enabled();
  pk::telemetry::set_enabled(true);
  const auto scans = [&](std::size_t events) {
    const Trial t = make(events);
    pk::rules::RuleHarness h;
    const std::uint64_t before = indexed.value();
    pk::analysis::assert_load_balance_facts(h, t, "TIME");
    const std::uint64_t n = indexed.value() - before;
    std::vector<std::pair<std::string, std::string>> want;
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      for (pk::profile::EventId c = 0; c < t.event_count(); ++c) {
        if (t.event(c).parent == e) {
          want.emplace_back(t.event(e).name, t.event(c).name);
        }
      }
    }
    std::vector<std::pair<std::string, std::string>> got;
    for (const auto id : h.memory().ids_of_type("NestingFact")) {
      const auto f = h.memory().find(id);
      got.emplace_back(f.text("parentEvent"), f.text("childEvent"));
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(h.memory().ids_of_type("CorrelationFact").size(), want.size());
    return n;
  };
  const std::uint64_t small = scans(300);
  const std::uint64_t large = scans(600);
  pk::telemetry::set_enabled(was_enabled);
  EXPECT_EQ(small, 3 * 300u);
  EXPECT_EQ(large, 2 * small) << "300 events: " << small
                              << " scanned, 600 events: " << large;
}

TEST(Facts, StallAndLocalityFactsRequireCounterMetrics) {
  const auto t = scaling_trial(2, 100, 50);
  pk::rules::RuleHarness h;
  EXPECT_THROW(pk::analysis::assert_stall_facts(h, *t), pk::NotFoundError);
  EXPECT_THROW(pk::analysis::assert_memory_locality_facts(h, *t),
               pk::NotFoundError);
}

TEST(Facts, ScalingFactsFromAnalysis) {
  std::vector<pk::perfdmf::TrialPtr> trials = {
      scaling_trial(1, 1600, 1500), scaling_trial(4, 430, 375)};
  pk::analysis::ScalabilityAnalysis sc(trials);
  pk::rules::RuleHarness h;
  const auto n = pk::analysis::assert_scaling_facts(h, sc);
  EXPECT_EQ(n, 3u);
  bool serial_seen = false;
  for (const auto id : h.memory().ids_of_type("ScalingFact")) {
    const auto f = h.memory().find(id);
    if (f.text("eventName") == "serial_part") {
      serial_seen = true;
      EXPECT_NEAR(f.number("speedup"), 1.0, 1e-9);
      EXPECT_NEAR(f.number("efficiency"), 0.25, 1e-9);
    }
  }
  EXPECT_TRUE(serial_seen);
}

// ---------------------------------------------------------------------
// Performance algebra: merge and aggregate (CUBE-style)
// ---------------------------------------------------------------------

TEST(Algebra, MergeAveragesSharedEventsAndKeepsUniqueOnes) {
  Trial a("a");
  a.set_thread_count(2);
  const auto ma = a.add_metric("TIME");
  const auto sa = a.add_event("shared");
  const auto ua = a.add_event("only_a");
  for (std::size_t th = 0; th < 2; ++th) {
    a.set_exclusive(th, sa, ma, 10.0);
    a.set_exclusive(th, ua, ma, 4.0);
    a.set_calls(th, sa, 2, 0);
  }
  Trial b("b");
  b.set_thread_count(2);
  const auto mb = b.add_metric("TIME");
  b.add_metric("ONLY_B");  // not common: dropped
  const auto sb = b.add_event("shared");
  const auto ub = b.add_event("only_b");
  for (std::size_t th = 0; th < 2; ++th) {
    b.set_exclusive(th, sb, mb, 30.0);
    b.set_exclusive(th, ub, mb, 8.0);
    b.set_calls(th, sb, 4, 0);
  }

  const auto m = pk::analysis::merge_trials(a, b);
  EXPECT_EQ(m.thread_count(), 2u);
  EXPECT_EQ(m.metric_count(), 1u);  // only TIME is common
  const auto tm = m.metric_id("TIME");
  EXPECT_DOUBLE_EQ(m.exclusive(0, m.event_id("shared"), tm), 20.0);
  EXPECT_DOUBLE_EQ(m.exclusive(0, m.event_id("only_a"), tm), 4.0);
  EXPECT_DOUBLE_EQ(m.exclusive(0, m.event_id("only_b"), tm), 8.0);
  EXPECT_DOUBLE_EQ(m.calls(0, m.event_id("shared")).calls, 3.0);

  Trial c("c");
  c.set_thread_count(4);
  c.add_metric("TIME");
  c.add_event("x");
  EXPECT_THROW(pk::analysis::merge_trials(a, c),
               pk::InvalidArgumentError);
}

TEST(Algebra, AggregateThreadsSumAndMean) {
  Trial t("agg");
  t.set_thread_count(4);
  const auto m = t.add_metric("TIME");
  const auto main = t.add_event("main");
  const auto loop = t.add_event("loop", main);
  for (std::size_t th = 0; th < 4; ++th) {
    t.set_inclusive(th, main, m, 100.0);
    t.set_exclusive(th, loop, m, static_cast<double>(th + 1) * 10.0);
    t.set_calls(th, loop, 5, 0);
  }
  t.set_metadata("k", "v");

  const auto sum = pk::analysis::aggregate_threads(t, /*mean=*/false);
  EXPECT_EQ(sum.thread_count(), 1u);
  EXPECT_DOUBLE_EQ(sum.exclusive(0, sum.event_id("loop"), 0), 100.0);
  EXPECT_DOUBLE_EQ(sum.inclusive(0, sum.event_id("main"), 0), 400.0);
  EXPECT_DOUBLE_EQ(sum.calls(0, sum.event_id("loop")).calls, 20.0);
  // Callgraph and metadata preserved.
  EXPECT_EQ(sum.event(sum.event_id("loop")).parent, sum.event_id("main"));
  EXPECT_EQ(*sum.metadata("k"), "v");

  const auto mean = pk::analysis::aggregate_threads(t, /*mean=*/true);
  EXPECT_DOUBLE_EQ(mean.exclusive(0, mean.event_id("loop"), 0), 25.0);
}

// ---------------------------------------------------------------------
// PCA
// ---------------------------------------------------------------------

TEST(Pca, RecoversDominantAxis) {
  // Points along the (1, 1) direction with small orthogonal noise.
  std::vector<std::vector<double>> rows;
  for (int i = -5; i <= 5; ++i) {
    const double t = static_cast<double>(i);
    rows.push_back({t + 0.01 * (i % 2), t - 0.01 * (i % 2)});
  }
  const auto r = pk::analysis::pca(rows, 2);
  ASSERT_GE(r.components.size(), 1u);
  // First component ~ (1/sqrt2, 1/sqrt2).
  EXPECT_NEAR(std::abs(r.components[0][0]), std::sqrt(0.5), 3e-3);
  EXPECT_NEAR(std::abs(r.components[0][1]), std::sqrt(0.5), 3e-3);
  EXPECT_GT(r.explained_ratio[0], 0.99);
  // Projection of the extreme point is ~ +-5*sqrt(2).
  double max_proj = 0.0;
  for (const auto& p : r.projected) {
    max_proj = std::max(max_proj, std::abs(p[0]));
  }
  EXPECT_NEAR(max_proj, 5.0 * std::sqrt(2.0), 0.05);
}

TEST(Pca, ComponentsAreOrthonormalAndVarianceOrdered) {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 40; ++i) {
    const double a = static_cast<double>(i % 7) - 3.0;
    const double b = static_cast<double>(i % 5) - 2.0;
    const double c = static_cast<double>(i % 3) - 1.0;
    rows.push_back(
        {3.0 * a + 0.2 * b, 0.5 * b + c, a - b, 0.1 * a - 2.0 * c});
  }
  const auto r = pk::analysis::pca(rows, 3);
  ASSERT_EQ(r.components.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    double norm = 0.0;
    for (const double x : r.components[i]) norm += x * x;
    EXPECT_NEAR(norm, 1.0, 1e-9);
    for (std::size_t j = i + 1; j < 3; ++j) {
      double d = 0.0;
      for (std::size_t k = 0; k < 4; ++k) {
        d += r.components[i][k] * r.components[j][k];
      }
      EXPECT_NEAR(d, 0.0, 1e-6);
    }
  }
  EXPECT_GE(r.explained_variance[0], r.explained_variance[1]);
  EXPECT_GE(r.explained_variance[1], r.explained_variance[2]);
}

TEST(Pca, DegenerateInputsHandled) {
  EXPECT_THROW(pk::analysis::pca({}, 1), pk::InvalidArgumentError);
  EXPECT_THROW(pk::analysis::pca({{1.0, 2.0}}, 0),
               pk::InvalidArgumentError);
  std::vector<std::vector<double>> ragged = {{1, 2}, {3}};
  EXPECT_THROW(pk::analysis::pca(ragged, 1), pk::InvalidArgumentError);
  // Constant data: no components extractable, no crash.
  std::vector<std::vector<double>> flat(5, std::vector<double>{2.0, 2.0});
  const auto r = pk::analysis::pca(flat, 2);
  EXPECT_TRUE(r.components.empty());
  // k clamps to dimensionality.
  std::vector<std::vector<double>> thin = {{1.0}, {2.0}, {3.0}};
  EXPECT_LE(pk::analysis::pca(thin, 5).components.size(), 1u);
}

TEST(Pca, SeparatesThreadClusters) {
  // The master thread's signature differs from the workers': PCA axis 1
  // should separate them at a glance, mirroring PerfExplorer's use.
  Trial t("pca");
  t.set_thread_count(8);
  const auto m = t.add_metric("TIME");
  const auto work = t.add_event("work");
  const auto copy = t.add_event("serial_copy");
  for (std::size_t th = 0; th < 8; ++th) {
    t.set_exclusive(th, work, m, th == 0 ? 10.0 : 100.0);
    t.set_exclusive(th, copy, m, th == 0 ? 90.0 : 0.0);
  }
  const auto rows = pk::analysis::thread_event_matrix(t, "TIME", false);
  const auto r = pk::analysis::pca(rows, 1);
  ASSERT_EQ(r.components.size(), 1u);
  // Thread 0's projection is far from every worker's.
  const double t0 = r.projected[0][0];
  for (std::size_t th = 1; th < 8; ++th) {
    EXPECT_GT(std::abs(t0 - r.projected[th][0]), 50.0);
  }
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

#include "analysis/report.hpp"
#include "rules/rulebases.hpp"

TEST(Report, RendersSummaryEventsAndGroupedDiagnoses) {
  auto t = scaling_trial(4, 1000, 700);
  t->set_metadata("schedule", "static");
  pk::rules::RuleHarness h;
  h.add_rule(pk::rules::Rule{
      "always", 0,
      {pk::rules::Pattern{"LoadBalanceFact", "", {}, {}, nullptr, {}}},
      [](pk::rules::RuleContext& ctx) {
        ctx.diagnose("SomeProblem", "loop", 0.7, "do the thing");
        ctx.print("trace line");
      },
      {}});
  pk::analysis::assert_load_balance_facts(h, *t);
  h.process_rules();

  const auto md = pk::analysis::render_report(*t, &h);
  EXPECT_NE(md.find("# Performance report: 4t"), std::string::npos);
  EXPECT_NE(md.find("- schedule: static"), std::string::npos);
  EXPECT_NE(md.find("| loop |"), std::string::npos);
  EXPECT_NE(md.find("### SomeProblem (3)"), std::string::npos);
  EXPECT_NE(md.find("do the thing"), std::string::npos);
}

TEST(Report, NoHarnessAndNoDiagnoses) {
  const auto t = scaling_trial(2, 100, 50);
  const auto plain = pk::analysis::render_report(*t, nullptr);
  EXPECT_EQ(plain.find("## Diagnoses"), std::string::npos);
  pk::rules::RuleHarness empty;
  const auto quiet = pk::analysis::render_report(*t, &empty);
  EXPECT_NE(quiet.find("No rules fired"), std::string::npos);
}
