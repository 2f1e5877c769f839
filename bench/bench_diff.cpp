// Differential-analysis benchmark: assert_diff_facts over trial pairs of
// 1k / 10k events, and the full diff-plus-regression.rules diagnosis
// pass the CI perf gate runs per commit.
//
// The trial pairs are synthetic but shaped like real histories: every
// event present in both versions, ~1% of events regressed beyond the
// noise band, a handful improved, the rest within noise. Harness
// construction and trial building are excluded from the timed region;
// the loop measures fact derivation (BM_DiffFacts; BM_DiffFactsFull
// with full provenance and the regression rules loaded, as pkx runs it)
// or derivation plus rule matching and diagnosis (BM_DiffDiagnose).
//
// Run with --benchmark_format=json --benchmark_out=... for the CI
// artifact; the bench gate diffs the result against
// bench/baseline/bench_diff.json with pkx diff + rules/regression.rules.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "analysis/diff.hpp"
#include "profile/profile.hpp"
#include "rules/engine.hpp"
#include "rules/rulebases.hpp"

namespace {

namespace pk = perfknow;

/// One version of an n-event trial. Event e runs 100+e usec; in the
/// "current" version every 97th event regresses 2x and every 101st
/// improves 2x, so the diff finds a sparse, realistic change set. Each
/// metric past TIME ("M1", "M2", ...) is TIME scaled by its index.
pk::profile::Trial make_version(std::size_t n, bool current,
                                std::size_t metrics = 1) {
  pk::profile::Trial t(current ? "current" : "base");
  t.set_thread_count(1);
  std::vector<pk::profile::MetricId> ids{t.add_metric("TIME", "usec")};
  for (std::size_t m = 1; m < metrics; ++m) {
    ids.push_back(t.add_metric("M" + std::to_string(m), "count"));
  }
  const auto root = t.add_event("main");
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto e = t.add_event("event_" + std::to_string(i), root);
    double usec = 100.0 + static_cast<double>(i % 997);
    if (current && i % 97 == 0) usec *= 2.0;
    if (current && i % 101 == 0) usec *= 0.5;
    for (std::size_t m = 0; m < ids.size(); ++m) {
      const double v = usec * static_cast<double>(m + 1);
      t.set_inclusive(0, e, ids[m], v);
      t.set_exclusive(0, e, ids[m], v);
    }
    t.set_calls(0, e, 1, 0);
    total += usec;
  }
  for (std::size_t m = 0; m < ids.size(); ++m) {
    t.set_inclusive(0, root, ids[m], total * static_cast<double>(m + 1));
  }
  t.set_calls(0, root, 1, static_cast<double>(n));
  return t;
}

void BM_DiffFacts(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = make_version(n, false);
  const auto current = make_version(n, true);
  std::size_t facts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    pk::rules::RuleHarness harness;
    state.ResumeTiming();
    const auto summary =
        pk::analysis::assert_diff_facts(harness, base, current);
    facts += summary.facts;
    benchmark::DoNotOptimize(summary);
  }
  state.counters["facts"] =
      static_cast<double>(facts) / static_cast<double>(state.iterations());
}

/// The configuration pkx and the daemon run: full provenance and the
/// regression rulebase loaded, over n events x 8 metrics. Times fact
/// derivation only, like BM_DiffFacts.
void BM_DiffFactsFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = make_version(n, false, 8);
  const auto current = make_version(n, true, 8);
  std::size_t facts = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto harness = std::make_unique<pk::rules::RuleHarness>();
    harness->set_provenance(pk::provenance::ProvenanceMode::kFull);
    pk::rules::builtin::use(*harness, pk::rules::builtin::regression());
    state.ResumeTiming();
    const auto summary =
        pk::analysis::assert_diff_facts(*harness, base, current);
    facts += summary.facts;
    benchmark::DoNotOptimize(summary);
    state.PauseTiming();
    harness.reset();  // teardown outside the timed region
    state.ResumeTiming();
  }
  state.counters["facts"] =
      static_cast<double>(facts) / static_cast<double>(state.iterations());
}

void BM_DiffDiagnose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto base = make_version(n, false);
  const auto current = make_version(n, true);
  std::size_t diagnoses = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto harness = std::make_unique<pk::rules::RuleHarness>();
    pk::rules::builtin::use(*harness, pk::rules::builtin::regression());
    state.ResumeTiming();
    pk::analysis::assert_diff_facts(*harness, base, current);
    harness->process_rules();
    diagnoses += harness->diagnoses().size();
    benchmark::DoNotOptimize(harness->diagnoses());
    state.PauseTiming();
    harness.reset();  // teardown outside the timed region
    state.ResumeTiming();
  }
  state.counters["diagnoses"] = static_cast<double>(diagnoses) /
                                static_cast<double>(state.iterations());
}

}  // namespace

BENCHMARK(BM_DiffFacts)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DiffFactsFull)->Arg(2000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DiffDiagnose)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
