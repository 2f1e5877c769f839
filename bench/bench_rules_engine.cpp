// Rule-engine matching benchmark: naive full-rescan vs the beta-memory
// join network, over working memories of 1k / 10k / 100k facts.
//
// The workload is the shape the analysis layer produces (see
// rules_workload.hpp): selective threshold rules, inequality band rules
// no equality index can probe, a two- and a three-pattern join, and a
// chained summary rule so the engine runs multiple firing rounds.
// Harness construction, fact assertion, and teardown are excluded from
// the timed region — the loop measures process_rules, where the
// strategies actually differ.
//
// The churn variants measure incremental cycles: after an initial
// process_rules, each timed iteration retracts, modifies, and asserts
// ~1% of the facts and re-runs process_rules three times — the
// memoized-join invalidation path (sweep + delta admission) against the
// naive matcher's full re-match.
//
// Run with --benchmark_format=json --benchmark_out=... for the CI
// artifact; naive variants are only registered at small sizes because
// their joins are quadratic. CI gates (ci/check_bench.py):
//
//   BM_RulesNaive/10000     >= 20x  BM_RulesBeta/10000
//   BM_RulesBeta/10000      within 2% of BM_RulesBetaProvenanceOff/10000
//   BM_RulesBeta/10000      within 2% of BM_RulesProfilerOff/10000
//   BM_FactChurn/100000     >= 2x faster than the pinned pre-columnar
//                           report (bench_fact_churn_pre.json),
//                           geomean-normalized across the suite
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "rules/engine.hpp"
#include "rules/fact.hpp"
#include "rules_workload.hpp"

namespace {

namespace rl = perfknow::rules;

std::unique_ptr<rl::RuleHarness> make_harness(
    rl::MatchStrategy strategy, perfknow::provenance::ProvenanceMode provenance,
    const std::vector<rl::Rule>& rules, const std::vector<rl::Fact>& facts) {
  auto h = std::make_unique<rl::RuleHarness>();
  h->set_match_strategy(strategy);
  h->set_provenance(provenance);
  for (const auto& r : rules) h->add_rule(r);
  for (const auto& f : facts) h->assert_fact(f);
  return h;
}

void run_engine(benchmark::State& state, rl::MatchStrategy strategy,
                perfknow::provenance::ProvenanceMode provenance =
                    perfknow::provenance::ProvenanceMode::kOff) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto facts = perfknow::benchres::make_facts(n);
  const auto rules = perfknow::benchres::make_rules();
  std::size_t fired = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto h = make_harness(strategy, provenance, rules, facts);
    state.ResumeTiming();
    fired = h->process_rules(1u << 20);
    benchmark::DoNotOptimize(fired);
    state.PauseTiming();
    h.reset();
    state.ResumeTiming();
  }
  state.counters["facts"] = static_cast<double>(n);
  state.counters["firings"] = static_cast<double>(fired);
}

/// Churn cycles over a warmed harness: per timed iteration, three rounds
/// of retract / modify / assert over ~1% of the seed facts followed by
/// process_rules. Fact ids are deterministic (assert order), so the
/// retract/modify targets are computed, not tracked.
void run_churn(benchmark::State& state, rl::MatchStrategy strategy) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto facts = perfknow::benchres::make_facts(n);
  const auto rules = perfknow::benchres::make_rules();
  const std::size_t k = n / 100;
  std::size_t fired = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto h = make_harness(strategy, perfknow::provenance::ProvenanceMode::kOff,
                          rules, facts);
    h->process_rules(1u << 20);
    std::size_t churn_cycle = 0;
    state.ResumeTiming();
    for (std::size_t cycle = 0; cycle < 3; ++cycle) {
      // Seed facts get ids 1..n; each cycle consumes two fresh disjoint
      // id ranges, so every retract/modify target is still live.
      const rl::FactId base =
          static_cast<rl::FactId>(2 * k * cycle);
      for (std::size_t i = 0; i < k; ++i) {
        h->retract(base + static_cast<rl::FactId>(i) + 1);
      }
      for (std::size_t i = 0; i < k; ++i) {
        h->modify(base + static_cast<rl::FactId>(k + i) + 1,
                  perfknow::benchres::make_churn_fact(churn_cycle, i));
      }
      ++churn_cycle;
      for (std::size_t i = 0; i < k; ++i) {
        h->assert_fact(perfknow::benchres::make_churn_fact(churn_cycle, i));
      }
      ++churn_cycle;
      fired += h->process_rules(1u << 20);
      benchmark::DoNotOptimize(fired);
    }
    state.PauseTiming();
    h.reset();
    state.ResumeTiming();
  }
  state.counters["facts"] = static_cast<double>(n);
}

/// Live MeanEventFacts whose metric is TIME: an ids_of_type scan that
/// reads each candidate's field through its FactRef — the query a
/// matcher pass asks of working memory after a churn wave.
std::size_t count_time_facts(const rl::WorkingMemory& wm) {
  static const rl::FactValue kTime(std::string("TIME"));
  const rl::Symbol metric = wm.symbols().lookup("metric");
  std::size_t n = 0;
  for (const rl::FactId id : wm.ids_of_type("MeanEventFact")) {
    const rl::FactValue* v = wm.find(id).find_field(metric);
    if (v != nullptr && rl::values_equal(*v, kTime)) ++n;
  }
  return n;
}

/// Storage-only churn: no rules, no matching — a bare WorkingMemory
/// absorbing assert/retract/modify soup with a TIME-metric query between
/// waves, so what's timed is exactly the cost of fact storage, id-list
/// compaction and field reads. Seed facts get ids 1..n; the modify wave
/// is retract + fresh assert, which is what RuleHarness::modify
/// decomposes into.
void run_fact_churn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto facts = perfknow::benchres::make_facts(n);
  const std::size_t k = n / 100;
  std::size_t live = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto wm = std::make_unique<rl::WorkingMemory>();
    for (const auto& f : facts) wm->assert_fact(f);
    // Warm the per-type id list so every timed retract pays its
    // compaction on the next query.
    benchmark::DoNotOptimize(count_time_facts(*wm));
    std::size_t churn_cycle = 0;
    state.ResumeTiming();
    for (std::size_t cycle = 0; cycle < 3; ++cycle) {
      // Same deterministic id scheme as run_churn: each cycle consumes
      // two fresh disjoint id ranges, so every target is still live.
      const rl::FactId base = static_cast<rl::FactId>(2 * k * cycle);
      for (std::size_t i = 0; i < k; ++i) {
        wm->retract(base + static_cast<rl::FactId>(i) + 1);
      }
      for (std::size_t i = 0; i < k; ++i) {
        wm->retract(base + static_cast<rl::FactId>(k + i) + 1);
        wm->assert_fact(perfknow::benchres::make_churn_fact(churn_cycle, i));
      }
      ++churn_cycle;
      for (std::size_t i = 0; i < k; ++i) {
        wm->assert_fact(perfknow::benchres::make_churn_fact(churn_cycle, i));
      }
      ++churn_cycle;
      // Re-query so id-list compaction lands in the timed region every
      // cycle, like a matcher pass would force.
      benchmark::DoNotOptimize(count_time_facts(*wm));
    }
    live = wm->size();
    state.PauseTiming();
    wm.reset();
    state.ResumeTiming();
  }
  state.counters["facts"] = static_cast<double>(n);
  state.counters["live"] = static_cast<double>(live);
}

void BM_RulesNaive(benchmark::State& state) {
  run_engine(state, rl::MatchStrategy::kNaive);
}

void BM_RulesBeta(benchmark::State& state) {
  run_engine(state, rl::MatchStrategy::kBeta);
}

// The CI bench gate compares the Off variant against BM_RulesBeta: with
// provenance off the recorder is a null pointer and the firing loop must
// stay within 2% of the plain engine (check_bench.py --require-speedup).
void BM_RulesBetaProvenanceOff(benchmark::State& state) {
  run_engine(state, rl::MatchStrategy::kBeta,
             perfknow::provenance::ProvenanceMode::kOff);
}

void BM_RulesBetaProvenanceFull(benchmark::State& state) {
  run_engine(state, rl::MatchStrategy::kBeta,
             perfknow::provenance::ProvenanceMode::kFull);
}

// CI gate: with the rule profiler off (the default), the beta matcher
// must stay within 2% of BM_RulesBeta — the disabled-mode cost is one
// relaxed load per process_rules round plus a null pointer test per
// rule. BM_RulesProfilerOn measures the enabled cost for the record
// (not gated; attribution is opt-in diagnostics, not a hot path).
void BM_RulesProfilerOff(benchmark::State& state) {
  rl::set_profiling_enabled(false);
  run_engine(state, rl::MatchStrategy::kBeta);
}

void BM_RulesProfilerOn(benchmark::State& state) {
  rl::set_profiling_enabled(true);
  run_engine(state, rl::MatchStrategy::kBeta);
  rl::set_profiling_enabled(false);
}

void BM_FactChurn(benchmark::State& state) { run_fact_churn(state); }

void BM_RulesChurnNaive(benchmark::State& state) {
  run_churn(state, rl::MatchStrategy::kNaive);
}

void BM_RulesChurnBeta(benchmark::State& state) {
  run_churn(state, rl::MatchStrategy::kBeta);
}

// The naive join is quadratic in facts-per-group; 100k facts would take
// minutes per iteration, so only the beta network runs at that size.
BENCHMARK(BM_RulesNaive)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RulesBeta)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RulesBetaProvenanceOff)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RulesBetaProvenanceFull)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RulesProfilerOff)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RulesProfilerOn)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FactChurn)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RulesChurnNaive)->Arg(1000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RulesChurnBeta)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
