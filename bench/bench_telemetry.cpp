// Telemetry overhead benchmarks.
//
// The same source builds into two binaries:
//
//   bench_telemetry    links perfknow (telemetry compiled in) and
//                      registers BM_RulesTelemetryOff / On plus the
//                      span/counter micro-benchmarks;
//   bench_notelemetry  links perfknow_notel (PERFKNOW_NO_TELEMETRY) and
//                      registers BM_RulesNoTelemetryBuild.
//
// CI runs both, merges the JSON reports, and gates with
//
//   check_bench.py --require-speedup
//       BM_RulesNoTelemetryBuild BM_RulesTelemetryOff 0.98
//
// i.e. the no-telemetry build may be at most ~2% faster than the normal
// build with telemetry disabled at runtime — the ISSUE's "disabled-mode
// overhead <= 2%" claim, measured on the rule-engine macro workload
// (10k facts through assert_fact + process_rules, the instrumented hot
// path).
#include <benchmark/benchmark.h>

#include <cstddef>

#include "rules/engine.hpp"
#include "rules_workload.hpp"
#include "telemetry/telemetry.hpp"

namespace {

namespace rl = perfknow::rules;
namespace tel = perfknow::telemetry;

constexpr std::size_t kFacts = 10000;

void run_workload(benchmark::State& state) {
  const auto facts = perfknow::benchres::make_facts(kFacts);
  const auto rules = perfknow::benchres::make_rules();
  std::size_t fired = 0;
  for (auto _ : state) {
    rl::RuleHarness h;  // default strategy: the beta network
    for (const auto& r : rules) h.add_rule(r);
    for (const auto& f : facts) h.assert_fact(f);
    fired = h.process_rules(1u << 20);
    benchmark::DoNotOptimize(fired);
  }
  state.counters["facts"] = static_cast<double>(kFacts);
  state.counters["firings"] = static_cast<double>(fired);
}

#ifdef PERFKNOW_NO_TELEMETRY

// Telemetry compiled out: the reference the disabled-mode overhead is
// measured against.
void BM_RulesNoTelemetryBuild(benchmark::State& state) {
  run_workload(state);
}
BENCHMARK(BM_RulesNoTelemetryBuild)->Unit(benchmark::kMillisecond);

#else  // telemetry compiled in

void BM_RulesTelemetryOff(benchmark::State& state) {
  tel::set_enabled(false);
  run_workload(state);
}
BENCHMARK(BM_RulesTelemetryOff)->Unit(benchmark::kMillisecond);

void BM_RulesTelemetryOn(benchmark::State& state) {
  tel::set_enabled(true);
  run_workload(state);
  tel::set_enabled(false);
}
BENCHMARK(BM_RulesTelemetryOn)->Unit(benchmark::kMillisecond);

// Micro-costs of the primitives themselves, per call.
void BM_SpanDisabled(benchmark::State& state) {
  tel::set_enabled(false);
  static const tel::SpanSite site("bench.span");
  for (auto _ : state) {
    tel::ScopedSpan span(site);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  tel::set_enabled(true);
  static const tel::SpanSite site("bench.span");
  for (auto _ : state) {
    tel::ScopedSpan span(site);
    benchmark::DoNotOptimize(&span);
  }
  tel::set_enabled(false);
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterDisabled(benchmark::State& state) {
  tel::set_enabled(false);
  tel::Counter& c = tel::counter("bench.counter");
  for (auto _ : state) {
    c.add();
    benchmark::DoNotOptimize(&c);
  }
}
BENCHMARK(BM_CounterDisabled);

void BM_CounterEnabled(benchmark::State& state) {
  tel::set_enabled(true);
  tel::Counter& c = tel::counter("bench.counter");
  for (auto _ : state) {
    c.add();
    benchmark::DoNotOptimize(&c);
  }
  tel::set_enabled(false);
}
BENCHMARK(BM_CounterEnabled);

#endif  // PERFKNOW_NO_TELEMETRY

}  // namespace

BENCHMARK_MAIN();
