// Self-observation: perfknow analyzing its own execution.
//
// The telemetry subsystem records spans and counters while perfknow
// runs; the snapshot exports as an ordinary profile::Trial, stores in
// the same PKB format as any application profile, and the shipped
// self_diagnosis rulebase judges it with the same rule engine the
// paper applies to application profiles. This example closes the loop
// deliberately badly: the repository is attached with a cache budget
// of zero, so every trial lookup misses, and the rules diagnose
// RepositoryCacheThrashing on perfknow itself.
//
// 1. Build a small on-disk repository and re-attach it with a
//    degenerate zero-byte cache budget.
// 2. Run a scripted analysis session with telemetry enabled, then write
//    a Chrome trace (chrome://tracing) of the process's telemetry.
// 3. Export the telemetry snapshot as a Trial, round-trip it through
//    the PKB store, and feed it to the self_diagnosis rules.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "perfknow.hpp"

int main() {
  using namespace perfknow;
  namespace fs = std::filesystem;

  const fs::path work = fs::temp_directory_path() / "perfknow_self_profile";
  fs::create_directories(work);

  // --- 1. a repository whose cache can never hold anything -------------
  {
    perfdmf::Repository repo;
    for (int i = 0; i < 4; ++i) {
      auto t = std::make_shared<profile::Trial>("run_" + std::to_string(i));
      t->set_thread_count(4);
      const auto m = t->add_metric("TIME", "usec");
      const auto e = t->add_event("main");
      for (std::size_t th = 0; th < 4; ++th) {
        t->set_inclusive(th, e, m, 100.0 + static_cast<double>(i));
      }
      t->set_calls(0, e, 1, 0);
      repo.put("selfdemo", "budget", std::move(t));
    }
    repo.save(work / "repo");
  }
  perfdmf::Repository repo =
      perfdmf::Repository::attach(work / "repo", /*cache_budget=*/0);

  // --- 2. a telemetry-enabled scripted session --------------------------
  const fs::path trace = work / "self_profile.trace.json";
  telemetry::set_enabled(true);
  {
    script::SessionOptions options;
    options.repository = &repo;
    script::AnalysisSession session(options);
    session.run(R"(
# thrash the zero-budget repository cache: every lookup is a miss
for round in range(5):
    for i in range(4):
        trial = Utilities.getTrial("selfdemo", "budget", "run_" + str(i))
print("telemetry enabled: " + str(Telemetry.enabled()))
)");
    for (const auto& line : session.output()) {
      std::printf("script: %s\n", line.c_str());
    }
  }
  {
    std::ofstream os(trace);
    telemetry::write_chrome_trace(telemetry::snapshot(), os);
  }
  telemetry::set_enabled(false);

  // --- 3. export, store as PKB, reload, and diagnose --------------------
  const profile::Trial self =
      telemetry::to_trial(telemetry::snapshot(), "perfknow.self");
  const fs::path pkb = work / "perfknow_self.pkb";
  io::save_trial(self, pkb);
  const profile::Trial reloaded = io::open_trial(pkb);
  std::printf("\nself profile: %zu instrumented events, stored at %s\n",
              reloaded.event_count() - 1, pkb.string().c_str());

  rules::RuleHarness harness;
  rules::add_rules(harness, std::string(rules::builtin::self_diagnosis()));
  const std::size_t facts = telemetry::assert_self_facts(harness, reloaded);
  harness.process_rules();
  std::printf("asserted %zu facts about perfknow's own run\n\ndiagnoses:\n",
              facts);
  for (const auto& d : harness.diagnoses()) {
    std::printf("  %s\n", d.to_string().c_str());
  }
  std::printf("\nchrome trace: %s (open in chrome://tracing)\n",
              trace.string().c_str());
  return harness.diagnoses().empty() ? 1 : 0;
}
