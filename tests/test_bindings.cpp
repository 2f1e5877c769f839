// Tests for the PerfExplorer script bindings — including the paper's
// Fig. 1 script, ported line-for-line.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>

#include "analysis/diff.hpp"
#include "common/error.hpp"
#include "hwcounters/counters.hpp"
#include "perfdmf/repository.hpp"
#include "rules/engine.hpp"
#include "script/bindings.hpp"

namespace pk = perfknow;
using pk::perfdmf::Repository;
using pk::profile::Trial;
using pk::script::AnalysisSession;

namespace {

// A trial shaped like the paper's: one hot event with a high stall rate
// (>10% of runtime), others healthy.
std::shared_ptr<Trial> make_stall_trial() {
  auto t = std::make_shared<Trial>("1_8");
  t->set_thread_count(4);
  const auto time = t->add_metric("TIME", "usec");
  const auto cyc = t->add_metric("CPU_CYCLES");
  const auto stall = t->add_metric("BACK_END_BUBBLE_ALL");
  const auto main = t->add_event("main");
  const auto hot = t->add_event("exchange_var__", main);
  const auto cold = t->add_event("matxvec", main);
  for (std::size_t th = 0; th < 4; ++th) {
    t->set_inclusive(th, main, time, 1000.0);
    t->set_exclusive(th, main, time, 100.0);
    t->set_inclusive(th, main, cyc, 1.5e9);
    t->set_exclusive(th, main, cyc, 1e8);
    t->set_inclusive(th, main, stall, 4.0e8);

    t->set_inclusive(th, hot, time, 500.0);
    t->set_exclusive(th, hot, time, 500.0);  // 50% of runtime
    t->set_inclusive(th, hot, cyc, 7e8);
    t->set_exclusive(th, hot, cyc, 7e8);
    t->set_inclusive(th, hot, stall, 3.5e8);  // 0.5 stalls/cycle
    t->set_exclusive(th, hot, stall, 3.5e8);

    t->set_inclusive(th, cold, time, 400.0);
    t->set_exclusive(th, cold, time, 400.0);
    t->set_inclusive(th, cold, cyc, 7e8);
    t->set_exclusive(th, cold, cyc, 7e8);
    t->set_inclusive(th, cold, stall, 3.5e7);  // 0.05 stalls/cycle
    t->set_exclusive(th, cold, stall, 3.5e7);
  }
  return t;
}

}  // namespace

TEST(Bindings, Figure1ScriptEndToEnd) {
  Repository repo;
  repo.put("Fluid Dynamic", "rib 45", make_stall_trial());
  AnalysisSession session(pk::script::SessionOptions{&repo});

  // The paper's Fig. 1 script, ported to PerfScript (same call surface).
  session.run(R"(
# create a rulebase for processing
ruleHarness = RuleHarness.useGlobalRules("openuh/OpenUHRules.drl")
# load a trial
trial = TrialMeanResult(Utilities.getTrial("Fluid Dynamic", "rib 45", "1_8"))
# calculate the derived metric
stalls = "BACK_END_BUBBLE_ALL"
cycles = "CPU_CYCLES"
operator = DeriveMetricOperation(trial, stalls, cycles,
                                 DeriveMetricOperation.DIVIDE)
derived = operator.processData().get(0)
mainEvent = derived.getMainEvent()
# compare values to average for application
for event in derived.getEvents():
    MeanEventFact.compareEventToMain(derived, mainEvent, derived, event)
# process the rules
ruleHarness.processRules()
)");

  // The Fig. 2 rule fired for the hot event only.
  const auto& diags = session.harness().diagnoses_for("HighStallPerCycle");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].event, "exchange_var__");
  EXPECT_NEAR(diags[0].severity, 0.5, 0.01);
  // Its println-style output was emitted through the harness.
  bool found = false;
  for (const auto& line : session.output()) {
    if (line.find("exchange_var__ has a higher than average stall") !=
        std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Bindings, DerivedMetricValuesAreQuotients) {
  Repository repo;
  repo.put("app", "exp", make_stall_trial());
  AnalysisSession session(pk::script::SessionOptions{&repo});
  session.run(R"(
trial = TrialMeanResult(Utilities.getTrial("app", "exp", "1_8"))
op = DeriveMetricOperation(trial, "BACK_END_BUBBLE_ALL", "CPU_CYCLES",
                           DeriveMetricOperation.DIVIDE)
derived = op.processData().get(0)
print(derived.getMetric())
print(derived.getExclusive("exchange_var__"))
print(derived.getExclusive("matxvec"))
)");
  const auto& out = session.output();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "(BACK_END_BUBBLE_ALL / CPU_CYCLES)");
  EXPECT_DOUBLE_EQ(std::stod(out[1]), 0.5);
  EXPECT_DOUBLE_EQ(std::stod(out[2]), 0.05);
}

TEST(Bindings, TrialAccessorsAndErrors) {
  Repository repo;
  auto t = make_stall_trial();
  t->set_metadata("schedule", "static");
  repo.put("app", "exp", t);
  AnalysisSession session(pk::script::SessionOptions{&repo});
  session.run(R"(
trial = Utilities.getTrial("app", "exp", "1_8")
print(trial.getName())
print(trial.getThreadCount())
print(trial.getMetadata("schedule"))
print(trial.getMetadata("missing"))
result = TrialMeanResult(trial)
print(result.getMainEvent())
print(len(result.getEvents()))
print(result.getMetric())
)");
  const auto& out = session.output();
  EXPECT_EQ(out[0], "1_8");
  EXPECT_EQ(out[1], "4");
  EXPECT_EQ(out[2], "static");
  EXPECT_EQ(out[3], "None");
  EXPECT_EQ(out[4], "main");
  EXPECT_EQ(out[5], "3");
  EXPECT_EQ(out[6], "TIME");

  EXPECT_THROW(session.run("Utilities.getTrial('x', 'y', 'z')\n"),
               pk::NotFoundError);
  EXPECT_THROW(session.run(
                   "t = Utilities.getTrial('app', 'exp', '1_8')\n"
                   "r = TrialMeanResult(t)\n"
                   "r.setMetric('NOPE')\n"),
               pk::NotFoundError);
}

TEST(Bindings, PerThreadResultNeedsThreadArgument) {
  Repository repo;
  repo.put("app", "exp", make_stall_trial());
  AnalysisSession session(pk::script::SessionOptions{&repo});
  session.run(R"(
r = TrialResult(Utilities.getTrial("app", "exp", "1_8"))
print(r.getExclusive(2, "exchange_var__"))
)");
  EXPECT_DOUBLE_EQ(std::stod(session.output()[0]), 500.0);
}

TEST(Bindings, AssertFactAndCustomRules) {
  Repository repo;
  AnalysisSession session(pk::script::SessionOptions{&repo});
  session.run(R"(
h = RuleHarness.useGlobalRules("load_imbalance")
h.assertFact("LoadBalanceFact",
             {"eventName": "outer", "cv": 0.4, "runtimeFraction": 0.3})
h.assertFact("LoadBalanceFact",
             {"eventName": "inner", "cv": 0.5, "runtimeFraction": 0.5})
h.assertFact("NestingFact", {"parentEvent": "outer", "childEvent": "inner"})
h.assertFact("CorrelationFact",
             {"eventA": "outer", "eventB": "inner", "metric": "TIME",
              "correlation": -0.9})
fired = h.processRules()
print(fired)
for d in h.getDiagnoses():
    print(d["problem"], d["event"])
)");
  const auto& out = session.output();
  // One line of print(fired), rule output lines, then the diagnosis line.
  EXPECT_EQ(out.back(), "LoadImbalance inner");
}

TEST(Bindings, AnalysisHelpers) {
  Repository repo;
  repo.put("app", "exp", make_stall_trial());
  AnalysisSession session(pk::script::SessionOptions{&repo});
  session.run(R"(
r = TrialMeanResult(Utilities.getTrial("app", "exp", "1_8"))
print(topEvents(r, 2))
print(correlateEvents(r, "exchange_var__", "matxvec"))
lb = loadBalance(r)
print(len(lb))
n = assertLoadBalanceFacts(r)
print(n > 0)
p = estimatePower(r)
print(p["watts"] > 0 and p["joules"] > 0)
)");
  const auto& out = session.output();
  EXPECT_EQ(out[0], "['exchange_var__', 'matxvec']");
  EXPECT_EQ(out[2], "3");
  EXPECT_EQ(out[3], "True");
  EXPECT_EQ(out[4], "True");
}

TEST(Bindings, UnknownRulebaseThrows) {
  Repository repo;
  AnalysisSession session(pk::script::SessionOptions{&repo});
  EXPECT_THROW(session.run("RuleHarness.useGlobalRules('no_such_rules')\n"),
               pk::NotFoundError);
}

TEST(Bindings, RunFileMissingThrows) {
  Repository repo;
  AnalysisSession session(pk::script::SessionOptions{&repo});
  EXPECT_THROW(session.run_file("/nonexistent/script.ps"), pk::IoError);
}

TEST(Bindings, RunFilePrefixesDiagnosticsWithFileAndLine) {
  Repository repo;
  AnalysisSession session(pk::script::SessionOptions{&repo});
  const auto path = std::filesystem::temp_directory_path() /
                    ("pk_bind_err_" + std::to_string(::getpid()) + ".ps");
  {
    std::ofstream os(path);
    os << "x = 1\ny = = 2\n";
  }
  try {
    session.run_file(path);
    FAIL() << "expected ParseError";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), path.string());
    EXPECT_EQ(e.line(), 2);
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(path.string() + ":2", 0), 0u)
        << "diagnostic should read file:line: message, got: " << what;
  }
  std::filesystem::remove(path);
}

TEST(Bindings, HarnessStrategySwitchesAtRunTime) {
  Repository repo;
  repo.put("app", "exp", make_stall_trial());
  pk::script::SessionOptions opts;
  opts.repository = &repo;
  AnalysisSession session(opts);
  session.harness().set_match_strategy(pk::rules::MatchStrategy::kNaive);
  EXPECT_EQ(session.harness().match_strategy(),
            pk::rules::MatchStrategy::kNaive);
  session.run(R"(
r = TrialMeanResult(Utilities.getTrial("app", "exp", "1_8"))
print(len(loadBalance(r)))
)");
  EXPECT_EQ(session.output().back(), "3");
}

TEST(Bindings, MatchStrategyDefaultsToBetaAndIsScriptVisible) {
  Repository repo;
  pk::script::SessionOptions opts;
  opts.repository = &repo;
  AnalysisSession session(opts);
  EXPECT_EQ(session.harness().match_strategy(),
            pk::rules::MatchStrategy::kBeta);
  session.run(R"(
h = RuleHarness.getInstance()
print(h.getMatchStrategy())
h.setMatchStrategy("naive")
print(h.getMatchStrategy())
h.setMatchStrategy("beta")
print(h.getMatchStrategy())
)");
  const auto& out = session.output();
  ASSERT_GE(out.size(), 3u);
  EXPECT_EQ(out[out.size() - 3], "beta");
  EXPECT_EQ(out[out.size() - 2], "naive");
  EXPECT_EQ(out[out.size() - 1], "beta");
  EXPECT_THROW(session.run("RuleHarness.getInstance()"
                           ".setMatchStrategy(\"rete\")"),
               pk::InvalidArgumentError);
  // The retired alpha-indexed matcher's spelling is rejected too.
  EXPECT_THROW(session.run("RuleHarness.getInstance()"
                           ".setMatchStrategy(\"indexed\")"),
               pk::InvalidArgumentError);
}

TEST(Bindings, SessionOptionsRequiresRepository) {
  EXPECT_THROW(AnalysisSession{pk::script::SessionOptions{}},
               pk::InvalidArgumentError);
}

TEST(Bindings, SessionOptionsRulesPathResolvesShippedFiles) {
  Repository repo;
  pk::script::SessionOptions opts;
  opts.repository = &repo;
  opts.rules_path = std::filesystem::path(PERFKNOW_SOURCE_DIR) / "rules";
  AnalysisSession session(opts);
  session.run(R"(
h = RuleHarness.useGlobalRules("self_diagnosis.rules")
h.assertFact("TelemetryMetricFact",
             {"name": "telemetry.dropped_spans", "value": 3})
h.processRules()
for d in h.getDiagnoses():
    print(d["problem"])
)");
  EXPECT_EQ(session.output().back(), "TelemetryRingOverflow");
}

// A bare SessionOptions{&repo} must behave exactly like the removed
// one-argument constructor did: shared pool, no telemetry, default
// strategy, provenance off.
TEST(Bindings, DefaultSessionOptionsMatchHistoricalBehaviour) {
  Repository repo;
  repo.put("app", "exp", make_stall_trial());
  AnalysisSession session(pk::script::SessionOptions{&repo});
  EXPECT_EQ(&session.repository(), &repo);
  EXPECT_EQ(session.harness().provenance_mode(),
            pk::provenance::ProvenanceMode::kOff);
  session.run("print(Utilities.getTrial('app', 'exp', '1_8').getName())\n");
  EXPECT_EQ(session.output().back(), "1_8");
}

TEST(Bindings, DataMiningAndFormatHelpers) {
  Repository repo;
  repo.put("app", "exp", make_stall_trial());
  AnalysisSession session(pk::script::SessionOptions{&repo});
  const auto json_path =
      std::filesystem::temp_directory_path() /
      ("pk_bind_" + std::to_string(::getpid()) + ".json");
  const auto csv_path =
      std::filesystem::temp_directory_path() /
      ("pk_bind_" + std::to_string(::getpid()) + ".csv");
  std::string script = R"(
r = TrialMeanResult(Utilities.getTrial("app", "exp", "1_8"))
c = clusterThreads(r, 2)
print(c["k"], len(c["assignment"]))
p = pcaThreads(r, 1)
print(len(p["projected"]))
agg = aggregateThreads(r, True)
print(agg.getThreadCount())
m = mergeTrials(r, r)
print(m.getExclusive("matxvec"))
saveJson(r, "JSON_PATH")
saveCsv(r, "CSV_PATH")
print("saved")
)";
  auto replace = [&script](const std::string& from, const std::string& to) {
    script.replace(script.find(from), from.size(), to);
  };
  replace("JSON_PATH", json_path.string());
  replace("CSV_PATH", csv_path.string());
  session.run(script);
  const auto& out = session.output();
  EXPECT_EQ(out[0], "2 4");
  EXPECT_EQ(out[1], "4");
  EXPECT_EQ(out[2], "1");
  EXPECT_DOUBLE_EQ(std::stod(out[3]), 400.0);  // merge of identical trials
  EXPECT_EQ(out[4], "saved");
  EXPECT_TRUE(std::filesystem::exists(json_path));
  EXPECT_TRUE(std::filesystem::exists(csv_path));
  std::filesystem::remove(json_path);
  std::filesystem::remove(csv_path);
}

// Session.diff reads both versions through the diff pipeline's summary
// views, as `pkx diff` does: it returns what assert_diff_facts says of
// the two trials, leaves both records set and dirties neither, so a
// save() afterwards rewrites no snapshot.
TEST(Bindings, SessionDiffReadsVersionsWithoutDirtyingThem) {
  const auto version = [](const std::string& name, double hot_time) {
    auto t = make_stall_trial();
    t->set_name(name);
    const auto hot = t->event_id("exchange_var__");
    for (std::size_t th = 0; th < 4; ++th) {
      t->set_exclusive(th, hot, t->metric_id("TIME"), hot_time);
    }
    return t;
  };
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pk_bind_diff_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    Repository repo;
    repo.put_version("app", "exp", version("v1", 500.0));
    repo.put_version("app", "exp", version("v2", 1500.0));
    repo.save(dir);
  }
  const auto inodes = [&dir] {
    std::vector<ino_t> out;
    for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
      struct stat st{};
      if (e.path().extension() == ".pkb" &&
          ::stat(e.path().c_str(), &st) == 0) {
        out.push_back(st.st_ino);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto before = inodes();
  ASSERT_EQ(before.size(), 2u);

  Repository attached = Repository::attach(dir);
  AnalysisSession session(pk::script::SessionOptions{&attached});
  session.run(R"(
s = Session.diff("app", "exp", "v1", "v2")
for key in ["comparedCells", "regressedCells", "improvedCells",
            "skippedCells", "missingEvents", "addedEvents", "facts"]:
    print(s[key])
)");
  pk::rules::RuleHarness harness;
  const auto want = pk::analysis::assert_diff_facts(
      harness, *version("v1", 500.0), *version("v2", 1500.0));
  const auto& out = session.output();
  ASSERT_EQ(out.size(), 7u);
  const std::size_t fields[] = {
      want.compared_cells, want.regressed_cells, want.improved_cells,
      want.skipped_cells,  want.missing_events,  want.added_events,
      want.facts};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(std::stod(out[i]), static_cast<double>(fields[i])) << i;
  }
  EXPECT_GT(want.regressed_cells, 0u);

  EXPECT_TRUE(attached.record("app", "exp", "v1").has_value());
  EXPECT_TRUE(attached.record("app", "exp", "v2").has_value());
  attached.save(dir);
  EXPECT_EQ(inodes(), before);
  std::filesystem::remove_all(dir);
}
