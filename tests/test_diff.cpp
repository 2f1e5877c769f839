// Trial-history layer: lineage in perfdmf::Repository, the differential
// fact deriver (analysis/diff), and the shipped regression.rules
// rulebase that turns those facts into gate verdicts.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diff.hpp"
#include "analysis/operations.hpp"
#include "common/error.hpp"
#include "io/bench_json.hpp"
#include "perfdmf/repository.hpp"
#include "profile/profile.hpp"
#include "provenance/explanation.hpp"
#include "rules/engine.hpp"
#include "rules/rulebases.hpp"
#include "telemetry/telemetry.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::analysis::DiffOptions;
using pk::perfdmf::Repository;
using pk::profile::Trial;
using pk::rules::RuleHarness;

namespace {

/// A one-thread trial with a "main" root and the given exclusive TIME
/// per child event; main's inclusive TIME is the sum.
std::shared_ptr<Trial> make_versioned(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& events) {
  auto t = std::make_shared<Trial>(name);
  t->set_thread_count(1);
  const auto time = t->add_metric("TIME", "usec");
  const auto root = t->add_event("main");
  double total = 0.0;
  for (const auto& [ename, usec] : events) {
    const auto e = t->add_event(ename, root);
    t->set_inclusive(0, e, time, usec);
    t->set_exclusive(0, e, time, usec);
    t->set_calls(0, e, 1, 0);
    total += usec;
  }
  t->set_inclusive(0, root, time, total);
  t->set_calls(0, root, 1, static_cast<double>(events.size()));
  return t;
}

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_diff_" + std::to_string(::getpid()) + "_" +
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

std::string bench_baseline_json(const std::string& name) {
  const auto path =
      fs::path(PERFKNOW_SOURCE_DIR) / "bench" / "baseline" / name;
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Live facts of one type, in assertion order.
std::vector<pk::rules::FactRef> facts_of(const RuleHarness& harness,
                                         const std::string& type) {
  std::vector<pk::rules::FactRef> out;
  for (const auto id : harness.memory().ids_of_type(type)) {
    out.push_back(harness.memory().find(id));
  }
  return out;
}

}  // namespace

// ---- lineage in the repository -----------------------------------------

TEST(Lineage, PutVersionChainsAndHistoryOrders) {
  Repository repo;
  repo.put_version("app", "exp", make_versioned("v1", {{"a", 10}}));
  repo.put_version("app", "exp", make_versioned("v2", {{"a", 11}}));
  repo.put_version("app", "exp", make_versioned("v3", {{"a", 12}}));

  EXPECT_EQ(repo.history("app", "exp"),
            (std::vector<std::string>{"v1", "v2", "v3"}));
  EXPECT_EQ(repo.predecessor_of("app", "exp", "v1"), "");
  EXPECT_EQ(repo.predecessor_of("app", "exp", "v2"), "v1");
  EXPECT_EQ(repo.predecessor_of("app", "exp", "v3"), "v2");
  // The link is stamped into metadata so it survives inside snapshots.
  EXPECT_EQ(repo.get("app", "exp", "v3")->metadata("version.predecessor"),
            "v2");
  EXPECT_THROW(repo.predecessor_of("app", "nope", "v1"),
               pk::NotFoundError);
}

TEST(Lineage, ExplicitPredecessorAndSelfLinkRejected) {
  Repository repo;
  repo.put_version("app", "exp", make_versioned("v1", {{"a", 1}}));
  repo.put_version("app", "exp", make_versioned("v2", {{"a", 1}}));
  // Branch off v1 explicitly instead of the chain head v2.
  repo.put_version("app", "exp", make_versioned("v2b", {{"a", 1}}), "v1");
  EXPECT_EQ(repo.predecessor_of("app", "exp", "v2b"), "v1");
  EXPECT_THROW(repo.put_version("app", "exp",
                                make_versioned("loop", {{"a", 1}}), "loop"),
               pk::InvalidArgumentError);
}

TEST(Lineage, HistoryFallsBackToNameOrderWithoutLinks) {
  Repository repo;
  repo.put("app", "exp", make_versioned("b", {{"a", 1}}));
  repo.put("app", "exp", make_versioned("a", {{"a", 1}}));
  EXPECT_EQ(repo.history("app", "exp"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(repo.predecessor_of("app", "exp", "a"), "");
}

TEST(Lineage, EraseSplicesTheChain) {
  Repository repo;
  for (const char* v : {"v1", "v2", "v3"}) {
    repo.put_version("app", "exp", make_versioned(v, {{"a", 1}}));
  }
  EXPECT_TRUE(repo.erase("app", "exp", "v2"));
  EXPECT_EQ(repo.history("app", "exp"),
            (std::vector<std::string>{"v1", "v3"}));
  // v3 inherits the erased link's predecessor.
  EXPECT_EQ(repo.predecessor_of("app", "exp", "v3"), "v1");
}

TEST(Lineage, PruneHistoryKeepsNewestAndReturnsRemoved) {
  Repository repo;
  for (const char* v : {"v1", "v2", "v3", "v4"}) {
    repo.put_version("app", "exp", make_versioned(v, {{"a", 1}}));
  }
  const auto removed = repo.prune_history("app", "exp", 2);
  EXPECT_EQ(removed, (std::vector<std::string>{"v1", "v2"}));
  EXPECT_EQ(repo.history("app", "exp"),
            (std::vector<std::string>{"v3", "v4"}));
  EXPECT_EQ(repo.predecessor_of("app", "exp", "v3"), "");
  EXPECT_FALSE(repo.contains("app", "exp", "v1"));
  // Pruning to a size >= the chain is a no-op.
  EXPECT_TRUE(repo.prune_history("app", "exp", 5).empty());
}

TEST(Lineage, SurvivesSaveLoadAndAttach) {
  TempDir dir;
  {
    Repository repo;
    repo.put_version("app", "exp", make_versioned("v1", {{"a", 1}}));
    repo.put_version("app", "exp", make_versioned("v2", {{"a", 2}}));
    repo.put("app", "unversioned", make_versioned("t", {{"a", 1}}));
    repo.save(dir.path());
  }
  EXPECT_TRUE(fs::exists(dir.path() / "lineage.tsv"));

  const auto loaded = Repository::load(dir.path());
  EXPECT_EQ(loaded.history("app", "exp"),
            (std::vector<std::string>{"v1", "v2"}));
  EXPECT_EQ(loaded.predecessor_of("app", "exp", "v2"), "v1");
  // No links for the unversioned experiment.
  EXPECT_EQ(loaded.predecessor_of("app", "unversioned", "t"), "");

  const auto attached = Repository::attach(dir.path());
  EXPECT_EQ(attached.history("app", "exp"),
            (std::vector<std::string>{"v1", "v2"}));

  // A lineage-free save over the same directory removes the stale file.
  Repository plain;
  plain.put("app", "exp", make_versioned("t", {{"a", 1}}));
  plain.save(dir.path());
  EXPECT_FALSE(fs::exists(dir.path() / "lineage.tsv"));
}

TEST(Lineage, MalformedLineageRowsDiagnose) {
  TempDir dir;
  {
    Repository repo;
    repo.put_version("app", "exp", make_versioned("v1", {{"a", 1}}));
    repo.save(dir.path());
  }
  std::ofstream(dir.path() / "lineage.tsv", std::ios::app)
      << "only\ttwo\n";
  EXPECT_THROW((void)Repository::load(dir.path()), pk::ParseError);
}

// ---- differential facts -------------------------------------------------

TEST(Diff, GeomeanNormalizationMatchesHandComputation) {
  // Three events; one doubles while the others are flat. The geomean of
  // ratios {2, 1, 1} is 2^(1/3), so the hot event's normalizedRatio is
  // 2 / 2^(1/3) and the flat events sit below 1.
  const auto base = make_versioned(
      "base", {{"a", 100}, {"b", 200}, {"c", 300}});
  const auto current = make_versioned(
      "cur", {{"a", 200}, {"b", 200}, {"c", 300}});
  RuleHarness harness;
  const auto summary =
      pk::analysis::assert_diff_facts(harness, *base, *current);

  // The synthetic root has no exclusive time, so it's a skipped cell;
  // the three children compare.
  EXPECT_EQ(summary.compared_cells, 3u);
  EXPECT_EQ(summary.skipped_cells, 1u);
  EXPECT_EQ(summary.regressed_cells, 1u);

  const double geomean =
      std::exp((std::log(2.0) + std::log(1.0) + std::log(1.0)) / 3.0);
  bool saw_a = false;
  for (const auto& f : facts_of(harness, "MetricDeltaFact")) {
    if (std::get<std::string>(f.get("eventName")) != "a") continue;
    saw_a = true;
    EXPECT_DOUBLE_EQ(std::get<double>(f.get("ratio")), 2.0);
    EXPECT_NEAR(std::get<double>(f.get("normalizedRatio")),
                2.0 / geomean, 1e-4);
    EXPECT_EQ(std::get<std::string>(f.get("direction")), "regressed");
    EXPECT_EQ(std::get<std::string>(f.get("baseTrial")), "base");
    EXPECT_EQ(std::get<std::string>(f.get("currentTrial")), "cur");
  }
  EXPECT_TRUE(saw_a);
}

TEST(Diff, RawRatiosWithoutNormalization) {
  const auto base = make_versioned("base", {{"a", 100}, {"b", 100}});
  const auto current = make_versioned("cur", {{"a", 150}, {"b", 100}});
  RuleHarness harness;
  DiffOptions options;
  options.normalize = false;
  pk::analysis::assert_diff_facts(harness, *base, *current, options);
  for (const auto& f : facts_of(harness, "MetricDeltaFact")) {
    EXPECT_DOUBLE_EQ(std::get<double>(f.get("ratio")),
                     std::get<double>(f.get("normalizedRatio")));
  }
}

TEST(Diff, PresenceFactsAndSummary) {
  const auto base = make_versioned("base", {{"gone", 500}, {"kept", 100}});
  const auto current = make_versioned("cur", {{"kept", 100}, {"new", 50}});
  RuleHarness harness;
  const auto summary =
      pk::analysis::assert_diff_facts(harness, *base, *current);
  EXPECT_EQ(summary.missing_events, 1u);
  EXPECT_EQ(summary.added_events, 1u);

  std::size_t presence = 0;
  for (const auto& f : facts_of(harness, "EventPresenceFact")) {
    ++presence;
    const auto name = std::get<std::string>(f.get("eventName"));
    const auto state = std::get<std::string>(f.get("presence"));
    EXPECT_EQ(state, name == "gone" ? "removed" : "added");
    EXPECT_GT(std::get<double>(f.get("runtimeFraction")), 0.0);
  }
  EXPECT_EQ(presence, 2u);
}

TEST(Diff, MetricSelectionAndErrors) {
  const auto base = make_versioned("base", {{"a", 100}});
  const auto current = make_versioned("cur", {{"a", 100}});
  RuleHarness harness;
  DiffOptions options;
  options.metrics = {"TIME"};
  EXPECT_EQ(pk::analysis::assert_diff_facts(harness, *base, *current,
                                            options)
                .compared_cells,
            1u);
  options.metrics = {"NOPE"};
  EXPECT_THROW(pk::analysis::assert_diff_facts(harness, *base, *current,
                                               options),
               pk::InvalidArgumentError);
}

// ---- regression.rules over the facts -----------------------------------

namespace {

/// Runs regression.rules over base -> current and returns the harness.
std::unique_ptr<RuleHarness> diagnose(
    const pk::profile::Trial& base,
    const pk::profile::Trial& current,
    pk::provenance::ProvenanceMode mode =
        pk::provenance::ProvenanceMode::kOff) {
  auto harness = std::make_unique<RuleHarness>();
  harness->set_provenance(mode);
  pk::rules::builtin::use(*harness, pk::rules::builtin::regression());
  pk::analysis::assert_diff_facts(*harness, base, current);
  harness->process_rules();
  return harness;
}

std::vector<std::string> diagnosis_lines(const RuleHarness& harness) {
  std::vector<std::string> out;
  for (const auto& d : harness.diagnoses()) out.push_back(d.to_string());
  return out;
}

}  // namespace

// A trial with neither "main" nor ".TAU application" makes main_event()
// scan every event's mean. The diff resolves it once per trial and
// metric, so 2x the events costs ~2x; resolving it per compared cell
// would cost ~4x. The bound of 3 leaves room for a noisy host.
TEST(Diff, TimeGrowsLinearlyInEventsWithoutAMainEvent) {
  constexpr std::size_t kThreads = 64;
  const auto make = [](const std::string& name, std::size_t events,
                       double scale) {
    Trial t(name);
    t.set_thread_count(kThreads);
    const auto time = t.add_metric("TIME", "usec");
    for (std::size_t e = 0; e < events; ++e) {
      const auto id = t.add_event("ev" + std::to_string(e));
      for (std::size_t th = 0; th < kThreads; ++th) {
        const double v = scale * static_cast<double>(1 + (e * 7 + th) % 13);
        t.set_inclusive(th, id, time, 2.0 * v);
        t.set_exclusive(th, id, time, v);
      }
    }
    return t;
  };
  const auto diff_ms = [&](std::size_t events) {
    const Trial base = make("base", events, 1.0);
    const Trial current = make("current", events, 1.1);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      RuleHarness harness;
      const auto t0 = std::chrono::steady_clock::now();
      const auto summary =
          pk::analysis::assert_diff_facts(harness, base, current, {});
      const std::chrono::duration<double, std::milli> ms =
          std::chrono::steady_clock::now() - t0;
      EXPECT_EQ(summary.compared_cells, events);
      if (rep == 0 || ms.count() < best) best = ms.count();
    }
    return best;
  };
  const double small = diff_ms(1000);
  const double large = diff_ms(2000);
  EXPECT_LT(large / small, 3.0)
      << "1000 events: " << small << " ms, 2000 events: " << large << " ms";
}

// The counted twin of the timing test above: the events main_event()'s
// fallback scans (a telemetry counter) double exactly with the events.
// Resolving main per compared cell would quadruple them.
TEST(Diff, MainEventScansGrowLinearlyInEventsWithoutAMainEvent) {
  const auto make = [](const std::string& name, std::size_t events,
                       double scale) {
    Trial t(name);
    t.set_thread_count(2);
    const auto time = t.add_metric("TIME", "usec");
    for (std::size_t e = 0; e < events; ++e) {
      const auto id = t.add_event("ev" + std::to_string(e));
      for (std::size_t th = 0; th < 2; ++th) {
        const double v = scale * static_cast<double>(1 + (e * 7 + th) % 13);
        t.set_inclusive(th, id, time, 2.0 * v);
        t.set_exclusive(th, id, time, v);
      }
    }
    return t;
  };
  pk::telemetry::Counter& scanned =
      pk::telemetry::counter("profile.main_event.scanned");
  const bool was_enabled = pk::telemetry::enabled();
  pk::telemetry::set_enabled(true);
  const auto scans = [&](std::size_t events) {
    const Trial base = make("base", events, 1.0);
    const Trial current = make("current", events, 1.1);
    RuleHarness harness;
    const std::uint64_t before = scanned.value();
    const auto summary =
        pk::analysis::assert_diff_facts(harness, base, current, {});
    EXPECT_EQ(summary.compared_cells, events);
    return scanned.value() - before;
  };
  const std::uint64_t small = scans(500);
  const std::uint64_t large = scans(1000);
  pk::telemetry::set_enabled(was_enabled);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(large, 2 * small) << "500 events: " << small
                              << " scanned, 1000 events: " << large;
}

// Full provenance adds metric lineage to the diff's one source (16
// lines here: 8 metrics x 2 trials). Each fact records a reference to
// that source, so kFull must cost about what kRules does; copying the
// lineage into every fact's origin measured 1.5-2.1x.
TEST(Diff, FullProvenanceCostsLikeRulesProvenance) {
  constexpr std::size_t kEvents = 2000;
  constexpr std::size_t kMetrics = 8;
  constexpr std::size_t kThreads = 4;
  const auto make = [](const std::string& name, double scale) {
    Trial t(name);
    t.set_thread_count(kThreads);
    std::vector<pk::profile::MetricId> metrics;
    for (std::size_t m = 0; m < kMetrics; ++m) {
      metrics.push_back(t.add_metric(m == 0 ? "TIME" : "M" + std::to_string(m),
                                     "count"));
    }
    const auto root = t.add_event("main");
    for (std::size_t e = 0; e < kEvents; ++e) {
      const auto id = t.add_event(
          "app::solver::phase_" + std::to_string(e) + "::kernel", root);
      for (std::size_t th = 0; th < kThreads; ++th) {
        for (const auto m : metrics) {
          const double v =
              scale * static_cast<double>(1 + (e * 7 + th + m) % 13);
          t.set_inclusive(th, id, m, v);
          t.set_exclusive(th, id, m, v);
        }
      }
    }
    return t;
  };
  const Trial base = make("base", 1.0);
  const Trial current = make("current", 1.1);
  const auto best_ms = [&](pk::provenance::ProvenanceMode mode) {
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      RuleHarness harness;
      harness.set_provenance(mode);
      pk::rules::builtin::use(harness, pk::rules::builtin::regression());
      const auto t0 = std::chrono::steady_clock::now();
      const auto summary =
          pk::analysis::assert_diff_facts(harness, base, current);
      const std::chrono::duration<double, std::milli> ms =
          std::chrono::steady_clock::now() - t0;
      EXPECT_EQ(summary.compared_cells, kEvents * kMetrics);
      if (rep == 0 || ms.count() < best) best = ms.count();
    }
    return best;
  };
  const double rules = best_ms(pk::provenance::ProvenanceMode::kRules);
  const double full = best_ms(pk::provenance::ProvenanceMode::kFull);
  EXPECT_LT(full, 1.3 * rules)
      << "kRules: " << rules << " ms, kFull: " << full << " ms";
}

TEST(RegressionRules, SelfDiffIsWithinNoiseAcrossShippedCorpora) {
  // diff(A, A) must never diagnose a regression, whatever the corpus.
  std::vector<std::shared_ptr<Trial>> corpora;
  corpora.push_back(make_versioned("synthetic", {{"a", 10}, {"b", 20}}));
  for (const char* name :
       {"bench_rules_engine.json", "bench_trial_store.json"}) {
    const auto text = bench_baseline_json(name);
    if (text.empty()) continue;
    corpora.push_back(std::make_shared<Trial>(
        pk::io::trial_from_benchmark_json(text, name)));
  }
  ASSERT_GE(corpora.size(), 2u);
  for (const auto& trial : corpora) {
    const auto harness = diagnose(*trial, *trial);
    bool within_noise = false;
    for (const auto& d : harness->diagnoses()) {
      EXPECT_FALSE(pk::analysis::regression_problem(d.problem))
          << trial->name() << ": " << d.to_string();
      if (d.problem == "WithinNoiseBand") within_noise = true;
    }
    EXPECT_TRUE(within_noise) << trial->name();
  }
}

TEST(RegressionRules, PlantedRegressionDiagnosesWithBothTrialsNamed) {
  const auto base = make_versioned(
      "r1000", {{"hot", 1000}, {"warm", 200}, {"cold", 10}});
  const auto current = make_versioned(
      "r1001", {{"hot", 2500}, {"warm", 200}, {"cold", 10}});
  const auto harness = diagnose(*base, *current);

  bool regression = false;
  for (const auto& d : harness->diagnoses()) {
    if (d.problem != "MetricRegression") continue;
    regression = true;
    EXPECT_EQ(d.event, "hot");
    EXPECT_EQ(d.metric, "TIME");
    // The message names both versions so the gate log is actionable.
    EXPECT_NE(d.message.find("r1000"), std::string::npos);
    EXPECT_NE(d.message.find("r1001"), std::string::npos);
    EXPECT_TRUE(pk::analysis::regression_problem(d.problem));
  }
  EXPECT_TRUE(regression);
}

TEST(RegressionRules, DisappearedBenchmarkIsAGateFailure) {
  const auto base = make_versioned("v1", {{"a", 100}, {"b", 100}});
  const auto current = make_versioned("v2", {{"a", 100}});
  const auto harness = diagnose(*base, *current);
  bool missing = false;
  for (const auto& d : harness->diagnoses()) {
    if (d.problem == "MissingEvent") {
      missing = true;
      EXPECT_EQ(d.event, "b");
      EXPECT_TRUE(pk::analysis::regression_problem(d.problem));
    }
  }
  EXPECT_TRUE(missing);
}

TEST(RegressionRules, DiagnosesAreIdenticalAcrossProvenanceModes) {
  // The acceptance bar: provenance capture observes, never perturbs.
  const auto base = make_versioned(
      "v1", {{"hot", 1000}, {"warm", 300}, {"cold", 20}});
  const auto current = make_versioned(
      "v2", {{"hot", 2200}, {"warm", 310}, {"cold", 5}});
  const auto off =
      diagnosis_lines(*diagnose(*base, *current,
                                pk::provenance::ProvenanceMode::kOff));
  const auto rules =
      diagnosis_lines(*diagnose(*base, *current,
                                pk::provenance::ProvenanceMode::kRules));
  const auto full =
      diagnosis_lines(*diagnose(*base, *current,
                                pk::provenance::ProvenanceMode::kFull));
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, rules);
  EXPECT_EQ(off, full);
}

namespace {

/// Recursively checks a proof tree bottoms out in assert_* origins and
/// collects the origin labels.
void walk_origins(const pk::provenance::FiringNode& firing,
                  std::vector<std::string>& origins) {
  for (const auto& bound : firing.facts) {
    if (bound.derived_from) {
      walk_origins(*bound.derived_from, origins);
    } else {
      ASSERT_EQ(bound.origin.rfind("assert_", 0), 0u)
          << "fact " << bound.type << " is not grounded: \""
          << bound.origin << "\"";
      origins.push_back(bound.origin);
    }
  }
}

}  // namespace

TEST(RegressionRules, ExplanationsGroundInBothTrialsRawColumns) {
  const auto base = make_versioned("alpha", {{"hot", 100}, {"c", 10}});
  const auto current = make_versioned("beta", {{"hot", 260}, {"c", 10}});
  const auto harness =
      diagnose(*base, *current, pk::provenance::ProvenanceMode::kFull);

  ASSERT_FALSE(harness->diagnoses().empty());
  for (const auto& d : harness->diagnoses()) {
    ASSERT_NE(d.provenance, nullptr) << d.to_string();
    ASSERT_NE(d.provenance->root, nullptr);
    std::vector<std::string> origins;
    walk_origins(*d.provenance->root, origins);
    ASSERT_FALSE(origins.empty());
    for (const auto& origin : origins) {
      // Every grounding origin names BOTH trials, so the proof tree
      // reaches the raw columns of each side of the comparison.
      EXPECT_NE(origin.find("base='alpha'"), std::string::npos) << origin;
      EXPECT_NE(origin.find("current='beta'"), std::string::npos)
          << origin;
    }
    // And under kFull the source lineage includes each trial's columns.
    const std::string text = pk::provenance::to_text(*d.provenance);
    EXPECT_NE(text.find("raw column of trial 'alpha'"), std::string::npos);
    EXPECT_NE(text.find("raw column of trial 'beta'"), std::string::npos);
  }
}

// ---- scaling shifts -----------------------------------------------------

namespace {

/// A scaling study whose `slow` event's speedup at `threads` is
/// `speedup` (others scale ideally).
std::vector<pk::perfdmf::TrialPtr> scaling_study(
    const std::string& tag, double slow_speedup_at_4) {
  std::vector<pk::perfdmf::TrialPtr> out;
  for (const unsigned threads : {1u, 4u}) {
    auto t = std::make_shared<Trial>(tag + "_" + std::to_string(threads));
    t->set_thread_count(threads);
    const auto time = t->add_metric("TIME", "usec");
    const auto root = t->add_event("main");
    const auto fine = t->add_event("fine", root);
    const auto slow = t->add_event("slow", root);
    const double fine_time = 1000.0 / threads;  // ideal
    const double slow_time =
        threads == 1 ? 1000.0 : 1000.0 / slow_speedup_at_4;
    for (unsigned th = 0; th < threads; ++th) {
      t->set_inclusive(th, fine, time, fine_time);
      t->set_exclusive(th, fine, time, fine_time);
      t->set_inclusive(th, slow, time, slow_time);
      t->set_exclusive(th, slow, time, slow_time);
      t->set_inclusive(th, root, time, fine_time + slow_time);
    }
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

TEST(Diff, ScalingShiftFactsAndRegressionRule) {
  // Base: slow scales 3.6x of 4 ideal. Current: collapses to 1.8x.
  pk::analysis::ScalabilityAnalysis base(scaling_study("v1", 3.6));
  pk::analysis::ScalabilityAnalysis current(scaling_study("v2", 1.8));

  RuleHarness harness;
  pk::rules::builtin::use(harness, pk::rules::builtin::regression());
  const auto n =
      pk::analysis::assert_scaling_shift_facts(harness, base, current);
  EXPECT_GE(n, 2u);
  harness.process_rules();

  bool scaling_regression = false;
  for (const auto& d : harness.diagnoses()) {
    if (d.problem == "ScalingRegression") {
      scaling_regression = true;
      EXPECT_EQ(d.event, "slow");
    }
  }
  EXPECT_TRUE(scaling_regression);

  bool saw_shift = false;
  for (const auto& f : facts_of(harness, "ScalingShiftFact")) {
    if (std::get<std::string>(f.get("eventName")) != "slow") continue;
    saw_shift = true;
    EXPECT_NEAR(std::get<double>(f.get("baseEfficiency")), 0.9, 1e-4);
    EXPECT_NEAR(std::get<double>(f.get("currentEfficiency")), 0.45,
                1e-4);
    EXPECT_NEAR(std::get<double>(f.get("efficiencyShift")), -0.45, 1e-4);
  }
  EXPECT_TRUE(saw_shift);
}

// ---- benchmark JSON ingest ----------------------------------------------

TEST(BenchJson, ParsesBaselineIntoVersionedTrial) {
  const auto text = bench_baseline_json("bench_rules_engine.json");
  ASSERT_FALSE(text.empty());
  const auto trial = pk::io::trial_from_benchmark_json(text, "v1");
  EXPECT_EQ(trial.name(), "v1");
  EXPECT_EQ(trial.thread_count(), 1u);
  ASSERT_TRUE(trial.find_metric("TIME"));
  ASSERT_TRUE(trial.find_metric("CPU_TIME"));
  EXPECT_GT(trial.event_count(), 1u);
  // Synthetic root sums the suite, so runtime fractions are meaningful.
  const auto root = trial.main_event();
  EXPECT_EQ(trial.event(root).name, "main");
  double child_sum = 0.0;
  const auto time = trial.metric_id("TIME");
  for (const auto e : trial.children_of(root)) {
    child_sum += trial.mean_exclusive(e, time);
  }
  EXPECT_NEAR(trial.mean_inclusive(root, time), child_sum, 1e-6);
  EXPECT_TRUE(trial.metadata("bench.benchmarks"));
}

TEST(BenchJson, MinMergesRepetitionsAndSkipsAggregates) {
  const std::string doc = R"({
    "context": {"host_name": "ci", "num_cpus": 8},
    "benchmarks": [
      {"name": "BM_X", "run_type": "iteration", "iterations": 10,
       "real_time": 5.0, "cpu_time": 4.0, "time_unit": "us"},
      {"name": "BM_X", "run_type": "iteration", "iterations": 12,
       "real_time": 3.0, "cpu_time": 6.0, "time_unit": "us"},
      {"name": "BM_X_mean", "run_type": "aggregate", "iterations": 2,
       "real_time": 4.0, "cpu_time": 5.0, "time_unit": "us"},
      {"name": "BM_Y", "iterations": 7,
       "real_time": 2000.0, "cpu_time": 1000.0, "time_unit": "ns"}
    ]
  })";
  const auto trial = pk::io::trial_from_benchmark_json(doc, "t");
  const auto time = trial.metric_id("TIME");
  const auto cpu = trial.metric_id("CPU_TIME");
  const auto x = trial.event_id("BM_X");
  const auto y = trial.event_id("BM_Y");
  EXPECT_FALSE(trial.find_event("BM_X_mean"));
  // Min-merge is per column, max for iterations.
  EXPECT_DOUBLE_EQ(trial.mean_exclusive(x, time), 3.0);
  EXPECT_DOUBLE_EQ(trial.mean_exclusive(x, cpu), 4.0);
  EXPECT_DOUBLE_EQ(trial.calls(0, x).calls, 12.0);
  // ns scale to usec.
  EXPECT_DOUBLE_EQ(trial.mean_exclusive(y, time), 2.0);
  EXPECT_DOUBLE_EQ(trial.mean_exclusive(y, cpu), 1.0);
  EXPECT_EQ(trial.metadata("bench.host_name"), "ci");
  EXPECT_EQ(trial.metadata("bench.num_cpus"), "8");
}

TEST(BenchJson, RejectsMalformedDocuments) {
  EXPECT_THROW((void)pk::io::trial_from_benchmark_json("{}", "t"),
               pk::ParseError);
  EXPECT_THROW((void)pk::io::trial_from_benchmark_json("[1,2]", "t"),
               pk::ParseError);
  EXPECT_THROW((void)pk::io::trial_from_benchmark_json(
                   R"({"benchmarks": [{"real_time": 1.0}]})", "t"),
               pk::ParseError);
  EXPECT_THROW((void)pk::io::trial_from_benchmark_json(
                   R"({"benchmarks": [{"name": "x", "real_time": 1.0,
                       "time_unit": "fortnights"}]})",
                   "t"),
               pk::ParseError);
  EXPECT_THROW(
      (void)pk::io::trial_from_benchmark_files({}, "t"),
      pk::InvalidArgumentError);
}
