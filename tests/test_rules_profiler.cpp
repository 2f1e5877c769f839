// Rule-engine cost attribution (rules/profiler.hpp): the gate, the
// per-rule / per-level counters under both matchers, the PKB
// export + fact-assertion round trip, and the shipped rule_tuning
// rulebase diagnosing planted pathologies end to end.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "io/format.hpp"
#include "provenance/explanation.hpp"
#include "profile/profile.hpp"
#include "profile/trial_view.hpp"
#include "rules/engine.hpp"
#include "rules/fact.hpp"
#include "rules/parser.hpp"
#include "rules/profiler.hpp"
#include "rules/rulebases.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::rules::Fact;
using pk::rules::MatchStrategy;
using pk::rules::RuleHarness;
using pk::rules::RuleProfile;

namespace {

/// Restores the process-wide gate on scope exit so tests cannot leak
/// profiling state into each other.
struct GateGuard {
  bool prev = pk::rules::profiling_enabled();
  ~GateGuard() { pk::rules::set_profiling_enabled(prev); }
};

/// A two-pattern join that fires once per (hot, cold) pair sharing a
/// group, over a handful of facts.
constexpr const char* kJoinRules = R"(
rule "Hot And Cold"
when
    h : Sample( kind == "hot", g : group, hv : v )
    c : Sample( kind == "cold", group == g, v < hv )
then
    print("pair " + g)
end
)";

void assert_samples(RuleHarness& h, std::size_t groups) {
  for (std::size_t g = 0; g < groups; ++g) {
    const std::string name = "g" + std::to_string(g);
    h.assert_fact(Fact("Sample")
                      .set("kind", "hot")
                      .set("group", name)
                      .set("v", 10.0 + static_cast<double>(g)));
    h.assert_fact(Fact("Sample")
                      .set("kind", "cold")
                      .set("group", name)
                      .set("v", 1.0));
  }
}

const RuleProfile::PerRule* find_rule(const RuleProfile& p,
                                      const std::string& name) {
  for (const auto& r : p.rules) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

/// The CI planted pathology: a three-pattern cross product whose final
/// residual can never hold, so the join probes every token x candidate
/// pair for zero matches.
constexpr const char* kPlantedRules = R"(
rule "Planted Cross Product"
when
    a : Sample( x1 : v )
    b : Sample( )
    c : Sample( v > x1 + 1000000.0 )
then
end
)";

}  // namespace

TEST(RulesProfilerGate, DefaultsOffAndToggles) {
  GateGuard guard;
  pk::rules::set_profiling_enabled(false);
  EXPECT_FALSE(pk::rules::profiling_enabled());
  pk::rules::set_profiling_enabled(true);
  EXPECT_TRUE(pk::rules::profiling_enabled());
  pk::rules::set_profiling_enabled(false);
  EXPECT_FALSE(pk::rules::profiling_enabled());
}

TEST(RulesProfiler, CountsNothingWhileDisabled) {
  GateGuard guard;
  pk::rules::set_profiling_enabled(false);
  RuleHarness h;
  pk::rules::add_rules(h, kJoinRules, "test");
  assert_samples(h, 4);
  EXPECT_EQ(h.process_rules(), 4u);

  const auto profile = h.rule_profile();
  EXPECT_EQ(profile.cycles, 0u);
  const auto* r = find_rule(profile, "Hot And Cold");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->firings, 0u);
  EXPECT_EQ(r->activations, 0u);
  EXPECT_EQ(r->match_ns, 0u);
  for (const auto& lvl : r->levels) {
    EXPECT_EQ(lvl.probes, 0u);
    EXPECT_EQ(lvl.admissions, 0u);
  }
}

TEST(RulesProfiler, AttributesFiringsActivationsAndBindings) {
  GateGuard guard;
  pk::rules::set_profiling_enabled(true);
  RuleHarness h;
  pk::rules::add_rules(h, kJoinRules, "test");
  assert_samples(h, 4);
  EXPECT_EQ(h.process_rules(), 4u);

  const auto profile = h.rule_profile();
  EXPECT_EQ(profile.strategy, "beta");
  EXPECT_GE(profile.cycles, 1u);
  EXPECT_EQ(profile.wm_size, 8u);
  const auto* r = find_rule(profile, "Hot And Cold");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->firings, 4u);
  // Beta's delta join yields each tuple exactly once.
  EXPECT_EQ(r->activations, 4u);
  // Every activation materializes the same binding set, so the total
  // divides evenly and is nonzero.
  EXPECT_GT(r->bindings, 0u);
  EXPECT_EQ(r->bindings % r->activations, 0u);
  ASSERT_EQ(r->levels.size(), 2u);
  // Every hot fact passes level 0's alpha tests; every (hot, cold)
  // group pair survives the join.
  EXPECT_EQ(r->levels[0].admissions, 4u);
  EXPECT_GE(r->levels[1].probes, 4u);
  EXPECT_EQ(r->levels[1].hits, 4u);
  EXPECT_GT(r->match_ns, 0u);
}

TEST(RulesProfiler, FiringsAreByteIdenticalAcrossStrategiesWhileProfiling) {
  GateGuard guard;
  pk::rules::set_profiling_enabled(true);
  std::vector<std::string> outputs;
  std::vector<std::uint64_t> firings;
  for (const auto strategy : {MatchStrategy::kNaive, MatchStrategy::kBeta}) {
    RuleHarness h;
    h.set_match_strategy(strategy);
    pk::rules::add_rules(h, kJoinRules, "test");
    assert_samples(h, 5);
    h.process_rules();
    std::string joined;
    for (const auto& line : h.output()) joined += line + "\n";
    outputs.push_back(joined);
    const RuleProfile profile = h.rule_profile();
    const auto* r = find_rule(profile, "Hot And Cold");
    ASSERT_NE(r, nullptr);
    firings.push_back(r->firings);
    // Probe/activation counts are strategy-local evidence (a
    // re-enumerating matcher re-enqueues deduped tuples), but no
    // strategy can enqueue fewer activations than it fires.
    EXPECT_GE(r->activations, r->firings);
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_EQ(firings[0], 5u);
  EXPECT_EQ(firings[1], 5u);
}

TEST(RulesProfiler, ProfileToTrialRoundTripsAndAssertsFacts) {
  GateGuard guard;
  pk::rules::set_profiling_enabled(true);
  RuleHarness h;
  pk::rules::add_rules(h, kJoinRules, "test");
  assert_samples(h, 3);
  h.process_rules();

  const auto trial = pk::rules::profile_to_trial(h.rule_profile(), "prof");
  EXPECT_EQ(trial.metadata("perfknow.rules_profile"), "1");
  EXPECT_EQ(trial.metadata("rules.strategy"), "beta");

  // Round trip through PKB on disk, like the repository stores it.
  const fs::path file =
      fs::temp_directory_path() /
      ("perfknow_ruleprof_" + std::to_string(::getpid()) + ".pkb");
  pk::io::save_trial(trial, file, "pkb");
  const auto reloaded = pk::io::open_trial(file);
  fs::remove(file);

  RuleHarness tuning;
  const auto asserted = pk::rules::assert_profile_facts(tuning, reloaded);
  // One RuleProfileFact plus two JoinLevelFacts for the join rule.
  EXPECT_GE(asserted, 3u);
}

TEST(RulesProfiler, AssertProfileFactsRejectsNonProfileTrials) {
  pk::profile::Trial plain("not-a-profile");
  RuleHarness h;
  EXPECT_THROW(pk::rules::assert_profile_facts(h, plain),
               pk::InvalidArgumentError);
}

TEST(RuleTuning, PlantedCrossProductDiagnosedEndToEnd) {
  GateGuard guard;
  pk::rules::set_profiling_enabled(true);
  RuleHarness h;
  pk::rules::add_rules(h, kPlantedRules, "planted");
  for (std::size_t i = 0; i < 10; ++i) {
    h.assert_fact(Fact("Sample").set("v", static_cast<double>(i)));
  }
  h.process_rules();

  const auto profile = h.rule_profile();
  const auto* r = find_rule(profile, "Planted Cross Product");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->levels.size(), 3u);
  EXPECT_GE(r->levels[2].probes, 500u);
  EXPECT_EQ(r->levels[2].hits, 0u);
  EXPECT_EQ(r->firings, 0u);

  RuleHarness tuning;
  tuning.set_provenance(pk::provenance::ProvenanceMode::kFull);
  pk::rules::builtin::use(tuning, pk::rules::builtin::rule_tuning());
  pk::rules::assert_profile_facts(
      tuning, pk::rules::profile_to_trial(profile, "planted-profile"));
  tuning.process_rules();

  bool explosion = false;
  for (const auto& d : tuning.diagnoses()) {
    if (d.problem == "CombinatorialJoinExplosion" &&
        d.event == "Planted Cross Product") {
      explosion = true;
      ASSERT_TRUE(d.provenance);
      const auto text = pk::provenance::to_text(*d.provenance);
      EXPECT_NE(text.find("JoinLevelFact"), std::string::npos);
      EXPECT_NE(text.find("assert_profile_facts"), std::string::npos);
    }
  }
  EXPECT_TRUE(explosion);
}

TEST(RuleTuning, SyntheticFactsDriveEveryDiagnosis) {
  RuleHarness h;
  pk::rules::builtin::use(h, pk::rules::builtin::rule_tuning());
  // DeadRule: admitted facts across >= 2 cycles, zero firings.
  h.assert_fact(Fact("RuleProfileFact")
                    .set("ruleName", "sleeper")
                    .set("strategy", "beta")
                    .set("matchUsec", 12.5)
                    .set("firings", 0.0)
                    .set("activations", 0.0)
                    .set("bindings", 0.0)
                    .set("admissions", 5.0)
                    .set("cycles", 3.0)
                    .set("wmSize", 40.0));
  // LowSelectivityAnchor: a level-0 pattern admitting over half of
  // working memory.
  h.assert_fact(Fact("JoinLevelFact")
                    .set("ruleName", "broad")
                    .set("level", 0.0)
                    .set("admissions", 30.0)
                    .set("probes", 0.0)
                    .set("hits", 0.0)
                    .set("liveTokens", 30.0)
                    .set("deadTokens", 0.0)
                    .set("tokenBytes", 300.0)
                    .set("wmSize", 40.0));
  // DeadTokenBloat: more invalidated tokens than live ones.
  h.assert_fact(Fact("JoinLevelFact")
                    .set("ruleName", "churny")
                    .set("level", 1.0)
                    .set("admissions", 10.0)
                    .set("probes", 50.0)
                    .set("hits", 10.0)
                    .set("liveTokens", 10.0)
                    .set("deadTokens", 100.0)
                    .set("tokenBytes", 990.0)
                    .set("wmSize", 40.0));
  // CombinatorialJoinExplosion: many probes, almost no hits.
  h.assert_fact(Fact("JoinLevelFact")
                    .set("ruleName", "crossy")
                    .set("level", 2.0)
                    .set("admissions", 9.0)
                    .set("probes", 700.0)
                    .set("hits", 2.0)
                    .set("liveTokens", 2.0)
                    .set("deadTokens", 0.0)
                    .set("tokenBytes", 50.0)
                    .set("wmSize", 40.0));
  h.process_rules();

  const auto has = [&](const std::string& problem,
                       const std::string& event) {
    for (const auto& d : h.diagnoses()) {
      if (d.problem == problem && d.event == event) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("DeadRule", "sleeper"));
  EXPECT_TRUE(has("LowSelectivityAnchor", "broad"));
  EXPECT_TRUE(has("DeadTokenBloat", "churny"));
  EXPECT_TRUE(has("CombinatorialJoinExplosion", "crossy"));
  // The well-behaved fact shapes must not misfire: no diagnosis names a
  // rule that is not one of the planted pathologies.
  for (const auto& d : h.diagnoses()) {
    EXPECT_TRUE(d.event == "sleeper" || d.event == "broad" ||
                d.event == "churny" || d.event == "crossy")
        << d.to_string();
  }
}
