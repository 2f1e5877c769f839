// Tests for the provenance subsystem: capture in the rule engine, the
// structural guarantee that every explanation bottoms out in raw trial
// facts, renderer round trips, and the differential guarantee that
// capture never changes what is diagnosed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/facts.hpp"
#include "analysis/mpi_analysis.hpp"
#include "analysis/operations.hpp"
#include "apps/genidlest/genidlest.hpp"
#include "apps/msap/msap.hpp"
#include "common/error.hpp"
#include "hwcounters/counters.hpp"
#include "instrument/overhead.hpp"
#include "machine/machine.hpp"
#include "perfdmf/repository.hpp"
#include "power/power_model.hpp"
#include "provenance/explanation.hpp"
#include "provenance/lineage.hpp"
#include "rules/engine.hpp"
#include "rules/parser.hpp"
#include "rules/rulebases.hpp"
#include "runtime/mpi.hpp"
#include "runtime/omp.hpp"
#include "runtime/omp_collector.hpp"
#include "script/bindings.hpp"
#include "telemetry/export.hpp"
#include "telemetry/self_analysis.hpp"
#include "telemetry/telemetry.hpp"

namespace pk = perfknow;
namespace prov = pk::provenance;
namespace gen = pk::apps::genidlest;
namespace msap = pk::apps::msap;
using pk::machine::Machine;
using pk::machine::MachineConfig;
using pk::provenance::ProvenanceMode;
using pk::rules::Fact;
using pk::rules::RuleHarness;

namespace {

pk::profile::Trial run_gen_trial(unsigned procs, bool optimized) {
  Machine machine(MachineConfig::altix3600());
  auto cfg = gen::GenConfig::rib90();
  cfg.nprocs = procs;
  cfg.model = gen::Model::kOpenMP;
  cfg.optimized = optimized;
  return gen::run_genidlest(machine, cfg).trial;
}

pk::profile::Trial run_msap_trial() {
  Machine machine(MachineConfig::altix300());
  msap::MsapConfig cfg;
  cfg.threads = 16;
  cfg.schedule = pk::runtime::Schedule::static_even();
  return msap::run_msap(machine, cfg).trial;
}

// The full OpenUH pipeline of the integration tests, with derived
// metrics so HighInefficiency rules have something to match.
void assert_openuh_facts(RuleHarness& harness, pk::profile::Trial& trial) {
  pk::analysis::derive_metric(trial, "BACK_END_BUBBLE_ALL", "CPU_CYCLES",
                              pk::analysis::DeriveOp::kDivide);
  pk::analysis::derive_metric(trial, "FP_OPS",
                              "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
                              pk::analysis::DeriveOp::kMultiply);
  pk::analysis::assert_compare_to_average_facts(
      harness, trial, "(FP_OPS * (BACK_END_BUBBLE_ALL / CPU_CYCLES))");
  pk::analysis::assert_load_balance_facts(harness, trial);
  pk::analysis::assert_stall_facts(harness, trial);
  pk::analysis::assert_memory_locality_facts(harness, trial);
}

// Walks one firing's proof tree: every bound fact either chains to the
// firing that asserted it (recurse) or carries an analysis-layer origin
// label — exactly one of the two, so the tree bottoms out only in facts
// asserted from raw trial data.
void expect_grounded(const prov::FiringNode& firing) {
  EXPECT_FALSE(firing.rule.empty());
  EXPECT_GE(firing.generation, 1u);
  for (const auto& bound : firing.facts) {
    if (bound.derived_from) {
      EXPECT_TRUE(bound.origin.empty())
          << "fact #" << bound.id << " has both a lineage edge and an "
          << "origin label";
      expect_grounded(*bound.derived_from);
    } else {
      EXPECT_EQ(bound.origin.rfind("assert_", 0), 0u)
          << "fact " << bound.type << " #" << bound.id << " of rule \""
          << firing.rule << "\" is not grounded in an analysis-layer "
          << "assert: origin = \"" << bound.origin << "\"";
    }
  }
}

void expect_all_grounded(const RuleHarness& harness) {
  ASSERT_FALSE(harness.diagnoses().empty());
  for (const auto& d : harness.diagnoses()) {
    ASSERT_NE(d.provenance, nullptr)
        << "diagnosis \"" << d.to_string() << "\" has no explanation";
    EXPECT_FALSE(d.explain().empty());
    ASSERT_NE(d.provenance->root, nullptr);
    EXPECT_EQ(d.provenance->rule, d.rule);
    expect_grounded(*d.provenance->root);
  }
}

}  // namespace

TEST(Provenance, OffByDefaultAndRecordsNothing) {
  RuleHarness harness;
  EXPECT_EQ(harness.provenance_mode(), ProvenanceMode::kOff);
  pk::rules::add_rules(harness, R"RULES(
    rule "flag it"
    when f : S( v > 1 )
    then diagnose(problem = "P", event = "e", severity = f.v) end
  )RULES");
  harness.assert_fact(Fact("S").set("v", 2.0));
  EXPECT_EQ(harness.process_rules(), 1u);
  ASSERT_EQ(harness.diagnoses().size(), 1u);
  EXPECT_EQ(harness.diagnoses()[0].provenance, nullptr);
  EXPECT_EQ(harness.diagnoses()[0].explain(), "");
}

TEST(Provenance, ChainedAssertionsLinkFirings) {
  const std::string src = R"RULES(
    rule "seed to derived"
    when s : Seed( v > 1, n : name )
    then
      print("deriving from " + n)
      assert(Derived(name = n, doubled = s.v * 2))
    end
    rule "derived to diagnosis"
    when d : Derived( doubled > 3, n : name )
    then diagnose(problem = "Chained", event = n, severity = d.doubled) end
  )RULES";

  for (const auto mode : {ProvenanceMode::kRules, ProvenanceMode::kFull}) {
    RuleHarness harness;
    harness.set_provenance(mode);
    pk::rules::add_rules(harness, src, "chain.rules");
    {
      const pk::rules::ProvenanceSource source(harness,
                                               "assert_test_facts()");
      harness.assert_fact(Fact("Seed").set("v", 2.0).set("name", "n1"));
    }
    EXPECT_EQ(harness.process_rules(), 2u);
    ASSERT_EQ(harness.diagnoses().size(), 1u);
    const auto& e = *harness.diagnoses()[0].provenance;
    EXPECT_EQ(e.problem, "Chained");
    ASSERT_NE(e.root, nullptr);

    // Root firing: the diagnosing rule, matching the Derived fact.
    EXPECT_EQ(e.root->rule, "derived to diagnosis");
    EXPECT_EQ(e.root->rule_loc.file, "chain.rules");
    ASSERT_EQ(e.root->facts.size(), 1u);
    const auto& derived = e.root->facts[0];
    EXPECT_EQ(derived.type, "Derived");
    EXPECT_TRUE(derived.origin.empty());

    // ...which chains to the firing that asserted it...
    ASSERT_NE(derived.derived_from, nullptr);
    const auto& first = *derived.derived_from;
    EXPECT_EQ(first.rule, "seed to derived");
    EXPECT_EQ(first.prints,
              (std::vector<std::string>{"deriving from n1"}));
    EXPECT_LT(first.id, e.root->id);

    // ...whose Seed fact bottoms out in the labelled source.
    ASSERT_EQ(first.facts.size(), 1u);
    EXPECT_EQ(first.facts[0].type, "Seed");
    EXPECT_EQ(first.facts[0].origin, "assert_test_facts()");
    EXPECT_EQ(first.facts[0].derived_from, nullptr);

    // Field snapshots are a kFull-only feature.
    if (mode == ProvenanceMode::kFull) {
      EXPECT_EQ(first.facts[0].fields.size(), 2u);
    } else {
      EXPECT_TRUE(first.facts[0].fields.empty());
    }

    const std::string text = harness.diagnoses()[0].explain();
    EXPECT_NE(text.find("because rule \"derived to diagnosis\" fired"),
              std::string::npos);
    EXPECT_NE(text.find("because rule \"seed to derived\" fired"),
              std::string::npos);
    EXPECT_NE(text.find("from assert_test_facts()"), std::string::npos);
  }
}

TEST(Provenance, DiagnosesByteIdenticalOffVsFull) {
  const auto baseline = run_gen_trial(16, false);
  std::vector<std::string> reference_diags;
  std::vector<std::string> reference_output;
  for (const auto mode : {ProvenanceMode::kOff, ProvenanceMode::kRules,
                          ProvenanceMode::kFull}) {
    auto trial = baseline;
    RuleHarness harness;
    harness.set_provenance(mode);
    pk::rules::builtin::use(harness, pk::rules::builtin::openuh_rules());
    assert_openuh_facts(harness, trial);
    harness.process_rules();

    std::vector<std::string> diags;
    for (const auto& d : harness.diagnoses()) diags.push_back(d.to_string());
    ASSERT_FALSE(diags.empty());
    if (mode == ProvenanceMode::kOff) {
      reference_diags = diags;
      reference_output = harness.output();
    } else {
      EXPECT_EQ(diags, reference_diags)
          << "provenance mode " << prov::to_string(mode)
          << " changed the diagnoses";
      EXPECT_EQ(harness.output(), reference_output);
    }
  }
}

TEST(Provenance, OpenuhExplanationsGroundInRawTrialFacts) {
  auto trial = run_gen_trial(16, false);
  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::builtin::use(harness, pk::rules::builtin::openuh_rules());
  assert_openuh_facts(harness, trial);

  auto base = std::make_shared<pk::profile::Trial>(run_gen_trial(1, false));
  auto at16 = std::make_shared<pk::profile::Trial>(trial);
  pk::analysis::ScalabilityAnalysis scaling({base, at16});
  pk::analysis::assert_scaling_facts(harness, scaling);

  harness.process_rules();
  expect_all_grounded(harness);

  // Facts built from derived metrics carry lineage back to raw columns.
  bool saw_derived_lineage = false;
  for (const auto& d : harness.diagnoses()) {
    for (const auto& bound : d.provenance->root->facts) {
      for (const auto& line : bound.lineage) {
        if (line.find("raw column") != std::string::npos) {
          saw_derived_lineage = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_derived_lineage);
}

TEST(Provenance, LoadImbalanceExplanationsGroundInRawTrialFacts) {
  const auto trial = run_msap_trial();
  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::builtin::use(harness, pk::rules::builtin::load_imbalance());
  pk::analysis::assert_load_balance_facts(harness, trial);
  harness.process_rules();
  ASSERT_FALSE(harness.diagnoses_for("LoadImbalance").empty());
  expect_all_grounded(harness);
}

// The remaining shipped rulebases — power, openmp, communication, and
// instrumentation — draw their facts from dedicated collectors rather
// than trial columns; their diagnoses must ground the same way.
TEST(Provenance, PowerExplanationsGroundInStudyFacts) {
  pk::power::PowerStudy study(pk::power::PowerModel::itanium2());
  const double flops = 1e12;
  auto add = [&](pk::openuh::OptLevel lvl, double seconds, double instr) {
    pk::hwcounters::CounterVector agg;
    const double cycles = seconds * 1.5e9 * 16;
    agg.set(pk::hwcounters::Counter::kCpuCycles, cycles);
    agg.set(pk::hwcounters::Counter::kInstructionsCompleted, instr);
    agg.set(pk::hwcounters::Counter::kInstructionsIssued, instr * 1.05);
    agg.set(pk::hwcounters::Counter::kFpOps, flops);
    agg.set(pk::hwcounters::Counter::kLoads, instr * 0.3);
    agg.set(pk::hwcounters::Counter::kL2References, instr * 0.05);
    agg.set(pk::hwcounters::Counter::kL3References, instr * 0.01);
    agg.set(pk::hwcounters::Counter::kL3Misses, cycles * 0.001);
    study.add(lvl, agg, seconds, 16);
  };
  add(pk::openuh::OptLevel::kO0, 100.0, 1.0e13);
  add(pk::openuh::OptLevel::kO1, 34.0, 4.7e12);
  add(pk::openuh::OptLevel::kO2, 7.1, 5.9e11);
  add(pk::openuh::OptLevel::kO3, 4.9, 5.6e11);

  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::builtin::use(harness, pk::rules::builtin::power());
  study.assert_facts(harness);
  harness.process_rules();
  ASSERT_FALSE(harness.diagnoses_for("LowPowerSetting").empty());
  expect_all_grounded(harness);
}

TEST(Provenance, OpenmpExplanationsGroundInCollectorFacts) {
  Machine m(MachineConfig::altix300());
  pk::runtime::OmpTeam team(m, 8);
  pk::runtime::OmpCollector collector(8);
  const auto hook = collector.hook();
  for (int i = 0; i < 100; ++i) {
    const auto r = team.parallel_for(
        8, pk::runtime::Schedule::static_even(),
        [](std::uint64_t, unsigned) { return 50; });
    pk::runtime::emit_collector_events(team, "tiny_region", r, hook);
  }
  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::builtin::use(harness, pk::rules::builtin::openmp());
  collector.assert_facts(harness);
  harness.process_rules();
  ASSERT_FALSE(harness.diagnoses_for("ForkJoinOverhead").empty());
  expect_all_grounded(harness);
}

TEST(Provenance, CommunicationExplanationsGroundInRecorderFacts) {
  Machine m(MachineConfig::altix300());
  pk::runtime::MpiWorld w(m, 2);
  pk::analysis::CommRecorder rec(2);
  w.set_hook(rec.hook());
  w.compute(0, 10'000'000);
  const auto s = w.isend(0, 1, 1024);
  const auto r = w.irecv(1, 0, 1024);
  w.wait(1, r);
  w.wait(0, s);

  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::builtin::use(harness, pk::rules::builtin::communication());
  pk::analysis::assert_communication_facts(harness, rec, w.elapsed());
  pk::analysis::assert_late_sender_facts(harness, rec, w.elapsed());
  harness.process_rules();
  ASSERT_FALSE(harness.diagnoses_for("LateSender").empty());
  expect_all_grounded(harness);
}

TEST(Provenance, InstrumentationExplanationsGroundInOverheadFacts) {
  pk::profile::Trial t("oh");
  t.set_thread_count(2);
  const auto cyc = t.add_metric("CPU_CYCLES");
  const auto main_e = t.add_event("main");
  const auto fat = t.add_event("fat_kernel", main_e);
  const auto tiny = t.add_event("tiny_hot", main_e);
  for (std::size_t th = 0; th < 2; ++th) {
    t.set_inclusive(th, main_e, cyc, 1e9);
    t.set_calls(th, main_e, 1, 2);
    t.set_inclusive(th, fat, cyc, 9e8);
    t.set_calls(th, fat, 10, 0);
    t.set_inclusive(th, tiny, cyc, 1e6);
    t.set_calls(th, tiny, 1e6, 0);
  }
  const auto report = pk::instrument::estimate_overhead(t);

  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::builtin::use(harness, pk::rules::builtin::instrumentation());
  pk::instrument::assert_overhead_facts(harness, report);
  harness.process_rules();
  ASSERT_FALSE(harness.diagnoses_for("InstrumentationOverhead").empty());
  expect_all_grounded(harness);
}

TEST(Provenance, SelfDiagnosisExplanationsGroundInTelemetryFacts) {
  pk::telemetry::reset();
  pk::telemetry::set_enabled(true);
  {
    pk::telemetry::ScopedSpan span(std::string_view("test.provenance"));
    auto trial = run_msap_trial();
    (void)trial;
  }
  pk::telemetry::set_enabled(false);
  const auto snap = pk::telemetry::snapshot();
  const auto self_trial = pk::telemetry::to_trial(snap, "self");

  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::builtin::use(harness, pk::rules::builtin::self_diagnosis());
  pk::telemetry::assert_self_facts(harness, self_trial);
  harness.process_rules();
  // Whether anything fires depends on the captured workload; whatever
  // did fire must be grounded in assert_self_facts.
  for (const auto& d : harness.diagnoses()) {
    ASSERT_NE(d.provenance, nullptr);
    expect_grounded(*d.provenance->root);
  }
}

// A fact's origin is a reference to its source, so recording it costs
// the same whatever the source's lineage holds: every fact asserted
// under one source records the same origin object, so no fact copies the
// lineage, whether it holds 1 line or 64. This also covers the diff's
// full provenance, whose facts share the diff's one source.
TEST(Provenance, FactsOfOneSourceShareOneOrigin) {
  for (const std::size_t lineage_lines : {1, 64}) {
    const std::vector<std::string> lineage(lineage_lines, "raw column");
    RuleHarness h;
    h.set_provenance(ProvenanceMode::kFull);
    const auto schema = h.schema("LoadBalanceFact", {"cv"});
    std::vector<pk::rules::FactId> ids;
    {
      const pk::rules::ProvenanceSource src(h, "assert_cost_probe()",
                                            lineage);
      for (int i = 0; i < 100; ++i) {
        ids.push_back(h.emit(schema).num("cv", i).commit());
      }
    }
    const auto* recorder = h.provenance_recorder();
    ASSERT_NE(recorder, nullptr);
    const auto* origin = recorder->origin_of(ids.front());
    ASSERT_NE(origin, nullptr);
    EXPECT_EQ(origin->lineage.size(), lineage_lines);
    std::size_t others = 0;
    for (const auto id : ids) others += recorder->origin_of(id) != origin;
    EXPECT_EQ(others, 0u) << lineage_lines << " lineage lines";
  }
}

// Facts asserted under a source and inside a firing keep their own
// origins: the label and lineage of the source, the firing's edge.
TEST(Provenance, SharedOriginsKeepEachFactsSource) {
  RuleHarness h;
  h.set_provenance(ProvenanceMode::kFull);
  pk::rules::add_rules(h, R"RULES(
    rule "Derive"
      when
        a : SeedFact( v : value )
      then
        assert(DerivedFact(value = v))
    end
    rule "Report"
      when
        s : SeedFact( v : value )
        d : DerivedFact( value == v )
      then
        diagnose(problem = "seen", event = "e", severity = 1.0,
                 recommendation = "none")
    end
  )RULES", "origins.rules");
  const auto seed = h.schema("SeedFact", {"value"});
  {
    const pk::rules::ProvenanceSource a(h, "assert_first()", {"lineage A"});
    h.emit(seed).num("value", 1.0).commit();
  }
  {
    const pk::rules::ProvenanceSource b(h, "assert_second()", {"lineage B"});
    h.emit(seed).num("value", 2.0).commit();
  }
  h.process_rules();
  ASSERT_EQ(h.diagnoses().size(), 2u);
  std::set<std::string> seen;
  for (const auto& d : h.diagnoses()) {
    ASSERT_NE(d.provenance, nullptr);
    const auto& facts = d.provenance->root->facts;
    ASSERT_EQ(facts.size(), 2u);
    EXPECT_EQ(facts[0].derived_from, nullptr);
    ASSERT_EQ(facts[0].lineage.size(), 1u);
    seen.insert(facts[0].origin + " " + facts[0].lineage[0]);
    ASSERT_NE(facts[1].derived_from, nullptr);
    EXPECT_EQ(facts[1].derived_from->rule, "Derive");
    EXPECT_TRUE(facts[1].origin.empty());
  }
  EXPECT_EQ(seen, (std::set<std::string>{"assert_first() lineage A",
                                         "assert_second() lineage B"}));
}

TEST(Provenance, JsonRoundTripPreservesRenderedText) {
  auto trial = run_gen_trial(16, false);
  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::builtin::use(harness, pk::rules::builtin::openuh_rules());
  assert_openuh_facts(harness, trial);
  harness.process_rules();

  std::vector<prov::Explanation> explanations;
  for (const auto& d : harness.diagnoses()) {
    if (d.provenance) explanations.push_back(*d.provenance);
  }
  ASSERT_FALSE(explanations.empty());

  const std::string json = prov::to_json(explanations);
  const auto parsed = prov::explanations_from_json(json);
  ASSERT_EQ(parsed.size(), explanations.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(prov::to_text(parsed[i]), prov::to_text(explanations[i]))
        << "explanation " << i << " changed across the JSON round trip";
    EXPECT_DOUBLE_EQ(parsed[i].severity, explanations[i].severity);
  }
  // A second encode of the parsed form is byte-identical (stable order).
  EXPECT_EQ(prov::to_json(parsed), json);

  // The single-object form round-trips too.
  const auto one = prov::explanations_from_json(to_json(explanations[0]));
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(prov::to_text(one[0]), prov::to_text(explanations[0]));
}

TEST(Provenance, JsonReaderRejectsMalformedInput) {
  EXPECT_THROW((void)prov::explanations_from_json(""), pk::ParseError);
  EXPECT_THROW((void)prov::explanations_from_json("42"), pk::ParseError);
  EXPECT_THROW((void)prov::explanations_from_json("[{]"), pk::ParseError);
  EXPECT_THROW((void)prov::explanations_from_json("{\"a\":"),
               pk::ParseError);
  EXPECT_THROW((void)prov::explanations_from_json("\"just a string\""),
               pk::ParseError);
  // Deep nesting hits the depth limit instead of the stack guard page.
  const std::string deep(200, '[');
  EXPECT_THROW((void)prov::explanations_from_json(deep), pk::ParseError);
  // Tolerant on content: an explanation-shaped object with junk keys.
  const auto parsed = prov::explanations_from_json(
      R"({"schema":"perfknow.explanation/1","junk":[1,2,{}],)"
      R"("diagnosis":{"rule":"r","problem":"p","severity":"not a number"}})");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].problem, "p");
  EXPECT_EQ(parsed[0].severity, 0.0);
  // Integers out of their field's range read as 0 instead of taking an
  // undefined float-to-integer cast.
  const auto wide = prov::explanations_from_json(
      R"({"schema":"perfknow.explanation/1","diagnosis":{"rule":"r"},)"
      R"("firing":{"id":18446744073709551615,"line":-3e10,"salience":1e300,)"
      R"("generation":7,"facts":[{"fact":-1}]}})");
  ASSERT_EQ(wide.size(), 1u);
  ASSERT_NE(wide[0].root, nullptr);
  EXPECT_EQ(wide[0].root->id, 0u);
  EXPECT_EQ(wide[0].root->rule_loc.line, 0);
  EXPECT_EQ(wide[0].root->salience, 0);
  EXPECT_EQ(wide[0].root->generation, 7u);
  ASSERT_EQ(wide[0].root->facts.size(), 1u);
  EXPECT_EQ(wide[0].root->facts[0].id, 0u);
}

TEST(Provenance, DotRendersDedupedDag) {
  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::add_rules(harness, R"RULES(
    rule "pair"
    when a : S( v > 0 ) b : S( v > 1 )
    then diagnose(problem = "P", event = a.name, severity = b.v) end
  )RULES");
  {
    const pk::rules::ProvenanceSource source(harness, "assert_pairs()");
    harness.assert_fact(Fact("S").set("v", 1.0).set("name", "x"));
    harness.assert_fact(Fact("S").set("v", 2.0).set("name", "y"));
  }
  harness.process_rules();
  ASSERT_FALSE(harness.diagnoses().empty());

  std::vector<prov::Explanation> explanations;
  for (const auto& d : harness.diagnoses()) {
    explanations.push_back(*d.provenance);
  }
  const std::string dot = prov::to_dot(explanations);
  EXPECT_EQ(dot.rfind("digraph provenance {", 0), 0u);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find("shape=doubleoctagon"), std::string::npos);
  EXPECT_NE(dot.find("assert_pairs()"), std::string::npos);
  // Fact #2 ("y", v=2) is bound by both firings but declared once.
  std::size_t count = 0;
  for (std::size_t pos = dot.find("f2 [shape="); pos != std::string::npos;
       pos = dot.find("f2 [shape=", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(Provenance, MetricLineageChainsToRawColumns) {
  auto trial = run_gen_trial(16, false);
  pk::analysis::derive_metric(trial, "BACK_END_BUBBLE_ALL", "CPU_CYCLES",
                              pk::analysis::DeriveOp::kDivide);
  const std::string derived = "(BACK_END_BUBBLE_ALL / CPU_CYCLES)";

  const auto lineage = prov::lineage_of(trial, derived);
  ASSERT_TRUE(lineage.has_value());
  EXPECT_EQ(lineage->operation, "derive(/)");
  EXPECT_EQ(lineage->operands,
            (std::vector<std::string>{"BACK_END_BUBBLE_ALL", "CPU_CYCLES"}));

  const auto chain = prov::lineage_chain(trial, derived);
  ASSERT_GE(chain.size(), 3u);
  EXPECT_NE(chain[0].find("derive(/)"), std::string::npos);
  EXPECT_NE(chain[1].find("\"BACK_END_BUBBLE_ALL\": raw column"),
            std::string::npos);
  EXPECT_NE(chain[2].find("\"CPU_CYCLES\": raw column"), std::string::npos);

  // Raw metrics have no stamped lineage.
  EXPECT_FALSE(prov::lineage_of(trial, "CPU_CYCLES").has_value());
  const auto raw_chain = prov::lineage_chain(trial, "CPU_CYCLES");
  ASSERT_EQ(raw_chain.size(), 1u);
  EXPECT_NE(raw_chain[0].find("raw column"), std::string::npos);
}

TEST(Provenance, ScriptBindingsExposeExplanations) {
  pk::perfdmf::Repository repo;
  auto trial = std::make_shared<pk::profile::Trial>(run_msap_trial());
  const std::string trial_name = trial->name();
  repo.put("app", "exp", trial);
  pk::script::SessionOptions options{&repo};
  options.provenance = ProvenanceMode::kFull;
  pk::script::AnalysisSession session(options);
  EXPECT_EQ(session.harness().provenance_mode(), ProvenanceMode::kFull);

  session.run(
      "ruleHarness = RuleHarness.useGlobalRules(\"openuh/OpenUHRules.drl\")\n"
      "trial = Utilities.getTrial(\"app\", \"exp\", \"" +
      trial_name +
      "\")\n"
      "assertLoadBalanceFacts(trial)\n"
      "ruleHarness.processRules()\n"
      "print(Session.provenanceMode())\n"
      "diags = ruleHarness.getDiagnoses()\n"
      "print(diags.get(0).explain())\n");
  // The rulebase's own print() lines precede the script's two prints.
  const auto& out = session.output();
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[out.size() - 2], "full");
  const std::string& text = out.back();
  EXPECT_NE(text.find("because rule"), std::string::npos);
  EXPECT_NE(text.find("from assert_load_balance_facts"),
            std::string::npos);

  session.run("print(Session.explainAll())");
  EXPECT_NE(session.output().back().find("because rule"),
            std::string::npos);
}

// Writes the rendered reports the CI workflow uploads as artifacts; the
// checks above already validated their content.
TEST(Provenance, WritesExplanationReportsForCI) {
  auto trial = run_gen_trial(16, false);
  RuleHarness harness;
  harness.set_provenance(ProvenanceMode::kFull);
  pk::rules::builtin::use(harness, pk::rules::builtin::openuh_rules());
  assert_openuh_facts(harness, trial);
  harness.process_rules();

  std::vector<prov::Explanation> explanations;
  for (const auto& d : harness.diagnoses()) {
    if (d.provenance) explanations.push_back(*d.provenance);
  }
  ASSERT_FALSE(explanations.empty());

  namespace fs = std::filesystem;
  const fs::path dir = fs::path("explanations");
  fs::create_directories(dir);
  {
    std::ofstream os(dir / "genidlest_unopt.txt");
    for (const auto& e : explanations) os << prov::to_text(e) << "\n";
  }
  {
    std::ofstream os(dir / "genidlest_unopt.dot");
    os << prov::to_dot(explanations);
  }
  {
    std::ofstream os(dir / "genidlest_unopt.json");
    os << prov::to_json(explanations);
  }
  EXPECT_GT(fs::file_size(dir / "genidlest_unopt.txt"), 0u);
  EXPECT_GT(fs::file_size(dir / "genidlest_unopt.dot"), 0u);
  EXPECT_GT(fs::file_size(dir / "genidlest_unopt.json"), 0u);
}
