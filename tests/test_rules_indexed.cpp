// Differential tests for the incremental matcher: the naive full-rescan
// matcher is the oracle, and the beta-memory join network must produce
// byte-identical output lines, diagnoses, firing counts, and provenance
// trees on every shipped rulebase and on randomized fact soups /
// rulebases — including retract-heavy sequences that exercise
// memoized-join invalidation.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "provenance/explanation.hpp"
#include "rules/engine.hpp"
#include "rules/fact.hpp"
#include "rules/parser.hpp"
#include "rules/rulebases.hpp"

namespace pk = perfknow;
using pk::rules::CmpOp;
using pk::rules::Constraint;
using pk::rules::Fact;
using pk::rules::FactValue;
using pk::rules::FieldBinding;
using pk::rules::MatchStrategy;
using pk::rules::Operand;
using pk::rules::Pattern;
using pk::rules::Rule;
using pk::rules::RuleContext;
using pk::rules::RuleHarness;

namespace {

struct RunResult {
  std::vector<std::string> output;
  std::vector<pk::rules::Diagnosis> diagnoses;
  /// to_json of each diagnosis's captured explanation, in order —
  /// provenance trees are part of the byte-identical contract.
  std::vector<std::string> provenance;
  std::vector<std::size_t> firings_per_stage;
  /// Fire-time errors (e.g. an action touching a field the matched fact
  /// lacks) are part of the observable behaviour: all strategies must
  /// fail identically, after the identical output prefix.
  std::string error;
};

bool diagnoses_equal(const pk::rules::Diagnosis& a,
                     const pk::rules::Diagnosis& b) {
  return a.rule == b.rule && a.problem == b.problem && a.event == b.event &&
         a.severity == b.severity && a.recommendation == b.recommendation;
}

/// One step of a differential scenario. Retract/modify address facts by
/// their position in the sequence of asserts/modifies so far (ids are
/// only comparable within one run).
struct Op {
  enum class Kind { kAssert, kRetract, kModify, kProcess } kind = Kind::kAssert;
  Fact fact{"_"};          ///< kAssert payload / kModify replacement
  std::size_t target = 0;  ///< kRetract / kModify: index into the id log
};

Op op_assert(Fact f) {
  Op o;
  o.kind = Op::Kind::kAssert;
  o.fact = std::move(f);
  return o;
}
Op op_retract(std::size_t target) {
  Op o;
  o.kind = Op::Kind::kRetract;
  o.target = target;
  return o;
}
Op op_modify(std::size_t target, Fact f) {
  Op o;
  o.kind = Op::Kind::kModify;
  o.fact = std::move(f);
  o.target = target;
  return o;
}
Op op_process() {
  Op o;
  o.kind = Op::Kind::kProcess;
  return o;
}

/// Runs an op sequence with one strategy, full provenance capture on.
/// Later process steps re-enter a harness whose memoized kBeta tokens
/// and watermarks are already advanced.
RunResult run_ops(MatchStrategy strategy, const std::vector<Rule>& rules,
                  const std::vector<Op>& ops) {
  RuleHarness h;
  h.set_match_strategy(strategy);
  h.set_provenance(pk::provenance::ProvenanceMode::kFull);
  for (const auto& r : rules) h.add_rule(r);
  RunResult res;
  std::vector<pk::rules::FactId> log;
  for (const auto& op : ops) {
    try {
      switch (op.kind) {
        case Op::Kind::kAssert:
          log.push_back(h.assert_fact(op.fact));
          break;
        case Op::Kind::kRetract:
          h.retract(log.at(op.target));
          break;
        case Op::Kind::kModify:
          log.push_back(h.modify(log.at(op.target), op.fact));
          break;
        case Op::Kind::kProcess:
          res.firings_per_stage.push_back(h.process_rules());
          break;
      }
    } catch (const std::exception& e) {
      res.error = e.what();
      break;
    }
  }
  res.output = h.output();
  res.diagnoses = h.diagnoses();
  for (const auto& d : res.diagnoses) {
    res.provenance.push_back(d.provenance ? pk::provenance::to_json(*d.provenance)
                                          : "(none)");
  }
  return res;
}

void expect_same(const RunResult& oracle, const RunResult& got,
                 const std::string& label) {
  EXPECT_EQ(oracle.firings_per_stage, got.firings_per_stage) << label;
  EXPECT_EQ(oracle.output, got.output) << label;
  EXPECT_EQ(oracle.error, got.error) << label;
  EXPECT_EQ(oracle.provenance, got.provenance) << label;
  EXPECT_EQ(oracle.diagnoses.size(), got.diagnoses.size()) << label;
  for (std::size_t i = 0;
       i < std::min(oracle.diagnoses.size(), got.diagnoses.size()); ++i) {
    EXPECT_TRUE(diagnoses_equal(oracle.diagnoses[i], got.diagnoses[i]))
        << label << ": diagnosis " << i << " differs: "
        << oracle.diagnoses[i].rule << " / " << got.diagnoses[i].rule;
  }
}

/// The differential assertion: naive is the oracle; the beta network
/// must agree byte-for-byte.
std::size_t expect_identical_ops(const std::vector<Rule>& rules,
                                 const std::vector<Op>& ops,
                                 const std::string& label) {
  const RunResult naive = run_ops(MatchStrategy::kNaive, rules, ops);
  expect_same(naive, run_ops(MatchStrategy::kBeta, rules, ops),
              label + " [beta]");
  std::size_t total = 0;
  for (const auto f : naive.firings_per_stage) total += f;
  return total;
}

std::size_t expect_identical(const std::vector<Rule>& rules,
                             const std::vector<std::vector<Fact>>& stages,
                             const std::string& label) {
  std::vector<Op> ops;
  for (const auto& stage : stages) {
    for (const auto& f : stage) ops.push_back(op_assert(f));
    ops.push_back(op_process());
  }
  return expect_identical_ops(rules, ops, label);
}

// ---- pattern-derived fact soups --------------------------------------
//
// For every pattern of every rule, synthesize a fact engineered to
// satisfy that pattern's literal constraints (and, where a constraint
// references a variable bound earlier in the same rule, the value that
// variable took), plus perturbed near-miss variants and random noise
// facts of the same types. This exercises each rulebase without
// hand-curating its field names, and guarantees both satisfying and
// non-satisfying candidates flow through the alpha tests and join buckets.

// Numbers only: generated values can flow through rulebase arithmetic
// ("dispatchCycles > j * 2"), which throws on strings/booleans — equally
// in both engines, but an exception aborts the differential run. String
// and boolean bucketing get dedicated tests below.
FactValue pool_value(std::mt19937& rng) {
  switch (rng() % 4) {
    case 0: return 0.0;
    case 1: return 0.5;
    case 2: return 2.0;
    default: return 7.25;
  }
}

FactValue satisfying_value(CmpOp op, const FactValue& rhs) {
  if (const auto* d = std::get_if<double>(&rhs)) {
    switch (op) {
      case CmpOp::kEq: return *d;
      case CmpOp::kNe: return *d + 1.0;
      case CmpOp::kLt: return *d - 1.0;
      case CmpOp::kLe: return *d;
      case CmpOp::kGt: return *d + 1.0;
      case CmpOp::kGe: return *d;
    }
  }
  if (const auto* s = std::get_if<std::string>(&rhs)) {
    switch (op) {
      case CmpOp::kEq: return *s;
      case CmpOp::kNe: return *s + "x";
      case CmpOp::kLt: return std::string("");
      case CmpOp::kLe: return *s;
      case CmpOp::kGt: return *s + "x";
      case CmpOp::kGe: return *s;
    }
  }
  // Booleans: equality is the only useful relation.
  if (const auto* b = std::get_if<bool>(&rhs)) {
    return op == CmpOp::kNe ? FactValue(!*b) : FactValue(*b);
  }
  return rhs;
}

std::vector<Fact> soup_for_rules(const std::vector<Rule>& rules,
                                 std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<Fact> soup;
  for (const auto& rule : rules) {
    // Simulate left-to-right matching so variable right-hand sides can be
    // given the value the variable would actually hold.
    std::map<std::string, FactValue> var_values;
    for (const auto& pat : rule.patterns) {
      Fact f(pat.fact_type);
      for (const auto& con : pat.constraints) {
        FactValue rhs;
        bool known = false;
        if (con.rhs.kind == Operand::Kind::kLiteral) {
          rhs = con.rhs.literal;
          known = true;
        } else if (con.rhs.kind == Operand::Kind::kVariable) {
          const auto it = var_values.find(con.rhs.variable);
          if (it != var_values.end()) {
            rhs = it->second;
            known = true;
          }
        }
        f.set(con.field, known ? satisfying_value(con.op, rhs)
                               : FactValue(1.0 + double(rng() % 4)));
      }
      for (const auto& b : pat.bindings) {
        if (!f.has(b.field)) f.set(b.field, pool_value(rng));
        var_values[b.variable] = f.get(b.field);
      }
      if (!pat.fact_variable.empty()) {
        for (const auto& [k, v] : f.fields()) {
          var_values[pat.fact_variable + "." + k] = v;
        }
      }
      // A perturbed near-miss sibling: one field nudged off-target so the
      // matcher must separate it from the satisfying fact.
      Fact miss = f;
      if (!f.fields().empty()) {
        const auto& first = f.fields().begin()->first;
        miss.set(first, FactValue(-123.25));
      }
      soup.push_back(std::move(f));
      soup.push_back(std::move(miss));
      // And a pure-noise fact of the same type.
      Fact noise(pat.fact_type);
      for (const auto& [k, v] : soup[soup.size() - 2].fields()) {
        (void)v;
        noise.set(k, pool_value(rng));
      }
      soup.push_back(std::move(noise));
    }
  }
  // Deterministic shuffle so assertion order differs from pattern order.
  std::shuffle(soup.begin(), soup.end(), rng);
  return soup;
}

std::vector<std::vector<Fact>> split_stages(std::vector<Fact> soup) {
  const std::size_t half = soup.size() / 2;
  std::vector<Fact> a(soup.begin(), soup.begin() + half);
  std::vector<Fact> b(soup.begin() + half, soup.end());
  return {std::move(a), std::move(b)};
}

std::size_t differential_rulebase(std::string_view source,
                                  const std::string& label) {
  std::size_t total = 0;
  for (std::uint32_t seed = 1; seed <= 3; ++seed) {
    const auto rules = pk::rules::parse_rules(std::string(source));
    auto soup = soup_for_rules(rules, seed);
    total += expect_identical(rules, split_stages(std::move(soup)),
                              label + " seed " + std::to_string(seed));
  }
  return total;
}

}  // namespace

TEST(IndexedDifferential, StallsPerCycle) {
  differential_rulebase(pk::rules::builtin::stalls_per_cycle(), "stalls");
}

TEST(IndexedDifferential, LoadImbalance) {
  differential_rulebase(pk::rules::builtin::load_imbalance(), "imbalance");
}

TEST(IndexedDifferential, Inefficiency) {
  differential_rulebase(pk::rules::builtin::inefficiency(), "inefficiency");
}

TEST(IndexedDifferential, StallCoverage) {
  differential_rulebase(pk::rules::builtin::stall_coverage(), "coverage");
}

TEST(IndexedDifferential, MemoryLocality) {
  differential_rulebase(pk::rules::builtin::memory_locality(), "locality");
}

TEST(IndexedDifferential, Power) {
  differential_rulebase(pk::rules::builtin::power(), "power");
}

TEST(IndexedDifferential, Instrumentation) {
  differential_rulebase(pk::rules::builtin::instrumentation(),
                        "instrumentation");
}

TEST(IndexedDifferential, OpenMP) {
  differential_rulebase(pk::rules::builtin::openmp(), "openmp");
}

TEST(IndexedDifferential, Communication) {
  differential_rulebase(pk::rules::builtin::communication(), "comm");
}

TEST(IndexedDifferential, FullOpenUHRulebaseFires) {
  // The union rulebase must not only agree — the generated soups must
  // actually trigger firings, or the differential proves nothing.
  const std::string all = pk::rules::builtin::openuh_rules();
  std::size_t total = 0;
  for (std::uint32_t seed = 10; seed <= 12; ++seed) {
    const auto rules = pk::rules::parse_rules(all);
    auto soup = soup_for_rules(rules, seed);
    total += expect_identical(rules, split_stages(std::move(soup)),
                              "openuh seed " + std::to_string(seed));
  }
  EXPECT_GT(total, 0u) << "fact soups never fired a rule — vacuous test";
}

// ---- randomized rulebases --------------------------------------------

namespace {

/// Builds a random but well-formed rulebase: variable right-hand sides
/// only reference variables bound by an earlier pattern of the same rule
/// (so neither strategy can hit an unbound-variable error), and derived
/// fact types form a DAG (rule i may consume D0..D(i-1), asserts Di), so
/// chains always terminate.
std::vector<Rule> random_rules(std::mt19937& rng, std::size_t count) {
  const std::vector<std::string> base_types = {"T0", "T1", "T2"};
  const std::vector<std::string> fields = {"f0", "f1", "f2"};
  std::vector<Rule> rules;
  for (std::size_t ri = 0; ri < count; ++ri) {
    Rule rule;
    rule.name = "rand" + std::to_string(ri);
    rule.salience = static_cast<int>(rng() % 3) - 1;
    std::vector<std::string> bound;
    const std::size_t npat = 1 + rng() % 2;
    for (std::size_t pi = 0; pi < npat; ++pi) {
      Pattern pat;
      const bool derived = ri > 0 && rng() % 3 == 0;
      pat.fact_type = derived ? "D" + std::to_string(rng() % ri)
                              : base_types[rng() % base_types.size()];
      const std::size_t ncon = rng() % 3;
      for (std::size_t ci = 0; ci < ncon; ++ci) {
        Constraint con;
        con.field = fields[rng() % fields.size()];
        con.op = static_cast<CmpOp>(rng() % 6);
        if (!bound.empty() && rng() % 3 == 0) {
          con.rhs = Operand::var(bound[rng() % bound.size()]);
        } else {
          con.rhs = Operand::lit(FactValue(double(rng() % 4)));
        }
        pat.constraints.push_back(std::move(con));
      }
      if (rng() % 2 == 0) {
        FieldBinding b;
        b.variable = "v" + std::to_string(ri) + "_" + std::to_string(pi);
        b.field = fields[rng() % fields.size()];
        bound.push_back(b.variable);
        pat.bindings.push_back(std::move(b));
      }
      rule.patterns.push_back(std::move(pat));
    }
    const bool asserts = rng() % 3 == 0;
    const std::string derived_type = "D" + std::to_string(ri);
    rule.action = [name = rule.name, asserts,
                   derived_type](RuleContext& ctx) {
      std::string line = name + " fired on";
      for (const auto id : ctx.matched_facts()) {
        line += " #" + std::to_string(id);
      }
      for (const auto& [k, v] : ctx.bindings()) {
        line += " " + k + "=" + pk::rules::to_display(v);
      }
      ctx.print(line);
      if (asserts) {
        ctx.assert_fact(Fact(derived_type).set("f0", 1.0).set("f1", 2.0));
      }
    };
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::vector<Fact> random_soup(std::mt19937& rng, std::size_t count) {
  const std::vector<std::string> base_types = {"T0", "T1", "T2"};
  const std::vector<std::string> fields = {"f0", "f1", "f2"};
  std::vector<Fact> soup;
  for (std::size_t i = 0; i < count; ++i) {
    Fact f(base_types[rng() % base_types.size()]);
    for (const auto& fld : fields) {
      if (rng() % 4 != 0) f.set(fld, FactValue(double(rng() % 4)));
    }
    soup.push_back(std::move(f));
  }
  return soup;
}

}  // namespace

TEST(IndexedDifferential, RandomizedRulebasesAndSoups) {
  std::size_t total = 0;
  for (std::uint32_t seed = 100; seed < 140; ++seed) {
    std::mt19937 rng(seed);
    const auto rules = random_rules(rng, 2 + rng() % 6);
    const auto soup = random_soup(rng, 8 + rng() % 20);
    total += expect_identical(rules, split_stages(soup),
                              "random seed " + std::to_string(seed));
  }
  EXPECT_GT(total, 100u) << "random soups barely fired — weak test";
}

TEST(IndexedDifferential, StrategyAccessorsAndDefault) {
  RuleHarness h;
  EXPECT_EQ(h.match_strategy(), MatchStrategy::kBeta);
  h.set_match_strategy(MatchStrategy::kNaive);
  EXPECT_EQ(h.match_strategy(), MatchStrategy::kNaive);
}

TEST(IndexedDifferential, IncrementalRerunOnlyFiresNewFacts) {
  // Fired-tuple dedup (and, for kBeta, memoized tokens and watermarks)
  // must survive across process_rules calls: re-running after new
  // asserts fires only activations involving the new facts.
  for (const auto strategy : {MatchStrategy::kNaive, MatchStrategy::kBeta}) {
    RuleHarness h;
    h.set_match_strategy(strategy);
    Rule r;
    r.name = "seen";
    Pattern p;
    p.fact_type = "Obs";
    p.bindings.push_back(FieldBinding{"x", "val"});
    r.patterns.push_back(std::move(p));
    r.action = [](RuleContext& ctx) {
      ctx.print("saw " + pk::rules::to_display(ctx.binding("x")));
    };
    h.add_rule(std::move(r));
    h.assert_fact(Fact("Obs").set("val", 1.0));
    h.assert_fact(Fact("Obs").set("val", 2.0));
    EXPECT_EQ(h.process_rules(), 2u);
    EXPECT_EQ(h.process_rules(), 0u);
    h.assert_fact(Fact("Obs").set("val", 3.0));
    EXPECT_EQ(h.process_rules(), 1u);
    EXPECT_EQ(h.output(),
              (std::vector<std::string>{"saw 1", "saw 2", "saw 3"}));
  }
}

TEST(IndexedDifferential, IndexProbeRespectsValueEquivalence) {
  // values_equal treats true == "true" and 2 == 2.0; the beta network's
  // literal tests and hash buckets must treat them identically or it
  // would miss activations the naive engine finds.
  Rule r;
  r.name = "boolish";
  Pattern p;
  p.fact_type = "Flag";
  p.constraints.push_back(
      Constraint{"on", CmpOp::kEq, Operand::lit(FactValue(true))});
  r.patterns.push_back(std::move(p));
  r.action = [](RuleContext& ctx) { ctx.print("hit"); };

  std::vector<Fact> soup;
  soup.push_back(Fact("Flag").set("on", true));
  soup.push_back(Fact("Flag").set("on", "true"));
  soup.push_back(Fact("Flag").set("on", "false"));
  soup.push_back(Fact("Flag").set("on", false));
  soup.push_back(Fact("Flag").set("on", 1.0));
  expect_identical({r}, {soup}, "bool equivalence");

  Rule neg;
  neg.name = "negzero";
  Pattern q;
  q.fact_type = "Num";
  q.constraints.push_back(
      Constraint{"x", CmpOp::kEq, Operand::lit(FactValue(0.0))});
  neg.patterns.push_back(std::move(q));
  neg.action = [](RuleContext& ctx) { ctx.print("zero"); };
  std::vector<Fact> nums;
  nums.push_back(Fact("Num").set("x", 0.0));
  nums.push_back(Fact("Num").set("x", -0.0));
  nums.push_back(Fact("Num").set("x", 1.0));
  expect_identical({neg}, {nums}, "negative zero");
}

TEST(IndexedDifferential, JoinOnBoundVariableUsesIndex) {
  // The classic beta join: the second pattern's equality against a
  // variable bound by the first pattern. Both strategies must agree on
  // every pairing, across incremental stages.
  Rule r;
  r.name = "nest";
  Pattern outer;
  outer.fact_type = "Parent";
  outer.bindings.push_back(FieldBinding{"pid", "id"});
  Pattern inner;
  inner.fact_type = "Child";
  inner.constraints.push_back(
      Constraint{"parent", CmpOp::kEq, Operand::var("pid")});
  inner.bindings.push_back(FieldBinding{"cid", "id"});
  r.patterns.push_back(std::move(outer));
  r.patterns.push_back(std::move(inner));
  r.action = [](RuleContext& ctx) {
    ctx.print(pk::rules::to_display(ctx.binding("pid")) + "->" +
              pk::rules::to_display(ctx.binding("cid")));
  };

  std::vector<std::vector<Fact>> stages(2);
  for (int i = 0; i < 6; ++i) {
    stages[0].push_back(
        Fact("Parent").set("id", double(i)));
    stages[0].push_back(
        Fact("Child").set("parent", double(i % 3)).set("id", double(10 + i)));
  }
  // Second stage: new children joining OLD parents, and vice versa.
  stages[1].push_back(Fact("Child").set("parent", 1.0).set("id", 99.0));
  stages[1].push_back(Fact("Parent").set("id", 2.0));
  const auto fired = expect_identical({r}, stages, "join");
  EXPECT_GT(fired, 0u);
}

// ---- retraction, modification, and memoized-join invalidation --------

namespace {

/// Parent(id -> pid) joined with Child(parent == pid), printing the pair.
Rule parent_child_rule() {
  Rule r;
  r.name = "nest";
  Pattern outer;
  outer.fact_type = "Parent";
  outer.bindings.push_back(FieldBinding{"pid", "id"});
  Pattern inner;
  inner.fact_type = "Child";
  inner.constraints.push_back(
      Constraint{"parent", CmpOp::kEq, Operand::var("pid")});
  inner.bindings.push_back(FieldBinding{"cid", "id"});
  r.patterns.push_back(std::move(outer));
  r.patterns.push_back(std::move(inner));
  r.action = [](RuleContext& ctx) {
    ctx.print(pk::rules::to_display(ctx.binding("pid")) + "->" +
              pk::rules::to_display(ctx.binding("cid")));
  };
  return r;
}

}  // namespace

TEST(IndexedDifferential, RetractedJoinPartnerNeverResurfaces) {
  // Regression pin for watermark handling when, after a retract, every
  // pattern of a rule matches only pre-watermark facts: the next process
  // call must fire nothing, and a later assert must fire exactly once —
  // no firing dropped (a memoized token outliving its retracted support)
  // and none duplicated (stale watermarks re-enumerating old tuples).
  const std::vector<Op> ops = {
      op_assert(Fact("Parent").set("id", 1.0)),              // log 0
      op_assert(Fact("Child").set("parent", 1.0).set("id", 10.0)),  // log 1
      op_process(),  // fires (parent, child10)
      op_retract(1),
      op_process(),  // all patterns pre-watermark: must fire nothing
      op_assert(Fact("Child").set("parent", 1.0).set("id", 11.0)),  // log 2
      op_process(),  // exactly one firing: (parent, child11)
  };
  const RunResult oracle =
      run_ops(MatchStrategy::kNaive, {parent_child_rule()}, ops);
  ASSERT_EQ(oracle.firings_per_stage,
            (std::vector<std::size_t>{1, 0, 1}));
  EXPECT_EQ(oracle.output, (std::vector<std::string>{"1->10", "1->11"}));
  expect_identical_ops({parent_child_rule()}, ops, "retract partner");
}

TEST(IndexedDifferential, ModifyRejoinsUnderFreshId) {
  // modify = retract + re-assert under a fresh id: the join must fire
  // again for the new id (it is a different tuple) and the stale tuple
  // must not fire after its support died.
  const std::vector<Op> ops = {
      op_assert(Fact("Parent").set("id", 1.0)),                     // log 0
      op_assert(Fact("Child").set("parent", 2.0).set("id", 10.0)),  // log 1
      op_process(),  // no match: parent 2 does not exist
      op_modify(1, Fact("Child").set("parent", 1.0).set("id", 10.0)),  // log 2
      op_process(),  // fires on the re-pointed child
      op_modify(2, Fact("Child").set("parent", 3.0).set("id", 10.0)),  // log 3
      op_process(),  // re-pointed away again: nothing
  };
  const RunResult oracle =
      run_ops(MatchStrategy::kNaive, {parent_child_rule()}, ops);
  ASSERT_EQ(oracle.firings_per_stage,
            (std::vector<std::size_t>{0, 1, 0}));
  expect_identical_ops({parent_child_rule()}, ops, "modify rejoin");
}

TEST(IndexedDifferential, RuleAddedAfterFactsSeesOldFacts) {
  // A rule registered after facts were asserted (and processed) must
  // still match them: the beta network backfills its alpha memories from
  // facts below the type watermark.
  for (const auto strategy : {MatchStrategy::kNaive, MatchStrategy::kBeta}) {
    RuleHarness h;
    h.set_match_strategy(strategy);
    h.add_rule(parent_child_rule());
    h.assert_fact(Fact("Parent").set("id", 1.0));
    h.assert_fact(Fact("Child").set("parent", 1.0).set("id", 10.0));
    EXPECT_EQ(h.process_rules(), 1u);
    Rule late = parent_child_rule();
    late.name = "late";
    h.add_rule(std::move(late));
    EXPECT_EQ(h.process_rules(), 1u) << "late rule must see old facts";
    EXPECT_EQ(h.output(),
              (std::vector<std::string>{"1->10", "1->10"}));
  }
}

TEST(IndexedDifferential, TripleJoinWithChurn) {
  // Three-pattern rule: an equality chain (hash-joinable) plus an
  // inequality join (forces the non-probe token-extension path), run
  // through interleaved assert/retract/modify cycles.
  Rule r;
  r.name = "triple";
  Pattern a;
  a.fact_type = "G";
  a.bindings.push_back(FieldBinding{"g", "grp"});
  a.bindings.push_back(FieldBinding{"lo", "floor"});
  Pattern b;
  b.fact_type = "E";
  b.constraints.push_back(Constraint{"grp", CmpOp::kEq, Operand::var("g")});
  b.bindings.push_back(FieldBinding{"ev", "name"});
  Pattern c;
  c.fact_type = "S";
  c.constraints.push_back(Constraint{"event", CmpOp::kEq, Operand::var("ev")});
  c.constraints.push_back(Constraint{"sev", CmpOp::kGt, Operand::var("lo")});
  r.patterns.push_back(std::move(a));
  r.patterns.push_back(std::move(b));
  r.patterns.push_back(std::move(c));
  r.action = [](RuleContext& ctx) {
    std::string line = "triple";
    for (const auto id : ctx.matched_facts()) {
      line += " #" + std::to_string(id);
    }
    ctx.print(line);
  };

  std::vector<Op> ops;
  ops.push_back(op_assert(Fact("G").set("grp", 1.0).set("floor", 0.5)));  // 0
  ops.push_back(op_assert(Fact("E").set("grp", 1.0).set("name", "L1")));  // 1
  ops.push_back(op_assert(Fact("S").set("event", "L1").set("sev", 0.9)));  // 2
  ops.push_back(op_process());  // one triple
  ops.push_back(op_assert(Fact("S").set("event", "L1").set("sev", 0.2)));  // 3
  ops.push_back(op_process());  // below floor: nothing
  ops.push_back(op_retract(1));  // kill the middle of the memoized chain
  ops.push_back(op_process());   // nothing may fire or crash
  ops.push_back(op_assert(Fact("E").set("grp", 1.0).set("name", "L1")));  // 4
  ops.push_back(op_process());  // rebuilt chain: one new triple
  ops.push_back(op_modify(0, Fact("G").set("grp", 1.0).set("floor", 0.0)));
  ops.push_back(op_process());  // fresh G id: both S facts now qualify
  const RunResult oracle = run_ops(MatchStrategy::kNaive, {r}, ops);
  ASSERT_EQ(oracle.firings_per_stage,
            (std::vector<std::size_t>{1, 0, 0, 1, 2}));
  expect_identical_ops({r}, ops, "triple churn");
}

TEST(IndexedDifferential, RetractHeavyRandomizedDifferential) {
  // Randomized soups with interleaved retract/modify/process cycles: the
  // harshest exercise of watermark bookkeeping and token invalidation.
  std::size_t total = 0;
  for (std::uint32_t seed = 500; seed < 540; ++seed) {
    std::mt19937 rng(seed);
    const auto rules = random_rules(rng, 2 + rng() % 6);
    std::vector<Op> ops;
    std::vector<std::size_t> live;  // indexes into the op id log
    std::size_t logged = 0;
    const std::size_t cycles = 3 + rng() % 3;
    for (std::size_t cyc = 0; cyc < cycles; ++cyc) {
      for (const auto& f : random_soup(rng, 4 + rng() % 8)) {
        ops.push_back(op_assert(f));
        live.push_back(logged++);
      }
      // Retract or modify a few random still-live facts.
      const std::size_t churn = rng() % 4;
      for (std::size_t i = 0; i < churn && !live.empty(); ++i) {
        const std::size_t pick = rng() % live.size();
        const std::size_t target = live[pick];
        live.erase(live.begin() + pick);
        if (rng() % 2 == 0) {
          ops.push_back(op_retract(target));
        } else {
          auto replacement = random_soup(rng, 1);
          ops.push_back(op_modify(target, replacement[0]));
          live.push_back(logged++);
        }
      }
      ops.push_back(op_process());
    }
    total += expect_identical_ops(rules, ops,
                                  "churn seed " + std::to_string(seed));
  }
  EXPECT_GT(total, 100u) << "churn soups barely fired — weak test";
}
