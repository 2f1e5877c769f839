// Shared rule-engine benchmark workload, the shape the analysis layer
// produces: many MeanEventFact-style facts partitioned into groups,
// selective single-pattern threshold rules, inequality band rules whose
// first pattern no equality index can probe (every strategy except the
// beta network's shared admission pass re-scans the full type), a
// two-pattern join, a three-pattern chained join, and a summary rule so
// the engine runs multiple firing rounds.
//
// Thresholds are deliberately selective (a few hundred firings at 100k
// facts, not tens of thousands): the firing loop is identical across
// strategies, so keeping it small lets the benchmark measure *matching*
// cost, which is what the strategies differ in.
//
// Used by bench_rules_engine (naive vs beta scaling and
// fact-churn cycles) and bench_telemetry (the same fixed-size workload
// built with and without telemetry compiled in / enabled).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rules/engine.hpp"
#include "rules/fact.hpp"

namespace perfknow::benchres {

inline constexpr std::size_t kGroups = 64;

inline std::vector<rules::Fact> make_facts(std::size_t n) {
  std::vector<rules::Fact> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rules::Fact f("MeanEventFact");
    f.set("eventName", "ev" + std::to_string(i));
    f.set("group", "g" + std::to_string(i % kGroups));
    // Deterministic pseudo-random severity in [0, 1); roughly every
    // 1000th fact crosses the hot threshold. The stride is prime so the
    // planted hot facts spread across all kGroups groups — a stride
    // sharing a factor with kGroups would pile every hot anchor into
    // one group and blow the joins up combinatorially.
    const double sev =
        (i % 1021 == 7) ? 0.999 : double((i * 2654435761u) % 997) / 1000.0;
    f.set("severity", sev);
    f.set("metric", (i % 3 == 0) ? "TIME" : "CPU_CYCLES");
    out.push_back(std::move(f));
  }
  return out;
}

/// Facts used by the churn benchmark's modify/assert cycles: same shape,
/// distinct event names so derived facts never collide with the seeds.
inline rules::Fact make_churn_fact(std::size_t cycle, std::size_t k) {
  rules::Fact f("MeanEventFact");
  f.set("eventName", "ch" + std::to_string(cycle) + "_" + std::to_string(k));
  f.set("group", "g" + std::to_string(k % kGroups));
  // Prime stride, for the same reason as make_facts: hot churn facts
  // must spread across groups or the joins blow up combinatorially.
  f.set("severity", (k % 97 == 3) ? 0.999 : 0.5);
  f.set("metric", (k % 3 == 0) ? "TIME" : "CPU_CYCLES");
  return f;
}

inline std::vector<rules::Rule> make_rules() {
  namespace rl = rules;
  std::vector<rl::Rule> out;

  // Threshold rule with a literal equality on metric.
  rl::Rule hot;
  hot.name = "hot-event";
  hot.salience = 10;
  rl::Pattern hp;
  hp.fact_type = "MeanEventFact";
  hp.constraints.push_back(rl::Constraint{
      "metric", rl::CmpOp::kEq, rl::Operand::lit(rl::FactValue("TIME"))});
  hp.constraints.push_back(rl::Constraint{
      "severity", rl::CmpOp::kGt, rl::Operand::lit(rl::FactValue(0.998))});
  hp.bindings.push_back(rl::FieldBinding{"e", "eventName"});
  hot.patterns.push_back(std::move(hp));
  hot.action = [](rl::RuleContext& ctx) {
    ctx.assert_fact(rl::Fact("HotEvent")
                        .set("eventName", ctx.binding("e"))
                        .set("level", 1.0));
  };
  out.push_back(std::move(hot));

  // Inequality band rules: no equality constraint anywhere, so no hash
  // bucket can narrow the candidate set — the naive matcher re-scans
  // every MeanEventFact per band, while the beta network folds all bands
  // into its one shared per-type admission pass.
  for (const double lo : {0.2455, 0.4955, 0.7455}) {
    rl::Rule band;
    band.name = "band-" + std::to_string(lo);
    rl::Pattern bp;
    bp.fact_type = "MeanEventFact";
    bp.constraints.push_back(rl::Constraint{
        "severity", rl::CmpOp::kGt, rl::Operand::lit(rl::FactValue(lo))});
    bp.constraints.push_back(rl::Constraint{
        "severity", rl::CmpOp::kLt, rl::Operand::lit(rl::FactValue(lo + 0.001))});
    bp.bindings.push_back(rl::FieldBinding{"e", "eventName"});
    band.patterns.push_back(std::move(bp));
    band.action = [](rl::RuleContext& ctx) {
      ctx.print("band " + rl::to_display(ctx.binding("e")));
    };
    out.push_back(std::move(band));
  }

  // Join: hot events paired with same-group siblings (the equality
  // against a bound variable is the beta join: the naive matcher scans
  // every sibling per hot fact, the network keeps memoized tokens).
  rl::Rule join;
  join.name = "hot-group-pair";
  rl::Pattern p0;
  p0.fact_type = "MeanEventFact";
  p0.constraints.push_back(rl::Constraint{
      "severity", rl::CmpOp::kGt, rl::Operand::lit(rl::FactValue(0.998))});
  p0.bindings.push_back(rl::FieldBinding{"g", "group"});
  p0.bindings.push_back(rl::FieldBinding{"e1", "eventName"});
  rl::Pattern p1;
  p1.fact_type = "MeanEventFact";
  p1.constraints.push_back(
      rl::Constraint{"group", rl::CmpOp::kEq, rl::Operand::var("g")});
  p1.constraints.push_back(rl::Constraint{
      "severity", rl::CmpOp::kGt, rl::Operand::lit(rl::FactValue(0.995))});
  p1.bindings.push_back(rl::FieldBinding{"e2", "eventName"});
  join.patterns.push_back(std::move(p0));
  join.patterns.push_back(std::move(p1));
  join.action = [](rl::RuleContext& ctx) {
    ctx.assert_fact(rl::Fact("GroupPair")
                        .set("group", ctx.binding("g"))
                        .set("level", 2.0));
  };
  out.push_back(std::move(join));

  // Three-pattern chain: hot anchor, same-group sibling, and a cycles
  // counterpart — two equality-join extensions per anchor.
  rl::Rule triple;
  triple.name = "hot-triple";
  rl::Pattern t0;
  t0.fact_type = "MeanEventFact";
  t0.constraints.push_back(rl::Constraint{
      "severity", rl::CmpOp::kGt, rl::Operand::lit(rl::FactValue(0.998))});
  t0.bindings.push_back(rl::FieldBinding{"g", "group"});
  rl::Pattern t1;
  t1.fact_type = "MeanEventFact";
  t1.constraints.push_back(
      rl::Constraint{"group", rl::CmpOp::kEq, rl::Operand::var("g")});
  t1.constraints.push_back(rl::Constraint{
      "metric", rl::CmpOp::kEq, rl::Operand::lit(rl::FactValue("TIME"))});
  t1.constraints.push_back(rl::Constraint{
      "severity", rl::CmpOp::kGt, rl::Operand::lit(rl::FactValue(0.995))});
  rl::Pattern t2;
  t2.fact_type = "MeanEventFact";
  t2.constraints.push_back(
      rl::Constraint{"group", rl::CmpOp::kEq, rl::Operand::var("g")});
  t2.constraints.push_back(rl::Constraint{
      "metric", rl::CmpOp::kEq,
      rl::Operand::lit(rl::FactValue("CPU_CYCLES"))});
  t2.constraints.push_back(rl::Constraint{
      "severity", rl::CmpOp::kGt, rl::Operand::lit(rl::FactValue(0.995))});
  triple.patterns.push_back(std::move(t0));
  triple.patterns.push_back(std::move(t1));
  triple.patterns.push_back(std::move(t2));
  triple.action = [](rl::RuleContext& ctx) {
    ctx.assert_fact(
        rl::Fact("TripleHit").set("group", ctx.binding("g")));
  };
  out.push_back(std::move(triple));

  // Chained summary over the derived facts: forces extra firing rounds.
  rl::Rule summary;
  summary.name = "summary";
  summary.salience = -10;
  rl::Pattern sp;
  sp.fact_type = "GroupPair";
  sp.bindings.push_back(rl::FieldBinding{"g", "group"});
  summary.patterns.push_back(std::move(sp));
  summary.action = [](rl::RuleContext& ctx) {
    ctx.print("pair in " + rl::to_display(ctx.binding("g")));
  };
  out.push_back(std::move(summary));

  return out;
}

}  // namespace perfknow::benchres
