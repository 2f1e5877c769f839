#include "power/power_model.hpp"

#include <algorithm>
#include <limits>
#include <cmath>

#include "common/error.hpp"

namespace perfknow::power {

using hwcounters::Counter;

PowerModel::PowerModel(double tdp_watts, double idle_watts,
                       std::vector<Component> components)
    : tdp_(tdp_watts), idle_(idle_watts), components_(std::move(components)) {
  if (tdp_ <= 0.0 || idle_ < 0.0 || idle_ >= tdp_) {
    throw InvalidArgumentError("PowerModel: need 0 <= idle < tdp");
  }
  if (components_.empty()) {
    throw InvalidArgumentError("PowerModel: need at least one component");
  }
  double sum = 0.0;
  for (const auto& c : components_) {
    if (c.architectural_scaling <= 0.0 || c.peak_rate_per_cycle <= 0.0) {
      throw InvalidArgumentError("PowerModel: component '" + c.name +
                                 "' has non-positive scaling or peak rate");
    }
    sum += c.architectural_scaling;
  }
  // Normalize scalings so full activity on every component dissipates
  // exactly the dynamic budget (tdp - idle).
  for (auto& c : components_) c.architectural_scaling /= sum;
}

PowerModel PowerModel::itanium2() {
  // Scalings reflect the Itanium 2 die: large FP datapath, six-issue
  // front end, and the three-level on-die cache hierarchy.
  std::vector<Component> comps = {
      {"FPU", 0.28, 4.0, Counter::kFpOps},    // 2 FMACs = 4 flops/cycle
      {"IEU", 0.22, 6.0, Counter::kInstructionsCompleted},
      {"L1D", 0.12, 4.0, Counter::kLoads},    // 4 mem ports
      {"L2", 0.10, 1.0, Counter::kL2References},
      {"L3", 0.10, 0.25, Counter::kL3References},
      {"FE", 0.13, 6.0, Counter::kInstructionsIssued},
      {"SYSIF", 0.05, 0.05, Counter::kL3Misses},
  };
  return PowerModel(107.0, 32.0, std::move(comps));
}

PowerEstimate PowerModel::estimate(
    const hwcounters::CounterVector& counters) const {
  PowerEstimate e;
  e.idle_watts = idle_;
  e.total_watts = idle_;
  const double cycles = counters.get(Counter::kCpuCycles);
  const double budget = tdp_ - idle_;
  for (const auto& comp : components_) {
    ComponentPower cp;
    cp.name = comp.name;
    if (cycles > 0.0) {
      const double per_cycle = counters.get(comp.activity) / cycles;
      cp.access_rate =
          std::clamp(per_cycle / comp.peak_rate_per_cycle, 0.0, 1.0);
    }
    cp.watts = cp.access_rate * comp.architectural_scaling * budget;
    e.total_watts += cp.watts;
    e.components.push_back(std::move(cp));
  }
  return e;
}

double flops_per_joule(double flops, double joules) {
  return joules == 0.0 ? 0.0 : flops / joules;
}

void PowerStudy::add(openuh::OptLevel level,
                     const hwcounters::CounterVector& aggregate,
                     double seconds, unsigned num_cpus) {
  if (num_cpus == 0) {
    throw InvalidArgumentError("PowerStudy::add: num_cpus must be positive");
  }
  if (seconds <= 0.0) {
    throw InvalidArgumentError("PowerStudy::add: seconds must be positive");
  }
  // Mean per-CPU counter vector for the access rates.
  hwcounters::CounterVector per_cpu = aggregate;
  per_cpu *= 1.0 / static_cast<double>(num_cpus);

  PowerStudyRow row;
  row.level = level;
  row.seconds = seconds;
  row.instructions_completed =
      aggregate.get(Counter::kInstructionsCompleted);
  row.instructions_issued = aggregate.get(Counter::kInstructionsIssued);
  const double cycles = per_cpu.get(Counter::kCpuCycles);
  row.ipc_completed =
      cycles == 0.0 ? 0.0
                    : per_cpu.get(Counter::kInstructionsCompleted) / cycles;
  row.ipc_issued =
      cycles == 0.0 ? 0.0
                    : per_cpu.get(Counter::kInstructionsIssued) / cycles;
  row.flops = aggregate.get(Counter::kFpOps);
  row.watts = estimate_total(per_cpu, num_cpus);
  row.joules = energy_joules(row.watts, seconds);
  row.flop_per_joule = flops_per_joule(row.flops, row.joules);
  rows_.push_back(row);
}

double PowerStudy::estimate_total(const hwcounters::CounterVector& per_cpu,
                                  unsigned num_cpus) const {
  return model_.estimate(per_cpu).total_watts *
         static_cast<double>(num_cpus);
}

const PowerStudyRow& PowerStudy::row(openuh::OptLevel level) const {
  for (const auto& r : rows_) {
    if (r.level == level) return r;
  }
  throw NotFoundError("PowerStudy: no row for level " +
                      std::string(openuh::to_string(level)));
}

std::vector<std::pair<std::string, std::vector<double>>>
PowerStudy::relative_table() const {
  if (rows_.empty()) {
    throw InvalidArgumentError("PowerStudy: no rows");
  }
  const PowerStudyRow& base = rows_.front();
  auto rel = [](double v, double b) { return b == 0.0 ? 0.0 : v / b; };
  std::vector<std::pair<std::string, std::vector<double>>> table;
  auto series = [&](const std::string& name, auto getter) {
    std::vector<double> vals;
    vals.reserve(rows_.size());
    for (const auto& r : rows_) vals.push_back(rel(getter(r), getter(base)));
    table.emplace_back(name, std::move(vals));
  };
  series("Time", [](const PowerStudyRow& r) { return r.seconds; });
  series("Instructions Completed",
         [](const PowerStudyRow& r) { return r.instructions_completed; });
  series("Instructions Issued",
         [](const PowerStudyRow& r) { return r.instructions_issued; });
  series("Instructions Completed Per Cycle",
         [](const PowerStudyRow& r) { return r.ipc_completed; });
  series("Instructions Issued Per Cycle",
         [](const PowerStudyRow& r) { return r.ipc_issued; });
  series("Watts", [](const PowerStudyRow& r) { return r.watts; });
  series("Joules", [](const PowerStudyRow& r) { return r.joules; });
  series("FLOP/Joule",
         [](const PowerStudyRow& r) { return r.flop_per_joule; });
  return table;
}

std::size_t PowerStudy::assert_facts(rules::RuleHarness& harness) const {
  if (rows_.empty()) return 0;
  const rules::ProvenanceSource source(harness, "assert_facts(PowerStudy)");
  const PowerStudyRow& base = rows_.front();
  auto rel = [](double v, double b) { return b == 0.0 ? 0.0 : v / b; };

  std::size_t lowest_power = 0;
  std::size_t lowest_energy = 0;
  for (std::size_t i = 1; i < rows_.size(); ++i) {
    if (rows_[i].watts < rows_[lowest_power].watts) lowest_power = i;
    if (rows_[i].joules < rows_[lowest_energy].joules) lowest_energy = i;
  }
  // "Balanced" = lowest power dissipation among the levels that actually
  // improve energy over the baseline — the judgement behind the paper's
  // "O2 for both power and energy efficiency". Falls back to the energy
  // winner when no level improves energy.
  std::size_t balanced = lowest_energy;
  double balanced_watts = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].joules < base.joules && rows_[i].watts < balanced_watts) {
      balanced_watts = rows_[i].watts;
      balanced = i;
    }
  }
  const auto study = harness.schema(
      "PowerStudyFact",
      {"level", "relativeTime", "relativeInstructions", "relativeWatts",
       "relativeJoules", "relativeFlopPerJoule", "isLowestPower",
       "isLowestEnergy", "isBalanced", "correlatedEnergyInstructions"});
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& r = rows_[i];
    // Energy tracks instruction count when their relative values agree
    // within 25% (the correlation Valluri & John report).
    const double rj = rel(r.joules, base.joules);
    const double ri =
        rel(r.instructions_completed, base.instructions_completed);
    harness.emit(study)
        .str("level", std::string(openuh::to_string(r.level)))
        .num("relativeTime", rel(r.seconds, base.seconds))
        .num("relativeInstructions", ri)
        .num("relativeWatts", rel(r.watts, base.watts))
        .num("relativeJoules", rj)
        .num("relativeFlopPerJoule",
             rel(r.flop_per_joule, base.flop_per_joule))
        .flag("isLowestPower", i == lowest_power)
        .flag("isLowestEnergy", i == lowest_energy)
        .flag("isBalanced", i == balanced)
        .flag("correlatedEnergyInstructions",
              rj > 0.0 && ri > 0.0 &&
                  std::abs(rj - ri) / std::max(rj, ri) < 0.25)
        .commit();
  }
  return rows_.size();
}

}  // namespace perfknow::power
