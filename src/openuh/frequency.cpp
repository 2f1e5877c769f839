#include "openuh/frequency.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace perfknow::openuh {

FrequencyProfile FrequencyProfile::from_trial(const profile::Trial& trial) {
  FrequencyProfile fp;
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    double total = 0.0;
    for (std::size_t th = 0; th < trial.thread_count(); ++th) {
      total += trial.calls(th, e).calls;
    }
    fp.counts_[trial.event(e).name] = total;
  }
  return fp;
}

double FrequencyProfile::calls(const std::string& region) const {
  const auto it = counts_.find(region);
  return it == counts_.end() ? 0.0 : it->second;
}

std::vector<InlineDecision> decide_inlining(const ProgramIR& program,
                                            const FrequencyProfile& freq,
                                            const InlineParams& params) {
  std::vector<InlineDecision> decisions;
  for (const auto& proc : program.procedures) {
    for (const auto& callee_name : proc.callees) {
      InlineDecision d;
      d.caller = proc.name;
      d.callee = callee_name;
      // Callsite frequency: measured callee entry count attributed to
      // this caller; with one caller this is exact, with several it is
      // an upper bound (the conservative direction for benefit).
      d.call_count = freq.calls(callee_name);
      d.benefit_cycles = d.call_count * params.call_overhead_cycles;
      if (!program.has_procedure(callee_name)) {
        d.reason = "unknown callee";
        decisions.push_back(std::move(d));
        continue;
      }
      const Procedure& callee = program.procedure(callee_name);
      d.growth_statements = callee.straightline_statements;
      if (!callee.loops.empty()) {
        // Loop-bearing callees are bigger than their statement count
        // suggests; weigh each nest as ~8 statements.
        d.growth_statements += 8.0 * static_cast<double>(callee.loops.size());
      }
      if (d.growth_statements > params.max_callee_statements) {
        d.reason = "callee too large";
      } else if (d.benefit_cycles < params.min_benefit_cycles) {
        d.reason = "benefit below threshold";
      }
      decisions.push_back(std::move(d));
    }
  }

  // Greedy: highest benefit per statement of growth first, under budget.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (decisions[i].reason.empty()) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const auto density = [&](const InlineDecision& d) {
                       return d.benefit_cycles /
                              std::max(1.0, d.growth_statements);
                     };
                     return density(decisions[a]) > density(decisions[b]);
                   });
  double budget = params.growth_budget_statements;
  for (const auto i : order) {
    if (decisions[i].growth_statements <= budget) {
      decisions[i].inlined = true;
      budget -= decisions[i].growth_statements;
    } else {
      decisions[i].reason = "growth budget exhausted";
    }
  }
  return decisions;
}

ProgramIR apply_inlining(ProgramIR program,
                         const std::vector<InlineDecision>& decisions) {
  for (const auto& d : decisions) {
    if (!d.inlined) continue;
    if (!program.has_procedure(d.caller) ||
        !program.has_procedure(d.callee)) {
      throw InvalidArgumentError("apply_inlining: decision references '" +
                                 d.caller + "' -> '" + d.callee +
                                 "' not present in the program");
    }
    // Snapshot the callee before mutating the caller (self-inlining of
    // mutual references stays well-defined).
    const Procedure callee = program.procedure(d.callee);
    for (auto& proc : program.procedures) {
      if (proc.name != d.caller) continue;
      proc.straightline_statements += callee.straightline_statements;
      for (const auto& nest : callee.loops) {
        LoopNest copy = nest;
        copy.name = d.caller + "::" + nest.name;
        proc.loops.push_back(std::move(copy));
      }
      // Remove one callsite to the callee; inherit the callee's calls
      // (they now happen from the inlined body).
      const auto it =
          std::find(proc.callees.begin(), proc.callees.end(), d.callee);
      if (it != proc.callees.end()) proc.callees.erase(it);
      for (const auto& transitive : callee.callees) {
        proc.callees.push_back(transitive);
      }
    }
  }
  return program;
}

std::vector<BranchLayout> optimize_branches(
    const std::vector<BranchFrequency>& branches) {
  std::vector<BranchLayout> out;
  out.reserve(branches.size());
  for (const auto& b : branches) {
    if (b.taken < 0.0 || b.not_taken < 0.0) {
      throw InvalidArgumentError("optimize_branches: negative counts for '" +
                                 b.name + "'");
    }
    BranchLayout layout;
    layout.name = b.name;
    const double total = b.taken + b.not_taken;
    if (total == 0.0) {
      // Never executed: leave as written, predict nothing.
      layout.bias = 0.5;
      layout.predicted_mispredict_rate = 0.0;
      out.push_back(std::move(layout));
      continue;
    }
    // Fall-through is the not-taken direction: invert when taken is hot.
    layout.invert = b.taken > b.not_taken;
    const double hot = std::max(b.taken, b.not_taken);
    layout.bias = hot / total;
    layout.predicted_mispredict_rate = 1.0 - layout.bias;
    out.push_back(std::move(layout));
  }
  return out;
}

}  // namespace perfknow::openuh
