// Frequency-based feedback optimizations.
//
// The paper: "The compiler currently supports feedback for branch, loop,
// and control flow optimizations, and callsite counts to improve
// inlining. All these optimizations are frequency-based and this work is
// being done as an initial step towards providing feedback to the
// internal cost-models of the compiler."
//
// This module implements that tier: a frequency profile extracted from a
// measured trial's call counts, a callsite-count-driven inlining
// decision pass (benefit = eliminated call overhead, cost = code
// growth), and a branch-layout pass that arranges the hot direction as
// the fall-through and predicts the residual misprediction rate.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "openuh/ir.hpp"
#include "profile/profile.hpp"

namespace perfknow::openuh {

/// Per-region dynamic invocation counts from a profiling run.
class FrequencyProfile {
 public:
  /// Extracts call counts per event name (summed over threads).
  [[nodiscard]] static FrequencyProfile from_trial(
      const profile::Trial& trial);

  void set(const std::string& region, double count) {
    counts_[region] = count;
  }
  /// 0 for unknown regions (never sampled = assumed cold).
  [[nodiscard]] double calls(const std::string& region) const;
  [[nodiscard]] std::size_t size() const noexcept { return counts_.size(); }

 private:
  std::map<std::string, double> counts_;
};

struct InlineParams {
  double call_overhead_cycles = 40.0;  ///< save/restore + branch + RSE
  /// Callees larger than this never inline (code-bloat guard).
  double max_callee_statements = 60.0;
  /// Minimum total benefit (cycles) to bother.
  double min_benefit_cycles = 100000.0;
  /// Total code-growth budget in statements.
  double growth_budget_statements = 500.0;
};

struct InlineDecision {
  std::string caller;
  std::string callee;
  bool inlined = false;
  double call_count = 0.0;
  double benefit_cycles = 0.0;   ///< eliminated call overhead
  double growth_statements = 0.0;
  std::string reason;            ///< why not, when !inlined
};

/// Greedy benefit-ordered inlining under a growth budget, using measured
/// callsite frequencies. Callsites to procedures absent from the program
/// are reported with reason "unknown callee".
[[nodiscard]] std::vector<InlineDecision> decide_inlining(
    const ProgramIR& program, const FrequencyProfile& freq,
    const InlineParams& params = {});

/// Applies the accepted decisions: the callee's straight-line statements
/// and loops are folded into each inlining caller and the callsite is
/// removed. (Callees stay in the program for their other callers.)
[[nodiscard]] ProgramIR apply_inlining(
    ProgramIR program, const std::vector<InlineDecision>& decisions);

/// Measured outcome counts of one two-way branch.
struct BranchFrequency {
  std::string name;
  double taken = 0.0;
  double not_taken = 0.0;
};

struct BranchLayout {
  std::string name;
  /// True when the compiler should invert the condition so the hot
  /// direction falls through.
  bool invert = false;
  /// Predicted misprediction rate for a static hot-direction predictor.
  double predicted_mispredict_rate = 0.0;
  double bias = 0.0;  ///< hot fraction, 0.5 .. 1.0
};

/// Frequency-based branch layout: fall-through follows the hot direction;
/// the residual static misprediction rate is the cold fraction.
[[nodiscard]] std::vector<BranchLayout> optimize_branches(
    const std::vector<BranchFrequency>& branches);

}  // namespace perfknow::openuh
