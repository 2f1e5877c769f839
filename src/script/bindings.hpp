// PerfExplorer API bindings for PerfScript.
//
// An AnalysisSession wires an interpreter to a PerfDMF repository and a
// rule harness and registers the scripting surface the paper's Fig. 1
// uses, ported from the Jython API:
//
//   ruleHarness = RuleHarness.useGlobalRules("openuh/OpenUHRules.drl")
//   trial  = TrialMeanResult(Utilities.getTrial("Fluid Dynamic",
//                                               "rib 45", "1_8"))
//   op     = DeriveMetricOperation(trial, stalls, cycles,
//                                  DeriveMetricOperation.DIVIDE)
//   derived = op.processData().get(0)
//   for event in derived.getEvents():
//       MeanEventFact.compareEventToMain(derived, mainEvent,
//                                        derived, event)
//   ruleHarness.processRules()
//
// Registered globals (beyond the language builtins):
//   Utilities.getTrial / getTrialList / saveTrial
//   TrialResult(trial) / TrialMeanResult(trial)
//   DeriveMetricOperation(result, m1, m2, op) with ADD/SUBTRACT/
//     MULTIPLY/DIVIDE constants; .processData() -> list of results
//   ScaleMetricOperation(result, metric, factor, name)
//   MeanEventFact.compareEventToMain(...)
//   RuleHarness.useGlobalRules(name) / .assertFact / .processRules /
//     .getOutput / .getDiagnoses / .setMatchStrategy("beta" | "naive") /
//     .getMatchStrategy
//   correlateEvents, loadBalance, topEvents,
//   assertLoadBalanceFacts, assertStallFacts, assertMemoryLocalityFacts,
//   estimatePower
//   Telemetry.snapshot / enabled / setEnabled / reset / assertSelfFacts
//
// Host-object types: "Trial", "TrialResult", "DeriveMetricOperation",
// "RuleHarness".
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "perfdmf/repository.hpp"
#include "rules/engine.hpp"
#include "script/interpreter.hpp"

namespace perfknow::script {

/// Everything an AnalysisSession can be configured with, in one place.
/// Only `repository` is required; the defaults reproduce the historical
/// one-argument constructor's behaviour exactly. The session's harness
/// starts with the beta matcher and provenance off; scripts switch them
/// with RuleHarness.setMatchStrategy / Session.setProvenance, C++ code
/// through harness().
struct SessionOptions {
  /// The trial store scripts see as `Utilities`. Required; must outlive
  /// the session.
  perfdmf::Repository* repository = nullptr;

  /// Extra directory RuleHarness.useGlobalRules searches for ".rules"
  /// files after the built-in names (so scripts can say
  /// useGlobalRules("self_diagnosis.rules") with rules_path = "rules/").
  std::filesystem::path rules_path = {};

  /// Checks every field up front and throws InvalidArgumentError naming
  /// the offending field ("SessionOptions.repository: ...") instead of
  /// letting a bad value fail deep inside the interpreter. Called by the
  /// AnalysisSession constructor; callers building options by hand can
  /// call it earlier for a cheaper failure point. Checks: repository is
  /// non-null, and rules_path (when set) names an existing directory.
  void validate() const;
};

class AnalysisSession {
 public:
  /// Configured construction; throws InvalidArgumentError when
  /// options.repository is null.
  explicit AnalysisSession(SessionOptions options);

  AnalysisSession(const AnalysisSession&) = delete;
  AnalysisSession& operator=(const AnalysisSession&) = delete;

  [[nodiscard]] Interpreter& interpreter() noexcept { return interp_; }
  [[nodiscard]] rules::RuleHarness& harness() noexcept { return *harness_; }
  [[nodiscard]] perfdmf::Repository& repository() noexcept {
    return *repository_;
  }
  [[nodiscard]] const SessionOptions& options() const noexcept {
    return options_;
  }
  /// Runs a script; print() output is collected on the interpreter.
  void run(const std::string& source);
  void run_file(const std::filesystem::path& path);

  [[nodiscard]] const std::vector<std::string>& output() const noexcept {
    return interp_.output();
  }

 private:
  void register_api();

  SessionOptions options_;
  perfdmf::Repository* repository_;
  std::shared_ptr<rules::RuleHarness> harness_;
  Interpreter interp_;
};

}  // namespace perfknow::script
