// The named analysis pipelines, defined once.
//
// The paper captures performance knowledge once and reuses it: one
// PerfExplorer script and one rulebase serve every analysis. These free
// functions are that single definition for perfknow's front ends — the
// pkx subcommands (explain, report, rules-profile, diff), the `pkx
// serve` daemon workers, and in-process embedders all call them, so a
// diagnosis streamed by the daemon is byte-identical to a local one
// (tests/test_server.cpp pins this).
//
// Trials are read through Repository::verified_view: the pipelines only
// read, so a PKB-backed trial is analyzed from its CRC-checked mmap'd
// columns without being materialized, and the repository entry stays
// clean (a later save() does not rewrite it).
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/diff.hpp"
#include "perfdmf/repository.hpp"
#include "provenance/provenance.hpp"
#include "rules/diagnosis.hpp"
#include "rules/engine.hpp"

namespace perfknow::analysis {

/// What an "analyze"/"explain" request runs: which trial, which
/// rulebase, how much provenance.
struct AnalyzeParams {
  std::string application;
  std::string experiment;
  std::string trial;
  /// Rulebase name resolved by rules::resolve_rulebase (built-ins and
  /// aliases first, then rules_path, then the filesystem).
  std::string rulebase = "openuh";
  provenance::ProvenanceMode provenance = provenance::ProvenanceMode::kFull;
};

/// What a "diff" request runs.
struct DiffParams {
  std::string application;
  std::string experiment;
  std::string base;
  std::string current;
  DiffOptions options;
};

/// The analyze pipeline's fact and rule stage over one trial: assert
/// load-balance facts (plus stall / memory-locality facts when the trial
/// carries the counters), then process rules. Fires whatever rulebase
/// `harness` already holds; returns its diagnoses.
std::vector<rules::Diagnosis> analyze_trial(rules::RuleHarness& harness,
                                            const profile::TrialView& trial);

/// Runs the pkx-explain pipeline into `harness`: resolve the rulebase,
/// then analyze_trial on the verified view of the named trial. Returns
/// the fired diagnoses.
[[nodiscard]] std::vector<rules::Diagnosis> run_analysis(
    const perfdmf::Repository& repo, const AnalyzeParams& params,
    const std::filesystem::path& rules_path, rules::RuleHarness& harness);

/// One diff outcome: the asserted summary, the fired diagnoses, and the
/// `pkx diff` gate verdict (any regression_problem diagnosis).
struct DiffOutcome {
  DiffSummary summary;
  std::vector<rules::Diagnosis> diagnoses;
  bool regression = false;
};

/// Runs the pkx-diff pipeline (rules/regression.rules over
/// assert_diff_facts) into `harness`. DiffOptions are validated first.
[[nodiscard]] DiffOutcome run_diff(const perfdmf::Repository& repo,
                                   const DiffParams& params,
                                   rules::RuleHarness& harness);

/// Runs rules/self_diagnosis.rules over a telemetry trial built from
/// the current process-wide snapshot. Returns the fired diagnoses.
[[nodiscard]] std::vector<rules::Diagnosis> run_self_diagnosis(
    rules::RuleHarness& harness);

}  // namespace perfknow::analysis
