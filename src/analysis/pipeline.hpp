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
// The pipelines only read, so a PKB-backed trial is analyzed straight
// from its mmap'd snapshot and the repository entry stays clean (a
// later save() does not rewrite it). run_analysis reads cells, through
// Repository::verified_view; run_diff compares means only, so it reads
// through Repository::view and never touches the value columns of a
// snapshot that carries a summary.
//
// Each pipeline is two steps: resolve (and pin) the trials it reads,
// then analyze the pinned trials. Only the first reads the repository;
// a pinned trial keeps its snapshot mapped even if its entry is
// replaced or evicted, so a caller sharing the repository between
// threads (the daemon) holds its lock for the first step only.
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
                                            const profile::Trial& trial);

/// Runs the pkx-explain pipeline into `harness`: resolve_analysis, then
/// analyze_resolved. Returns the fired diagnoses.
[[nodiscard]] std::vector<rules::Diagnosis> run_analysis(
    const perfdmf::Repository& repo, const AnalyzeParams& params,
    const std::filesystem::path& rules_path, rules::RuleHarness& harness);

/// run_analysis's repository step: the verified view of the named trial.
[[nodiscard]] perfdmf::ConstTrialPtr resolve_analysis(
    const perfdmf::Repository& repo, const AnalyzeParams& params);

/// run_analysis's compute step over the resolved trial: resolve the
/// rulebase, then analyze_trial.
[[nodiscard]] std::vector<rules::Diagnosis> analyze_resolved(
    const profile::Trial& trial, const AnalyzeParams& params,
    const std::filesystem::path& rules_path, rules::RuleHarness& harness);

/// One diff outcome: the asserted summary, the fired diagnoses, and the
/// `pkx diff` gate verdict (any regression_problem diagnosis).
struct DiffOutcome {
  DiffSummary summary;
  std::vector<rules::Diagnosis> diagnoses;
  bool regression = false;
};

/// Runs the pkx-diff pipeline (rules/regression.rules over
/// assert_diff_facts) into `harness`: resolve_diff, then diff_resolved.
[[nodiscard]] DiffOutcome run_diff(const perfdmf::Repository& repo,
                                   const DiffParams& params,
                                   rules::RuleHarness& harness);

/// The two trials a diff compares.
struct DiffTrials {
  perfdmf::ConstTrialPtr base;
  perfdmf::ConstTrialPtr current;
};

/// run_diff's repository step: validates the DiffOptions, then the
/// summary views of base and current.
[[nodiscard]] DiffTrials resolve_diff(const perfdmf::Repository& repo,
                                      const DiffParams& params);

/// run_diff's compute step over the resolved trials.
[[nodiscard]] DiffOutcome diff_resolved(const DiffTrials& trials,
                                        const DiffParams& params,
                                        rules::RuleHarness& harness);

/// Runs rules/self_diagnosis.rules over a telemetry trial built from
/// the current process-wide snapshot. Returns the fired diagnoses.
[[nodiscard]] std::vector<rules::Diagnosis> run_self_diagnosis(
    rules::RuleHarness& harness);

}  // namespace perfknow::analysis
