#include "analysis/pipeline.hpp"

#include "analysis/facts.hpp"
#include "rules/rulebases.hpp"
#include "telemetry/export.hpp"
#include "telemetry/self_analysis.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::analysis {

std::vector<rules::Diagnosis> analyze_trial(rules::RuleHarness& harness,
                                            const profile::Trial& trial) {
  assert_load_balance_facts(harness, trial);
  if (trial.find_metric("BACK_END_BUBBLE_ALL")) {
    assert_stall_facts(harness, trial);
  }
  if (trial.find_metric("L3_MISSES")) {
    assert_memory_locality_facts(harness, trial);
  }
  harness.process_rules();
  return harness.diagnoses();
}

std::vector<rules::Diagnosis> run_analysis(
    const perfdmf::Repository& repo, const AnalyzeParams& params,
    const std::filesystem::path& rules_path, rules::RuleHarness& harness) {
  return analyze_resolved(*resolve_analysis(repo, params), params,
                          rules_path, harness);
}

perfdmf::ConstTrialPtr resolve_analysis(const perfdmf::Repository& repo,
                                        const AnalyzeParams& params) {
  return repo.verified_view(params.application, params.experiment,
                            params.trial);
}

std::vector<rules::Diagnosis> analyze_resolved(
    const profile::Trial& trial, const AnalyzeParams& params,
    const std::filesystem::path& rules_path, rules::RuleHarness& harness) {
  harness.set_provenance(params.provenance);
  rules::builtin::use(harness,
                      rules::resolve_rulebase(params.rulebase, rules_path));
  return analyze_trial(harness, trial);
}

DiffOutcome run_diff(const perfdmf::Repository& repo,
                     const DiffParams& params,
                     rules::RuleHarness& harness) {
  return diff_resolved(resolve_diff(repo, params), params, harness);
}

DiffTrials resolve_diff(const perfdmf::Repository& repo,
                        const DiffParams& params) {
  params.options.validate();
  // A diff compares means only, which the snapshots' summaries serve.
  return {
      repo.summary_view(params.application, params.experiment, params.base),
      repo.summary_view(params.application, params.experiment,
                        params.current)};
}

DiffOutcome diff_resolved(const DiffTrials& trials, const DiffParams& params,
                          rules::RuleHarness& harness) {
  harness.set_provenance(provenance::ProvenanceMode::kFull);
  rules::builtin::use(harness, rules::builtin::regression());
  DiffOutcome outcome;
  outcome.summary = assert_diff_facts(harness, *trials.base, *trials.current,
                                      params.options);
  harness.process_rules();
  outcome.diagnoses = harness.diagnoses();
  for (const auto& d : outcome.diagnoses) {
    if (regression_problem(d.problem)) outcome.regression = true;
  }
  return outcome;
}

std::vector<rules::Diagnosis> run_self_diagnosis(
    rules::RuleHarness& harness) {
  const auto trial = telemetry::to_trial(telemetry::snapshot());
  harness.set_provenance(provenance::ProvenanceMode::kFull);
  rules::builtin::use(harness, rules::builtin::self_diagnosis());
  telemetry::assert_self_facts(harness, trial);
  harness.process_rules();
  return harness.diagnoses();
}

}  // namespace perfknow::analysis
