// Diagnosis report rendering.
//
// PerfExplorer presents analysis outcomes to the user ("the diagnoses
// and explanations are passed on to the user as performance
// suggestions", Fig. 3). This module renders a trial plus the fired
// rules into a markdown report: run summary, hottest events with
// balance statistics, and diagnoses grouped by problem with their
// recommendations.
#pragma once

#include <string>

#include "profile/profile.hpp"
#include "rules/engine.hpp"

namespace perfknow::analysis {

/// Renders a markdown report for one analyzed trial: its TIME metric
/// (or its first, without TIME) and its ten hottest events. The harness
/// is optional (pass nullptr for a profile-only report).
[[nodiscard]] std::string render_report(const profile::Trial& trial,
                                        const rules::RuleHarness* harness);

}  // namespace perfknow::analysis
