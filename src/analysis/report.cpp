#include "analysis/report.hpp"

#include <map>

#include "analysis/operations.hpp"
#include "common/strings.hpp"

namespace perfknow::analysis {

std::string render_report(const profile::Trial& trial,
                          const rules::RuleHarness* harness,
                          const ReportOptions& options) {
  std::string out;
  out += "# Performance report: " + trial.name() + "\n\n";

  // ---- run summary ------------------------------------------------------
  out += "## Run\n\n";
  out += "- threads: " + std::to_string(trial.thread_count()) + "\n";
  out += "- events: " + std::to_string(trial.event_count()) + "\n";
  out += "- metrics: " + std::to_string(trial.metric_count()) + "\n";
  for (const auto& [k, v] : trial.all_metadata()) {
    out += "- " + k + ": " + v + "\n";
  }
  const auto metric = trial.find_metric(options.metric)
                          ? options.metric
                          : trial.metric(0).name;
  const auto m = trial.metric_id(metric);
  const auto main = trial.main_event();
  out += "- total " + metric + " (mean inclusive of " +
         trial.event(main).name +
         "): " + strings::format_double(trial.mean_inclusive(main, m), 1) +
         "\n\n";

  // ---- hottest events ----------------------------------------------------
  out += "## Hottest events (" + metric + ")\n\n";
  out += "| event | mean exclusive | stddev/mean | % of runtime |\n";
  out += "|---|---|---|---|\n";
  for (const auto& s : top_events(trial, metric, options.top_events)) {
    out += "| " + s.name + " | " + strings::format_double(s.mean, 1) +
           " | " + strings::format_double(s.cv, 3) + " | " +
           strings::format_double(
               runtime_fraction(trial, s.event, metric) * 100.0, 1) +
           " |\n";
  }
  out += "\n";

  // ---- diagnoses ----------------------------------------------------------
  if (harness != nullptr) {
    out += "## Diagnoses\n\n";
    if (harness->diagnoses().empty()) {
      out += "No rules fired: no known performance problems detected.\n";
    } else {
      std::map<std::string, std::vector<const rules::Diagnosis*>> grouped;
      for (const auto& d : harness->diagnoses()) {
        grouped[d.problem].push_back(&d);
      }
      for (const auto& [problem, diags] : grouped) {
        out += "### " + problem + " (" + std::to_string(diags.size()) +
               ")\n\n";
        for (const auto* d : diags) {
          out += "- **" + d->event + "** (severity " +
                 strings::format_double(d->severity, 2) + ", rule \"" +
                 d->rule + "\")\n  - " + d->recommendation + "\n";
        }
        out += "\n";
      }
    }
    if (options.include_rule_output && !harness->output().empty()) {
      out += "## Rule output\n\n```\n";
      for (const auto& line : harness->output()) {
        out += line + "\n";
      }
      out += "```\n";
    }
  }
  return out;
}

}  // namespace perfknow::analysis
