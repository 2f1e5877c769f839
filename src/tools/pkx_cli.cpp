#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

#include "apps/genidlest/genidlest.hpp"
#include "apps/msap/msap.hpp"
#include "common/file.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "machine/machine.hpp"
#include "perfknow.hpp"

namespace perfknow::tools {

namespace pk = perfknow;
using pk::machine::Machine;
using pk::machine::MachineConfig;

namespace {

struct CommandUsage {
  const char* name;
  const char* usage;
};

constexpr CommandUsage kCommands[] = {
    {"demo", "pkx demo <repo-dir>"},
    {"list", "pkx <repo-dir> list"},
    {"show", "pkx <repo-dir> show <app> <exp> <trial>"},
    {"run", "pkx <repo-dir> run <script.ps>"},
    {"report", "pkx <repo-dir> report <app> <exp> <trial>"},
    {"explain",
     "pkx <repo-dir> explain <app> <exp> <trial> [--json <file>]"
     " [--dot <file>]\n"
     "  pkx explain --from <explanations.json>"},
    {"rules-profile",
     "pkx <repo-dir> rules-profile <app> <exp> <trial> [--rules <file>]"
     " [--json <file>] [--dot <file>]"},
    {"export-csv", "pkx <repo-dir> export-csv <app> <exp> <trial> <metric>"},
    {"export-json", "pkx <repo-dir> export-json <app> <exp> <trial> <file>"},
    {"import", "pkx <repo-dir> import <file-or-dir> <app> <exp>"},
    {"diff",
     "pkx <repo-dir> diff <app> <exp> <base> <current> [--json <file>]"
     " [--metric <name>] [--band <fraction>]"},
    {"history", "pkx <repo-dir> history <app> <exp>"},
    {"bench2pkb",
     "pkx <repo-dir> bench2pkb <app> <exp> <version> <bench.json>..."
     " [--predecessor <version>]"},
    {"prune", "pkx <repo-dir> prune <app> <exp> --keep <n>"},
    {"serve",
     "pkx serve <socket> [--repo <dir>] [--rules <dir>] [--workers <n>]\n"
     "    [--queue <n>] [--client-queue <n>] [--budget <bytes>]"
     " [--trace <file>]"},
    {"client",
     "pkx client <socket> ping | selfdiagnose\n"
     "  pkx client <socket> stats [--json]\n"
     "  pkx client <socket> watch [--interval <sec>] [--count <n>]"
     " [--json]\n"
     "  pkx client <socket> upload <app> <exp> <file> [--version <v>]"
     " [--predecessor <p>]\n"
     "  pkx client <socket> analyze|explain <app> <exp> <trial>"
     " [--rulebase <name>]\n"
     "  pkx client <socket> diff <app> <exp> <base> <current>"
     " [--band <fraction>]"},
};

/// Full usage (unknown/missing subcommand) -> exit 2.
int usage(std::ostream& err) {
  err << "usage:\n";
  for (const auto& c : kCommands) err << "  " << c.usage << "\n";
  err << "\n"
         "import auto-detects the profile format (pkprof, pkb, json,\n"
         "benchjson, csv, tau); import-csv and import-tau remain as\n"
         "aliases. explain runs the OpenUH rulebase with full provenance\n"
         "capture and prints a proof tree per diagnosis; --from\n"
         "re-renders a previously exported --json file. diff compares\n"
         "two versions with rules/regression.rules (exit 3 when a\n"
         "regression is diagnosed); bench2pkb ingests Google-Benchmark\n"
         "JSON as the next version of an experiment's history.\n"
         "rules-profile re-runs a trial's analysis with the per-rule\n"
         "cost profiler on, stores the attribution as a trial named\n"
         "<trial>-rules-profile, and diagnoses it with the shipped\n"
         "rule_tuning rulebase (proof trees included).\n";
  return 2;
}

/// Usage for one failing subcommand -> exit 2.
int usage_for(const std::string& cmd, std::ostream& err) {
  for (const auto& c : kCommands) {
    if (cmd == c.name) {
      err << "usage:\n  " << c.usage << "\n";
      return 2;
    }
  }
  return usage(err);
}

int cmd_demo(const std::string& dir, std::ostream& out) {
  pk::perfdmf::Repository repo;
  // MSAP under both schedules.
  for (const bool dynamic : {false, true}) {
    Machine m(MachineConfig::altix300());
    pk::apps::msap::MsapConfig cfg;
    cfg.threads = 16;
    cfg.schedule = dynamic ? pk::runtime::Schedule::dynamic(1)
                           : pk::runtime::Schedule::static_even();
    auto r = pk::apps::msap::run_msap(m, cfg);
    repo.put("MSAP", "schedules",
             std::make_shared<pk::profile::Trial>(std::move(r.trial)));
  }
  // GenIDLEST unoptimized/optimized at 16 threads.
  for (const bool optimized : {false, true}) {
    Machine m(MachineConfig::altix3600());
    auto cfg = pk::apps::genidlest::GenConfig::rib90();
    cfg.model = pk::apps::genidlest::Model::kOpenMP;
    cfg.optimized = optimized;
    auto r = pk::apps::genidlest::run_genidlest(m, cfg);
    repo.put("Fluid Dynamic", "rib 90",
             std::make_shared<pk::profile::Trial>(std::move(r.trial)));
  }
  // An unoptimized scaling study for examples/scripts/scalability.ps.
  for (const unsigned procs : {1u, 2u, 4u, 8u, 16u}) {
    Machine m(MachineConfig::altix3600());
    auto cfg = pk::apps::genidlest::GenConfig::rib90();
    cfg.model = pk::apps::genidlest::Model::kOpenMP;
    cfg.optimized = false;
    cfg.nprocs = procs;
    auto r = pk::apps::genidlest::run_genidlest(m, cfg);
    repo.put("Fluid Dynamic", "rib 90 scaling",
             std::make_shared<pk::profile::Trial>(std::move(r.trial)));
  }
  repo.save(dir);
  out << "wrote demo repository (" << repo.trial_count() << " trials) to "
      << dir << "\n";
  return 0;
}

int cmd_list(const pk::perfdmf::Repository& repo, std::ostream& out) {
  for (const auto& app : repo.applications()) {
    out << app << "\n";
    for (const auto& exp : repo.experiments(app)) {
      out << "  " << exp << "\n";
      for (const auto& trial : repo.trials(app, exp)) {
        // Shape only: the index row records it. A row without a record
        // opens the snapshot, whose schema is CRC-checked on open.
        auto shape = repo.record(app, exp, trial);
        if (!shape) {
          const auto t = repo.view(app, exp, trial);
          shape = {t->thread_count(), t->event_count(), t->metric_count(),
                   std::nullopt};
        }
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "    %-28s %zu threads, %zu events, %zu metrics\n",
                      trial.c_str(), shape->threads, shape->events,
                      shape->metrics);
        out << buf;
      }
    }
  }
  return 0;
}

int cmd_show(const pk::perfdmf::Repository& repo, const std::string& app,
             const std::string& exp, const std::string& trial_name,
             std::ostream& out) {
  // Means, cvs and runtime shares are all aggregates: the summary serves
  // them without reading the value columns.
  const auto trial = repo.summary_view(app, exp, trial_name);
  out << "trial " << trial->name() << " (" << trial->thread_count()
      << " threads)\n";
  for (const auto& [k, v] : trial->all_metadata()) {
    out << "  " << k << " = " << v << "\n";
  }
  const std::string metric =
      trial->find_metric("TIME") ? "TIME" : trial->metric(0).name;
  const pk::analysis::RuntimeFraction fraction(*trial, metric);
  pk::TextTable table({"event", "mean " + metric, "cv", "% of runtime"});
  for (const auto& s : pk::analysis::top_events(*trial, metric, 12)) {
    table.begin_row()
        .add(s.name)
        .add(s.mean, 1)
        .add(s.cv, 3)
        .add(fraction(s.event) * 100.0, 1);
  }
  out << "\n" << table.str();
  return 0;
}

int cmd_explain(const pk::perfdmf::Repository& repo,
                const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  std::string json_file;
  std::string dot_file;
  if ((args.size() - 5) % 2 != 0) return usage_for("explain", err);
  for (std::size_t i = 5; i + 1 < args.size(); i += 2) {
    if (args[i] == "--json") json_file = args[i + 1];
    else if (args[i] == "--dot") dot_file = args[i + 1];
    else return usage_for("explain", err);
  }
  pk::analysis::AnalyzeParams params;
  params.application = args[2];
  params.experiment = args[3];
  params.trial = args[4];
  pk::rules::RuleHarness harness;
  std::vector<pk::provenance::Explanation> explanations;
  for (const auto& d :
       pk::analysis::run_analysis(repo, params, {}, harness)) {
    if (d.provenance) explanations.push_back(*d.provenance);
  }
  if (explanations.empty()) {
    out << "no diagnoses for " << args[2] << "/" << args[3] << "/"
        << args[4] << "\n";
    return 0;
  }
  for (const auto& e : explanations) {
    out << pk::provenance::to_text(e) << "\n";
  }
  if (!json_file.empty()) {
    std::ofstream os(json_file);
    if (!os) throw pk::IoError("cannot open for writing: " + json_file);
    os << pk::provenance::to_json(explanations);
    out << "wrote " << json_file << "\n";
  }
  if (!dot_file.empty()) {
    std::ofstream os(dot_file);
    if (!os) throw pk::IoError("cannot open for writing: " + dot_file);
    os << pk::provenance::to_dot(explanations);
    out << "wrote " << dot_file << "\n";
  }
  return 0;
}

int cmd_explain_from(const std::string& file, std::ostream& out) {
  std::ifstream is(file);
  if (!is) {
    throw pk::IoError("cannot open explanation file: " + file);
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  const auto explanations =
      pk::provenance::explanations_from_json(ss.str());
  for (const auto& e : explanations) {
    out << pk::provenance::to_text(e) << "\n";
  }
  out << explanations.size() << " explanations\n";
  return 0;
}

// ---- rule-engine cost attribution --------------------------------------

/// Turns the process-wide profiling gate on for one scope and restores
/// the previous setting even when the analysis throws.
struct ProfilingScope {
  bool prev = pk::rules::profiling_enabled();
  ProfilingScope() { pk::rules::set_profiling_enabled(true); }
  ~ProfilingScope() { pk::rules::set_profiling_enabled(prev); }
  ProfilingScope(const ProfilingScope&) = delete;
  ProfilingScope& operator=(const ProfilingScope&) = delete;
};

int cmd_rules_profile(pk::perfdmf::Repository& repo,
                      const std::string& repo_dir,
                      const std::vector<std::string>& args,
                      std::ostream& out, std::ostream& err) {
  // pkx <repo> rules-profile <app> <exp> <trial> [flags]
  std::string rules_file;
  std::string json_file;
  std::string dot_file;
  if ((args.size() - 5) % 2 != 0) return usage_for("rules-profile", err);
  for (std::size_t i = 5; i + 1 < args.size(); i += 2) {
    if (args[i] == "--rules") rules_file = args[i + 1];
    else if (args[i] == "--json") json_file = args[i + 1];
    else if (args[i] == "--dot") dot_file = args[i + 1];
    else return usage_for("rules-profile", err);
  }
  const auto trial = repo.verified_view(args[2], args[3], args[4]);

  // Pass 1: the pkx-explain pipeline with the profiler on, so the
  // attribution describes exactly what `pkx explain` would have run
  // (plus any --rules extras, which is where planted pathological
  // rules for CI self-tests come in).
  pk::rules::RuleProfile profile;
  {
    ProfilingScope profiling;
    pk::rules::RuleHarness harness;
    pk::rules::builtin::use(harness, pk::rules::builtin::openuh_rules());
    if (!rules_file.empty()) {
      std::ifstream is(rules_file);
      if (!is) throw pk::IoError("cannot open rules file: " + rules_file);
      std::ostringstream ss;
      ss << is.rdbuf();
      pk::rules::add_rules(harness, ss.str(), rules_file);
    }
    pk::analysis::analyze_trial(harness, *trial);
    profile = harness.rule_profile();
  }

  out << "rules profile for " << args[2] << "/" << args[3] << "/"
      << args[4] << " (strategy " << profile.strategy << ", "
      << profile.cycles << " cycles, " << profile.wm_size
      << " facts)\n\n";
  pk::TextTable rules_table(
      {"rule", "match us", "firings", "activations", "bindings"});
  for (const auto& r : profile.rules) {
    rules_table.begin_row()
        .add(r.name)
        .add(static_cast<double>(r.match_ns) / 1000.0, 1)
        .add(static_cast<long long>(r.firings))
        .add(static_cast<long long>(r.activations))
        .add(static_cast<long long>(r.bindings));
  }
  out << rules_table.str();
  pk::TextTable levels_table({"rule", "level", "admissions", "probes",
                              "hits", "live", "dead", "bytes"});
  for (const auto& r : profile.rules) {
    for (std::size_t l = 0; l < r.levels.size(); ++l) {
      const auto& lv = r.levels[l];
      levels_table.begin_row()
          .add(r.name)
          .add(static_cast<long long>(l))
          .add(static_cast<long long>(lv.admissions))
          .add(static_cast<long long>(lv.probes))
          .add(static_cast<long long>(lv.hits))
          .add(static_cast<long long>(lv.live_tokens))
          .add(static_cast<long long>(lv.dead_tokens))
          .add(static_cast<long long>(lv.token_bytes));
    }
  }
  out << "\n" << levels_table.str();

  // The profile is itself a trial: store it next to the analyzed one so
  // later sessions (or the rule_tuning pass below) can reopen it.
  const std::string profile_name = args[4] + "-rules-profile";
  auto profile_trial = std::make_shared<pk::profile::Trial>(
      pk::rules::profile_to_trial(profile, profile_name));
  repo.put(args[2], args[3], profile_trial);
  repo.save(repo_dir);
  out << "\nstored profile as " << args[2] << "/" << args[3] << "/"
      << profile_name << "\n\n";

  // Pass 2: diagnose the stored profile with the shipped rule_tuning
  // rulebase — the engine analyzing its own cost attribution, proof
  // trees included.
  pk::rules::RuleHarness tuning;
  tuning.set_provenance(pk::provenance::ProvenanceMode::kFull);
  pk::rules::builtin::use(tuning, pk::rules::builtin::rule_tuning());
  pk::rules::assert_profile_facts(tuning, *profile_trial);
  tuning.process_rules();

  std::vector<pk::provenance::Explanation> explanations;
  for (const auto& d : tuning.diagnoses()) {
    if (d.provenance) explanations.push_back(*d.provenance);
  }
  if (explanations.empty()) {
    out << "no rule-tuning diagnoses\n";
  } else {
    for (const auto& e : explanations) {
      out << pk::provenance::to_text(e) << "\n";
    }
  }
  if (!json_file.empty()) {
    std::ofstream os(json_file);
    if (!os) throw pk::IoError("cannot open for writing: " + json_file);
    os << pk::provenance::to_json(explanations);
    out << "wrote " << json_file << "\n";
  }
  if (!dot_file.empty()) {
    std::ofstream os(dot_file);
    if (!os) throw pk::IoError("cannot open for writing: " + dot_file);
    os << pk::provenance::to_dot(explanations);
    out << "wrote " << dot_file << "\n";
  }
  return 0;
}

// ---- trial history -----------------------------------------------------

int cmd_history(const pk::perfdmf::Repository& repo, const std::string& app,
                const std::string& exp, std::ostream& out) {
  const auto versions = repo.history(app, exp);
  // Each version's events and total come from its index record; a row
  // without a total reads the version once, through its summary.
  // history() names every trial of the experiment, so any predecessor's
  // total is here too, whatever the shape of the lineage.
  struct Version {
    std::size_t events = 0;
    double total = 0.0;
  };
  std::map<std::string, Version> read;
  for (const auto& version : versions) {
    const auto record = repo.record(app, exp, version);
    if (record && record->total) {
      read[version] = {record->events, *record->total};
    } else {
      const auto trial = repo.summary_view(app, exp, version);
      read[version] = {trial->event_count(),
                       pk::perfdmf::total_time(*trial)};
    }
  }
  pk::TextTable table(
      {"version", "predecessor", "events", "total", "vs prev"});
  for (const auto& version : versions) {
    const Version& v = read.at(version);
    const std::string pred = repo.predecessor_of(app, exp, version);
    std::string vs = "-";
    if (const auto prev = read.find(pred); !pred.empty() &&
        prev != read.end() && prev->second.total > 0.0) {
      vs = pk::strings::format_double(v.total / prev->second.total, 4) + "x";
    }
    table.begin_row()
        .add(version)
        .add(pred.empty() ? "-" : pred)
        .add(static_cast<long long>(v.events))
        .add(v.total, 1)
        .add(vs);
  }
  out << app << "/" << exp << ": " << versions.size() << " versions\n"
      << table.str();
  return 0;
}

int cmd_diff(const pk::perfdmf::Repository& repo,
             const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  // pkx <repo> diff <app> <exp> <base> <current> [flags]
  std::string json_file;
  pk::analysis::DiffOptions options;
  if ((args.size() - 6) % 2 != 0) return usage_for("diff", err);
  for (std::size_t i = 6; i + 1 < args.size(); i += 2) {
    if (args[i] == "--json") {
      json_file = args[i + 1];
    } else if (args[i] == "--metric") {
      options.metrics.push_back(args[i + 1]);
    } else if (args[i] == "--band") {
      // Reject non-numeric, zero, and negative bands with a diagnostic
      // (DiffOptions::validate applies the same rule to API callers).
      try {
        options.noise_band = pk::strings::parse_double(args[i + 1]);
      } catch (const pk::ParseError&) {
        err << "pkx diff: --band must be a positive number, got '"
            << args[i + 1] << "'\n";
        return usage_for("diff", err);
      }
      if (!std::isfinite(options.noise_band) ||
          options.noise_band <= 0.0) {
        err << "pkx diff: --band must be a positive number, got '"
            << args[i + 1] << "'\n";
        return usage_for("diff", err);
      }
    } else {
      return usage_for("diff", err);
    }
  }
  pk::rules::RuleHarness harness;
  const auto outcome = pk::analysis::run_diff(
      repo, {args[2], args[3], args[4], args[5], options}, harness);
  const auto& summary = outcome.summary;

  out << "diff " << args[2] << "/" << args[3] << ": " << args[4] << " -> "
      << args[5] << " (" << summary.compared_cells << " cells, "
      << summary.regressed_cells << " regressed, "
      << summary.improved_cells << " improved, " << summary.skipped_cells
      << " skipped";
  if (summary.missing_events > 0) {
    out << ", " << summary.missing_events << " missing";
  }
  if (summary.added_events > 0) {
    out << ", " << summary.added_events << " added";
  }
  out << ")\n\n";

  std::vector<pk::provenance::Explanation> explanations;
  for (const auto& d : outcome.diagnoses) {
    out << d.to_string() << "\n";
    if (d.provenance) explanations.push_back(*d.provenance);
  }
  for (const auto& e : explanations) {
    out << "\n" << pk::provenance::to_text(e);
  }
  if (!json_file.empty()) {
    std::ofstream os(json_file);
    if (!os) {
      throw pk::IoError("cannot open for writing: " + json_file);
    }
    os << pk::provenance::to_json(explanations);
    out << "\nwrote " << json_file << "\n";
  }
  return outcome.regression ? 3 : 0;
}

int cmd_bench2pkb(const std::string& repo_dir,
                  const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  // pkx <repo> bench2pkb <app> <exp> <version> <bench.json>...
  //     [--predecessor <version>]
  std::string predecessor;
  std::vector<std::filesystem::path> files;
  for (std::size_t i = 5; i < args.size(); ++i) {
    if (args[i] == "--predecessor") {
      if (i + 1 >= args.size()) return usage_for("bench2pkb", err);
      predecessor = args[++i];
    } else {
      files.emplace_back(args[i]);
    }
  }
  if (files.empty()) return usage_for("bench2pkb", err);

  // Open-or-create: a missing repository directory starts a new history.
  pk::perfdmf::Repository repo;
  if (std::filesystem::exists(std::filesystem::path(repo_dir) /
                              "index.tsv")) {
    repo = pk::perfdmf::Repository::attach(repo_dir, SIZE_MAX);
  }
  auto trial = std::make_shared<pk::profile::Trial>(
      pk::io::trial_from_benchmark_files(files, args[4]));
  const std::size_t events = trial->event_count();
  repo.put_version(args[2], args[3], std::move(trial), predecessor);
  repo.save(repo_dir);
  out << "ingested " << files.size() << " file(s) as " << args[2] << "/"
      << args[3] << "/" << args[4] << " (" << events - 1
      << " benchmarks), predecessor '"
      << repo.predecessor_of(args[2], args[3], args[4]) << "'\n";
  return 0;
}

int cmd_prune(pk::perfdmf::Repository& repo, const std::string& repo_dir,
              const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  // pkx <repo> prune <app> <exp> --keep <n>
  if (args.size() != 6 || args[4] != "--keep") {
    return usage_for("prune", err);
  }
  long long keep = 0;
  try {
    keep = pk::strings::parse_int(args[5]);
  } catch (const pk::ParseError&) {
    return usage_for("prune", err);
  }
  const auto removed = repo.prune_history(
      args[2], args[3], static_cast<std::size_t>(keep));
  repo.save(repo_dir);
  // The pruned trials' snapshot files are now orphaned; drop any .pkb
  // under the repository that the fresh index no longer references.
  // The index is read with the parser open_index uses, so the sweep
  // keeps exactly the snapshots a load would read.
  std::size_t orphans = 0;
  const std::filesystem::path index_file =
      std::filesystem::path(repo_dir) / "index.tsv";
  std::set<std::string> referenced;
  try {
    for (auto& row : pk::perfdmf::parse_index(
             pk::read_file_bytes(index_file, "cannot read index"))) {
      referenced.insert(std::move(row.path));
    }
  } catch (const pk::ParseError& e) {
    throw e.with_file(index_file.string());
  }
  std::error_code ec;
  for (std::filesystem::recursive_directory_iterator
           it(repo_dir, ec),
       end;
       !ec && it != end; it.increment(ec)) {
    if (it->path().extension() != ".pkb") continue;
    const std::string rel =
        std::filesystem::relative(it->path(), repo_dir, ec)
            .generic_string();
    if (referenced.count(rel) == 0) {
      std::error_code rm;
      if (std::filesystem::remove(it->path(), rm)) ++orphans;
    }
  }
  out << "pruned " << removed.size() << " version(s)";
  if (!removed.empty()) {
    out << " (" << pk::strings::join(removed, ", ") << ")";
  }
  out << ", removed " << orphans << " orphaned snapshot(s)\n";
  return 0;
}

// ---- analysis as a service ---------------------------------------------

/// Set by SIGTERM/SIGINT; polled by cmd_serve's run loop (signal
/// handlers must not touch the Server directly).
volatile std::sig_atomic_t g_serve_stop = 0;

void serve_signal(int) { g_serve_stop = 1; }

int cmd_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  // pkx serve <socket> [flags]
  pk::server::ServerOptions options;
  options.socket_path = args[1];
  std::string trace_path;
  if ((args.size() - 2) % 2 != 0) return usage_for("serve", err);
  for (std::size_t i = 2; i + 1 < args.size(); i += 2) {
    const std::string& flag = args[i];
    const std::string& value = args[i + 1];
    try {
      if (flag == "--repo") {
        options.repository_dir = value;
      } else if (flag == "--rules") {
        options.rules_path = value;
      } else if (flag == "--workers") {
        options.workers =
            static_cast<std::size_t>(pk::strings::parse_int(value));
      } else if (flag == "--queue") {
        options.queue_limit =
            static_cast<std::size_t>(pk::strings::parse_int(value));
      } else if (flag == "--client-queue") {
        options.client_queue_limit =
            static_cast<std::size_t>(pk::strings::parse_int(value));
      } else if (flag == "--budget") {
        options.client_byte_budget =
            static_cast<std::size_t>(pk::strings::parse_int(value));
      } else if (flag == "--trace") {
        trace_path = value;
      } else {
        return usage_for("serve", err);
      }
    } catch (const pk::ParseError&) {
      err << "pkx serve: " << flag << " must be a number, got '" << value
          << "'\n";
      return usage_for("serve", err);
    }
  }

  pk::server::Server server(std::move(options));
  g_serve_stop = 0;
  std::signal(SIGINT, serve_signal);
  std::signal(SIGTERM, serve_signal);
  // The "listening" line is the readiness handshake scripts wait for.
  out << "pkx serve: listening on " << server.options().socket_path.string()
      << " (" << server.options().workers << " workers, queue "
      << server.options().queue_limit << ")\n";
  out.flush();
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  // The serving counters are ordinary telemetry, so the daemon's whole
  // run exports as a Chrome trace like any analysis would.
  if (!trace_path.empty()) {
    std::ofstream trace(trace_path);
    if (!trace) {
      err << "pkx serve: cannot write trace to " << trace_path << "\n";
      return 1;
    }
    pk::telemetry::write_chrome_trace(pk::telemetry::snapshot(), trace);
    out << "pkx serve: telemetry trace written to " << trace_path << "\n";
  }
  const auto s = server.stats();
  out << "pkx serve: drained (" << s.requests << " requests, "
      << s.executed << " executed, " << s.rejected_overload
      << " rejected overloaded, " << s.rejected_budget
      << " rejected over budget, " << s.uploads << " uploads)\n";
  return 0;
}

/// Streams `watch` events: sends the request, then prints each "stats"
/// event as it arrives (raw JSON lines under --json, fixed-width rows
/// otherwise) until the server's terminal line for the request.
int client_watch(pk::server::Client& client,
                 const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  double interval = 1.0;
  long long count = 0;
  bool json_lines = false;
  for (std::size_t i = 3; i < args.size(); ++i) {
    if (args[i] == "--json") {
      json_lines = true;
      continue;
    }
    if (i + 1 >= args.size()) return usage_for("client", err);
    try {
      if (args[i] == "--interval") {
        interval = pk::strings::parse_double(args[i + 1]);
      } else if (args[i] == "--count") {
        count = pk::strings::parse_int(args[i + 1]);
      } else {
        return usage_for("client", err);
      }
    } catch (const pk::ParseError&) {
      err << "pkx client: " << args[i] << " must be a number, got '"
          << args[i + 1] << "'\n";
      return usage_for("client", err);
    }
    ++i;
  }
  const std::string params =
      "{\"interval\":" + pk::json::number(interval) +
      ",\"count\":" + pk::json::number(static_cast<double>(count)) + "}";
  const std::string id = client.send("watch", params);
  bool header_printed = false;
  for (;;) {
    const std::string line = client.read_line();
    const auto v = pk::json::parse(line);
    const auto* lid = v.find("id");
    if (lid == nullptr || lid->text != id) continue;
    const auto* ev = v.find("event");
    const std::string kind = ev != nullptr ? ev->text : "";
    if (kind == "error") {
      const auto* e = v.find("error");
      const auto* code = e != nullptr ? e->find("code") : nullptr;
      const auto* msg = e != nullptr ? e->find("message") : nullptr;
      const auto ec = pk::server::wire::error_code(
          code != nullptr ? code->text : "internal");
      err << "pkx client: " << pk::server::wire::to_string(ec) << ": "
          << (msg != nullptr ? msg->text : "") << "\n";
      return pk::server::wire::exit_code(ec);
    }
    if (kind == "result") {
      if (json_lines) out << line << "\n";
      break;
    }
    if (!json_lines && !header_printed) {
      out << render_watch_header();
      header_printed = true;
    }
    out << (json_lines ? line + "\n" : render_watch_row(line));
    out.flush();
  }
  return 0;
}

int cmd_client(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  // pkx client <socket> <verb> ...
  if (args.size() < 3) return usage_for("client", err);
  const std::string& verb = args[2];
  pk::server::Client client(args[1]);
  pk::server::Client::Response r;
  bool stats_table = false;

  if (verb == "watch") {
    return client_watch(client, args, out, err);
  }
  if (verb == "ping" || verb == "stats" || verb == "selfdiagnose") {
    if (verb == "stats" && args.size() == 4 && args[3] == "--json") {
      // raw JSON, as before
    } else if (args.size() != 3) {
      return usage_for("client", err);
    } else {
      stats_table = verb == "stats";
    }
    r = client.call(verb);
  } else if (verb == "upload") {
    if (args.size() < 6 || (args.size() - 6) % 2 != 0) {
      return usage_for("client", err);
    }
    std::string version;
    std::string predecessor;
    for (std::size_t i = 6; i + 1 < args.size(); i += 2) {
      if (args[i] == "--version") version = args[i + 1];
      else if (args[i] == "--predecessor") predecessor = args[i + 1];
      else return usage_for("client", err);
    }
    r = client.upload_file(args[3], args[4], args[5], version,
                           predecessor);
  } else if (verb == "analyze" || verb == "explain") {
    if (args.size() < 6 || (args.size() - 6) % 2 != 0) {
      return usage_for("client", err);
    }
    std::string params =
        "{\"application\":" + pk::json::quote(args[3]) +
        ",\"experiment\":" + pk::json::quote(args[4]) +
        ",\"trial\":" + pk::json::quote(args[5]);
    for (std::size_t i = 6; i + 1 < args.size(); i += 2) {
      if (args[i] == "--rulebase") {
        params += ",\"rulebase\":" + pk::json::quote(args[i + 1]);
      } else {
        return usage_for("client", err);
      }
    }
    r = client.call(verb, params + "}");
  } else if (verb == "diff") {
    if (args.size() < 7 || (args.size() - 7) % 2 != 0) {
      return usage_for("client", err);
    }
    std::string params =
        "{\"application\":" + pk::json::quote(args[3]) +
        ",\"experiment\":" + pk::json::quote(args[4]) +
        ",\"base\":" + pk::json::quote(args[5]) +
        ",\"current\":" + pk::json::quote(args[6]);
    for (std::size_t i = 7; i + 1 < args.size(); i += 2) {
      if (args[i] == "--band") {
        try {
          params += ",\"band\":" + pk::json::number(
                                       pk::strings::parse_double(args[i + 1]));
        } catch (const pk::ParseError&) {
          err << "pkx client: --band must be a positive number, got '"
              << args[i + 1] << "'\n";
          return usage_for("client", err);
        }
      } else {
        return usage_for("client", err);
      }
    }
    r = client.call("diff", params + "}");
  } else {
    return usage_for("client", err);
  }

  // Streamed lines verbatim (JSON lines a pipeline can consume), then
  // the terminal result; errors map onto the pkx exit-code contract.
  for (const auto& ev : r.events) out << ev.line << "\n";
  if (!r.ok()) {
    err << "pkx client: " << pk::server::wire::to_string(r.error) << ": "
        << r.error_message << "\n";
    return pk::server::wire::exit_code(r.error);
  }
  if (stats_table) {
    out << render_stats_table(r.result);
    return 0;
  }
  out << r.result << "\n";
  if (verb == "diff" &&
      r.result.find("\"regression\":true") != std::string::npos) {
    return 3;  // same gate verdict as in-process `pkx diff`
  }
  return 0;
}

}  // namespace

std::string render_stats_table(const std::string& stats_json) {
  const auto v = pk::json::parse(stats_json);
  pk::TextTable table({"counter", "value"});
  for (const char* key :
       {"connections", "requests", "executed", "rejected_overload",
        "rejected_budget", "uploads", "queue_depth"}) {
    const auto* m = v.find(key);
    table.begin_row().add(key).add(
        static_cast<long long>(m != nullptr ? m->number : 0.0));
  }
  return table.str();
}

std::string render_watch_header() {
  char buf[120];
  std::snprintf(buf, sizeof buf, "%5s %10s %7s %10s %7s %9s %7s\n", "seq",
                "requests", "+req", "executed", "+exec", "rejected",
                "queue");
  return buf;
}

std::string render_watch_row(const std::string& event_line) {
  const auto v = pk::json::parse(event_line);
  const auto* data = v.find("data");
  const auto num = [](const pk::json::Value* obj, const char* key) {
    const auto* m = obj != nullptr ? obj->find(key) : nullptr;
    return static_cast<long long>(m != nullptr ? m->number : 0.0);
  };
  const auto* stats = data != nullptr ? data->find("stats") : nullptr;
  const auto* delta = data != nullptr ? data->find("delta") : nullptr;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%5lld %10lld %+7lld %10lld %+7lld %9lld %7lld\n",
                num(data, "seq"), num(stats, "requests"),
                num(delta, "requests"), num(stats, "executed"),
                num(delta, "executed"),
                num(stats, "rejected_overload") +
                    num(stats, "rejected_budget"),
                num(stats, "queue_depth"));
  return buf;
}

int pkx_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  // Remembered across the try so InvalidArgumentError can print the
  // failing subcommand's usage.
  std::string cmd;
  try {
    if (!args.empty() && args[0] == "demo") {
      if (args.size() != 2) return usage_for("demo", err);
      return cmd_demo(args[1], out);
    }
    if (!args.empty() && args[0] == "explain") {
      if (args.size() == 3 && args[1] == "--from") {
        return cmd_explain_from(args[2], out);
      }
      return usage_for("explain", err);
    }
    if (!args.empty() && args[0] == "serve") {
      cmd = "serve";
      if (args.size() < 2) return usage_for("serve", err);
      return cmd_serve(args, out, err);
    }
    if (!args.empty() && args[0] == "client") {
      cmd = "client";
      return cmd_client(args, out, err);
    }
    if (args.size() < 2) return usage(err);
    cmd = args[1];

    // bench2pkb creates the repository on first ingest, so it opens (or
    // not) for itself before the common load below.
    if (cmd == "bench2pkb") {
      if (args.size() < 6) return usage_for("bench2pkb", err);
      return cmd_bench2pkb(args[0], args, out, err);
    }

    // Lazy open: a command pays for the trials it touches, not the whole
    // repository. The unbounded budget means a one-shot process never
    // evicts, so a trial read twice is loaded once.
    auto repo = pk::perfdmf::Repository::attach(args[0], SIZE_MAX);

    if (cmd == "list") {
      if (args.size() != 2) return usage_for("list", err);
      return cmd_list(repo, out);
    }
    if (cmd == "show") {
      if (args.size() != 5) return usage_for("show", err);
      return cmd_show(repo, args[2], args[3], args[4], out);
    }
    if (cmd == "run") {
      if (args.size() != 3) return usage_for("run", err);
      pk::script::AnalysisSession session(
          pk::script::SessionOptions{&repo});
      session.interpreter().set_echo(true);
      session.run_file(args[2]);
      out << "\n" << session.harness().diagnoses().size()
          << " diagnoses\n";
      for (const auto& d : session.harness().diagnoses()) {
        out << "  [" << d.problem << "] " << d.event << " -> "
            << d.recommendation << "\n";
      }
      return 0;
    }
    if (cmd == "report") {
      if (args.size() != 5) return usage_for("report", err);
      pk::rules::RuleHarness harness;
      (void)pk::analysis::run_analysis(
          repo,
          {args[2], args[3], args[4], "openuh",
           pk::provenance::ProvenanceMode::kOff},
          {}, harness);
      out << pk::analysis::render_report(
          *repo.verified_view(args[2], args[3], args[4]), &harness);
      return 0;
    }
    if (cmd == "explain") {
      if (args.size() < 5) return usage_for("explain", err);
      return cmd_explain(repo, args, out, err);
    }
    if (cmd == "rules-profile") {
      if (args.size() < 5) return usage_for("rules-profile", err);
      return cmd_rules_profile(repo, args[0], args, out, err);
    }
    if (cmd == "diff") {
      if (args.size() < 6) return usage_for("diff", err);
      return cmd_diff(repo, args, out, err);
    }
    if (cmd == "history") {
      if (args.size() != 4) return usage_for("history", err);
      return cmd_history(repo, args[2], args[3], out);
    }
    if (cmd == "prune") {
      return cmd_prune(repo, args[0], args, out, err);
    }
    if (cmd == "export-csv") {
      if (args.size() != 6) return usage_for("export-csv", err);
      const auto trial = repo.verified_view(args[2], args[3], args[4]);
      out << pk::perfdmf::to_csv(*trial, args[5]);
      return 0;
    }
    if (cmd == "export-json") {
      if (args.size() != 6) return usage_for("export-json", err);
      pk::io::save_trial(*repo.verified_view(args[2], args[3], args[4]),
                         args[5], "json");
      out << "wrote " << args[5] << "\n";
      return 0;
    }
    // "import" sniffs the format; the old import-csv/import-tau
    // spellings go through the same auto-detecting front door.
    if (cmd == "import" || cmd == "import-csv" || cmd == "import-tau") {
      if (args.size() != 5) return usage_for("import", err);
      auto trial = std::make_shared<pk::profile::Trial>(
          pk::io::open_trial(args[2]));
      repo.put(args[3], args[4], trial);
      repo.save(args[0]);
      out << "imported " << args[2] << " as " << args[3] << "/" << args[4]
          << "/" << trial->name() << "\n";
      return 0;
    }
    return usage(err);
  } catch (const pk::InvalidArgumentError& e) {
    // Field-naming validation errors (SessionOptions/DiffOptions/
    // ServerOptions::validate and friends) are usage errors: exit 2
    // with the failing subcommand's usage, like any other bad flag.
    err << "pkx: " << e.what() << "\n";
    usage_for(cmd, err);
    return 2;
  } catch (const pk::Error& e) {
    err << "pkx: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace perfknow::tools
