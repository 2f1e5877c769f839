#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <type_traits>
#include <utility>

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

// Every subcommand, and every `pkx client` verb, is one row of kCommands:
// its usage line, its leading positionals, its flags and its handler.
// usage_for(), the arity checks and the unknown-flag check all read the
// rows, so a handler gets positionals and flag values already checked.
// A row's scope says where its name sits and what is opened before its
// arguments are read: `pkx <name>` (kBare); `pkx <repo-dir> <name>`,
// attached first (kRepo) or opened by the handler (kDir); `pkx client
// <socket> <name>`, connected first (kClient).
enum class Scope { kBare, kRepo, kDir, kClient };
enum class Value { kSwitch, kText, kInt, kReal, kPositive };
using enum Scope;
using enum Value;

struct Flag {
  const char* name;
  Value value = kText;
  const char* noun = nullptr;  // "pkx <cmd>: <flag> must be <noun>, got .."
  bool once = false;           // a second one is a usage error
  bool required = false;
};

/// One checked invocation and what its scope opened for it.
struct Call {
  std::ostream& out;
  std::ostream& err;
  std::string dir{};  // <repo-dir>
  pk::perfdmf::Repository* repo = nullptr;
  pk::server::Client* client = nullptr;
  std::string name{};
  std::vector<std::string> pos{};
  /// Every value of each flag given, in command-line order.
  std::map<std::string, std::vector<std::string>, std::less<>> flags{};

  [[nodiscard]] bool has(std::string_view f) const { return flags.contains(f); }
  /// The last value given, or "" when the flag is absent.
  [[nodiscard]] std::string text(std::string_view flag) const {
    const auto it = flags.find(flag);
    return it == flags.end() ? std::string() : it->second.back();
  }
  template <class T>
  [[nodiscard]] T number(std::string_view flag, T fallback) const {
    if (!has(flag)) return fallback;
    if constexpr (std::is_integral_v<T>) {
      return static_cast<T>(pk::strings::parse_int(text(flag)));
    }
    return static_cast<T>(pk::strings::parse_double(text(flag)));
  }
};

struct Command {
  Scope scope;
  const char* name;
  const char* usage;  // nullptr: the previous row's line shows this one
  std::size_t arity;  // leading positionals, taken as they are
  std::vector<Flag> flags;
  int (*run)(const Call&);
  bool more = false;  // then 1+ positionals, which flags may interleave
};

// Writes the --json / --dot exports the call names, each followed by a
// "wrote <file>" line after `lead`.
void write_exports(const Call& c,
                   const std::vector<pk::provenance::Explanation>& ex,
                   const char* lead = "") {
  for (const std::string_view flag : {"--json", "--dot"}) {
    const std::string file = c.text(flag);
    if (file.empty()) continue;
    std::ofstream os(file);
    if (!os) throw pk::IoError("cannot open for writing: " + file);
    os << (flag == "--json" ? pk::provenance::to_json(ex)
                            : pk::provenance::to_dot(ex));
    c.out << lead << "wrote " << file << "\n";
  }
}

std::vector<pk::provenance::Explanation> explanations_of(
    const std::vector<pk::rules::Diagnosis>& diagnoses) {
  std::vector<pk::provenance::Explanation> out;
  for (const auto& d : diagnoses) {
    if (d.provenance) out.push_back(*d.provenance);
  }
  return out;
}

std::string read_text(const std::string& file, const std::string& what) {
  std::ifstream is(file);
  if (!is) throw pk::IoError(what + file);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

int cmd_demo(const Call& c) {
  pk::perfdmf::Repository repo;
  const auto put = [&repo](const char* app, const char* exp,
                           pk::profile::Trial&& trial) {
    repo.put(app, exp, std::make_shared<pk::profile::Trial>(std::move(trial)));
  };
  // MSAP under both schedules.
  for (const bool dynamic : {false, true}) {
    Machine m(MachineConfig::altix300());
    pk::apps::msap::MsapConfig cfg;
    cfg.threads = 16;
    cfg.schedule = dynamic ? pk::runtime::Schedule::dynamic(1)
                           : pk::runtime::Schedule::static_even();
    put("MSAP", "schedules", std::move(pk::apps::msap::run_msap(m, cfg).trial));
  }
  // GenIDLEST unoptimized/optimized at 16 threads, then an unoptimized
  // scaling study for examples/scripts/scalability.ps.
  const auto genidlest = [&put](const char* exp, bool optimized,
                                unsigned procs) {
    Machine m(MachineConfig::altix3600());
    auto cfg = pk::apps::genidlest::GenConfig::rib90();
    cfg.model = pk::apps::genidlest::Model::kOpenMP;
    cfg.optimized = optimized;
    cfg.nprocs = procs;
    put("Fluid Dynamic", exp,
        std::move(pk::apps::genidlest::run_genidlest(m, cfg).trial));
  };
  for (const bool opt : {false, true}) genidlest("rib 90", opt, 16);
  for (const unsigned n : {1u, 2u, 4u, 8u, 16u}) {
    genidlest("rib 90 scaling", false, n);
  }
  repo.save(c.pos[0]);
  c.out << "wrote demo repository (" << repo.trial_count() << " trials) to "
        << c.pos[0] << "\n";
  return 0;
}

int cmd_list(const Call& c) {
  const pk::perfdmf::Repository& repo = *c.repo;
  for (const auto& app : repo.applications()) {
    c.out << app << "\n";
    for (const auto& exp : repo.experiments(app)) {
      c.out << "  " << exp << "\n";
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
        c.out << buf;
      }
    }
  }
  return 0;
}

int cmd_show(const Call& c) {
  // Means, cvs and runtime shares are all aggregates: the summary serves
  // them without reading the value columns.
  const auto trial = c.repo->view(c.pos[0], c.pos[1], c.pos[2]);
  c.out << "trial " << trial->name() << " (" << trial->thread_count()
        << " threads)\n";
  for (const auto& [k, v] : trial->all_metadata()) {
    c.out << "  " << k << " = " << v << "\n";
  }
  const std::string metric =
      trial->find_metric("TIME") ? "TIME" : trial->metric(0).name;
  const pk::analysis::RuntimeFraction fraction(*trial, metric);
  pk::TextTable table({"event", "mean " + metric, "cv", "% of runtime"});
  for (const auto& s : pk::analysis::top_events(*trial, metric, 12)) {
    table.begin_row().add(s.name).add(s.mean, 1).add(s.cv, 3)
        .add(fraction(s.event) * 100.0, 1);
  }
  c.out << "\n" << table.str();
  return 0;
}

int cmd_run(const Call& c) {
  pk::script::AnalysisSession session(pk::script::SessionOptions{c.repo});
  session.interpreter().set_echo(true);
  session.run_file(c.pos[0]);
  c.out << "\n" << session.harness().diagnoses().size() << " diagnoses\n";
  for (const auto& d : session.harness().diagnoses()) {
    c.out << "  [" << d.problem << "] " << d.event << " -> "
          << d.recommendation << "\n";
  }
  return 0;
}

int cmd_report(const Call& c) {
  pk::rules::RuleHarness harness;
  (void)pk::analysis::run_analysis(
      *c.repo,
      {c.pos[0], c.pos[1], c.pos[2], "openuh",
       pk::provenance::ProvenanceMode::kOff},
      {}, harness);
  c.out << pk::analysis::render_report(
      *c.repo->verified_view(c.pos[0], c.pos[1], c.pos[2]), &harness);
  return 0;
}

int cmd_explain(const Call& c) {
  pk::rules::RuleHarness harness;
  const auto explanations = explanations_of(pk::analysis::run_analysis(
      *c.repo, {c.pos[0], c.pos[1], c.pos[2]}, {}, harness));
  if (explanations.empty()) {
    c.out << "no diagnoses for " << c.pos[0] << "/" << c.pos[1] << "/"
          << c.pos[2] << "\n";
    return 0;
  }
  for (const auto& e : explanations) {
    c.out << pk::provenance::to_text(e) << "\n";
  }
  write_exports(c, explanations);
  return 0;
}

int cmd_explain_from(const Call& c) {
  const auto explanations = pk::provenance::explanations_from_json(
      read_text(c.text("--from"), "cannot open explanation file: "));
  for (const auto& e : explanations) {
    c.out << pk::provenance::to_text(e) << "\n";
  }
  c.out << explanations.size() << " explanations\n";
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

int cmd_rules_profile(const Call& c) {
  const std::string& app = c.pos[0];
  const std::string& exp = c.pos[1];
  const auto trial = c.repo->verified_view(app, exp, c.pos[2]);

  // Pass 1: the pkx-explain pipeline with the profiler on, so the
  // attribution describes exactly what `pkx explain` would have run
  // (plus any --rules extras, which is where planted pathological
  // rules for CI self-tests come in).
  pk::rules::RuleProfile profile;
  {
    ProfilingScope profiling;
    pk::rules::RuleHarness harness;
    pk::rules::builtin::use(harness, pk::rules::builtin::openuh_rules());
    if (const std::string rules_file = c.text("--rules");
        !rules_file.empty()) {
      pk::rules::add_rules(
          harness, read_text(rules_file, "cannot open rules file: "),
          rules_file);
    }
    pk::analysis::analyze_trial(harness, *trial);
    profile = harness.rule_profile();
  }

  c.out << "rules profile for " << app << "/" << exp << "/" << c.pos[2]
        << " (strategy " << profile.strategy << ", " << profile.cycles
        << " cycles, " << profile.wm_size << " facts)\n\n";
  pk::TextTable rules_table(
      {"rule", "match us", "firings", "activations", "bindings"});
  const auto n = [](auto v) { return static_cast<long long>(v); };
  for (const auto& r : profile.rules) {
    rules_table.begin_row().add(r.name)
        .add(static_cast<double>(r.match_ns) / 1000.0, 1)
        .add(n(r.firings)).add(n(r.activations)).add(n(r.bindings));
  }
  c.out << rules_table.str();
  pk::TextTable levels_table({"rule", "level", "admissions", "probes",
                              "hits", "live", "dead", "bytes"});
  for (const auto& r : profile.rules) {
    for (std::size_t l = 0; l < r.levels.size(); ++l) {
      const auto& lv = r.levels[l];
      levels_table.begin_row().add(r.name).add(n(l)).add(n(lv.admissions))
          .add(n(lv.probes)).add(n(lv.hits)).add(n(lv.live_tokens))
          .add(n(lv.dead_tokens)).add(n(lv.token_bytes));
    }
  }
  c.out << "\n" << levels_table.str();

  // The profile is itself a trial: store it next to the analyzed one so
  // later sessions (or the rule_tuning pass below) can reopen it.
  const std::string profile_name = c.pos[2] + "-rules-profile";
  auto profile_trial = std::make_shared<pk::profile::Trial>(
      pk::rules::profile_to_trial(profile, profile_name));
  c.repo->put(app, exp, profile_trial);
  c.repo->save(c.dir);
  c.out << "\nstored profile as " << app << "/" << exp << "/"
        << profile_name << "\n\n";

  // Pass 2: diagnose the stored profile with the shipped rule_tuning
  // rulebase — the engine analyzing its own cost attribution, proof
  // trees included.
  pk::rules::RuleHarness tuning;
  tuning.set_provenance(pk::provenance::ProvenanceMode::kFull);
  pk::rules::builtin::use(tuning, pk::rules::builtin::rule_tuning());
  pk::rules::assert_profile_facts(tuning, *profile_trial);
  tuning.process_rules();

  const auto explanations = explanations_of(tuning.diagnoses());
  if (explanations.empty()) {
    c.out << "no rule-tuning diagnoses\n";
  } else {
    for (const auto& e : explanations) {
      c.out << pk::provenance::to_text(e) << "\n";
    }
  }
  write_exports(c, explanations);
  return 0;
}

int cmd_export_csv(const Call& c) {
  const auto trial = c.repo->verified_view(c.pos[0], c.pos[1], c.pos[2]);
  c.out << pk::perfdmf::to_csv(*trial, c.pos[3]);
  return 0;
}

int cmd_export_json(const Call& c) {
  pk::io::save_trial(*c.repo->verified_view(c.pos[0], c.pos[1], c.pos[2]),
                     c.pos[3], "json");
  c.out << "wrote " << c.pos[3] << "\n";
  return 0;
}

int cmd_import(const Call& c) {
  auto trial =
      std::make_shared<pk::profile::Trial>(pk::io::open_trial(c.pos[0]));
  c.repo->put(c.pos[1], c.pos[2], trial);
  c.repo->save(c.dir);
  c.out << "imported " << c.pos[0] << " as " << c.pos[1] << "/" << c.pos[2]
        << "/" << trial->name() << "\n";
  return 0;
}

// ---- trial history -----------------------------------------------------

int cmd_history(const Call& c) {
  const pk::perfdmf::Repository& repo = *c.repo;
  const std::string& app = c.pos[0];
  const std::string& exp = c.pos[1];
  const auto versions = repo.history(app, exp);
  // Each version's events and total come from its index record; a row
  // without a total reads the version once, through its summary.
  // history() names every trial of the experiment, so any predecessor's
  // total is here too, whatever the shape of the lineage.
  struct Version { std::size_t events = 0; double total = 0.0; };
  std::map<std::string, Version> read;
  for (const auto& version : versions) {
    const auto record = repo.record(app, exp, version);
    if (record && record->total) {
      read[version] = {record->events, *record->total};
    } else {
      const auto trial = repo.view(app, exp, version);
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
    table.begin_row().add(version).add(pred.empty() ? "-" : pred)
        .add(static_cast<long long>(v.events)).add(v.total, 1).add(vs);
  }
  c.out << app << "/" << exp << ": " << versions.size() << " versions\n"
        << table.str();
  return 0;
}

int cmd_diff(const Call& c) {
  const std::string& app = c.pos[0];
  const std::string& exp = c.pos[1];
  pk::analysis::DiffOptions options;
  if (const auto it = c.flags.find("--metric"); it != c.flags.end()) {
    options.metrics = it->second;
  }
  options.noise_band = c.number("--band", options.noise_band);
  pk::rules::RuleHarness harness;
  const auto outcome = pk::analysis::run_diff(
      *c.repo, {app, exp, c.pos[2], c.pos[3], options}, harness);
  const auto& summary = outcome.summary;

  c.out << "diff " << app << "/" << exp << ": " << c.pos[2] << " -> "
        << c.pos[3] << " (" << summary.compared_cells << " cells, "
        << summary.regressed_cells << " regressed, "
        << summary.improved_cells << " improved, " << summary.skipped_cells
        << " skipped";
  if (summary.missing_events > 0) {
    c.out << ", " << summary.missing_events << " missing";
  }
  if (summary.added_events > 0) {
    c.out << ", " << summary.added_events << " added";
  }
  c.out << ")\n\n";

  for (const auto& d : outcome.diagnoses) c.out << d.to_string() << "\n";
  const auto explanations = explanations_of(outcome.diagnoses);
  for (const auto& e : explanations) {
    c.out << "\n" << pk::provenance::to_text(e);
  }
  write_exports(c, explanations, "\n");
  return outcome.regression ? 3 : 0;
}

int cmd_bench2pkb(const Call& c) {
  // Open-or-create: a missing repository directory starts a new history.
  pk::perfdmf::Repository repo;
  if (std::filesystem::exists(std::filesystem::path(c.dir) / "index.tsv")) {
    repo = pk::perfdmf::Repository::attach(c.dir, SIZE_MAX);
  }
  const std::vector<std::filesystem::path> files(c.pos.begin() + 3,
                                                 c.pos.end());
  auto trial = std::make_shared<pk::profile::Trial>(
      pk::io::trial_from_benchmark_files(files, c.pos[2]));
  const std::size_t events = trial->event_count();
  repo.put_version(c.pos[0], c.pos[1], std::move(trial),
                   c.text("--predecessor"));
  repo.save(c.dir);
  c.out << "ingested " << files.size() << " file(s) as " << c.pos[0] << "/"
        << c.pos[1] << "/" << c.pos[2] << " (" << events - 1
        << " benchmarks), predecessor '"
        << repo.predecessor_of(c.pos[0], c.pos[1], c.pos[2]) << "'\n";
  return 0;
}

int cmd_prune(const Call& c) {
  const std::string& repo_dir = c.dir;
  const auto removed = c.repo->prune_history(
      c.pos[0], c.pos[1], c.number<std::size_t>("--keep", 0));
  c.repo->save(repo_dir);
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
  std::filesystem::recursive_directory_iterator it(repo_dir, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    if (it->path().extension() != ".pkb") continue;
    const std::string rel =
        std::filesystem::relative(it->path(), repo_dir, ec)
            .generic_string();
    if (referenced.count(rel) == 0) {
      std::error_code rm;
      if (std::filesystem::remove(it->path(), rm)) ++orphans;
    }
  }
  c.out << "pruned " << removed.size() << " version(s)";
  if (!removed.empty()) {
    c.out << " (" << pk::strings::join(removed, ", ") << ")";
  }
  c.out << ", removed " << orphans << " orphaned snapshot(s)\n";
  return 0;
}

// ---- analysis as a service ---------------------------------------------

/// Set by SIGTERM/SIGINT; polled by cmd_serve's run loop (signal
/// handlers must not touch the Server directly).
volatile std::sig_atomic_t g_serve_stop = 0;

void serve_signal(int) { g_serve_stop = 1; }

int cmd_serve(const Call& c) {
  pk::server::ServerOptions options;
  options.socket_path = c.pos[0];
  options.repository_dir = c.text("--repo");
  options.rules_path = c.text("--rules");
  options.workers = c.number("--workers", options.workers);
  options.queue_limit = c.number("--queue", options.queue_limit);
  options.client_queue_limit =
      c.number("--client-queue", options.client_queue_limit);
  options.client_byte_budget =
      c.number("--budget", options.client_byte_budget);
  const std::string trace_path = c.text("--trace");

  pk::server::Server server(std::move(options));
  g_serve_stop = 0;
  std::signal(SIGINT, serve_signal);
  std::signal(SIGTERM, serve_signal);
  // The "listening" line is the readiness handshake scripts wait for.
  c.out << "pkx serve: listening on "
        << server.options().socket_path.string() << " ("
        << server.options().workers << " workers, queue "
        << server.options().queue_limit << ")\n";
  c.out.flush();
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  // The serving counters are ordinary telemetry, so the daemon's whole
  // run exports as a Chrome trace like any analysis would.
  if (!trace_path.empty()) {
    std::ofstream trace(trace_path);
    if (!trace) {
      c.err << "pkx serve: cannot write trace to " << trace_path << "\n";
      return 1;
    }
    pk::telemetry::write_chrome_trace(pk::telemetry::snapshot(), trace);
    c.out << "pkx serve: telemetry trace written to " << trace_path << "\n";
  }
  const auto s = server.stats();
  c.out << "pkx serve: drained (" << s.requests << " requests, "
        << s.executed << " executed, " << s.rejected_overload
        << " rejected overloaded, " << s.rejected_budget
        << " rejected over budget, " << s.uploads << " uploads)\n";
  return 0;
}

/// Prints a client response: streamed lines verbatim (JSON lines a
/// pipeline can consume), then the terminal result; errors map onto the
/// pkx exit-code contract.
int client_reply(const Call& c, const pk::server::Client::Response& r) {
  for (const auto& ev : r.events) c.out << ev.line << "\n";
  if (!r.ok()) {
    c.err << "pkx client: " << pk::server::wire::to_string(r.error) << ": "
          << r.error_message << "\n";
    return pk::server::wire::exit_code(r.error);
  }
  if (c.name == "stats" && !c.has("--json")) {
    c.out << render_stats_table(r.result);
    return 0;
  }
  c.out << r.result << "\n";
  if (c.name == "diff" &&
      r.result.find("\"regression\":true") != std::string::npos) {
    return 3;  // same gate verdict as in-process `pkx diff`
  }
  return 0;
}

/// Streams `watch` events: sends the request, then prints each "stats"
/// event as it arrives (raw JSON lines under --json, fixed-width rows
/// otherwise) until the server's terminal line for the request.
int client_watch(const Call& c) {
  const bool json_lines = c.has("--json");
  const std::string params =
      "{\"interval\":" + pk::json::number(c.number("--interval", 1.0)) +
      ",\"count\":" +
      pk::json::number(static_cast<double>(c.number("--count", 0LL))) + "}";
  bool header_pending = !json_lines;
  const auto r = c.client->collect(
      c.client->send("watch", params),
      [&](const pk::server::Client::Event& ev) {
        if (std::exchange(header_pending, false)) {
          c.out << render_watch_header();
        }
        c.out << (json_lines ? ev.line + "\n" : render_watch_row(ev.line));
        c.out.flush();
      });
  if (!r.ok()) return client_reply(c, r);
  if (json_lines) c.out << r.line << "\n";
  return 0;
}

int client_upload(const Call& c) {
  return client_reply(
      c, c.client->upload_file(c.pos[0], c.pos[1], c.pos[2],
                               c.text("--version"), c.text("--predecessor")));
}

/// Every verb but watch and upload: the positionals and flags as named
/// params ("{}" for ping, selfdiagnose and stats).
int client_call(const Call& c) {
  const char* const keys[] = {"application", "experiment",
                              c.name == "diff" ? "base" : "trial", "current"};
  std::string params = "{";
  for (std::size_t i = 0; i < c.pos.size(); ++i) {
    params += (i == 0 ? "\"" : ",\"") + std::string(keys[i]) +
              "\":" + pk::json::quote(c.pos[i]);
  }
  if (c.has("--rulebase")) {
    params += ",\"rulebase\":" + pk::json::quote(c.text("--rulebase"));
  }
  if (c.has("--band")) {
    params += ",\"band\":" + pk::json::number(c.number("--band", 0.0));
  }
  return client_reply(c, c.client->call(c.name, params + "}"));
}

constexpr const char* kNumber = "a number";
constexpr const char* kPositiveNumber = "a positive number";

// In usage order, the client verbs last: their lines end the full usage
// as `pkx client`'s block. Each usage line follows its scope's prefix.
const Command kCommands[] = {
    {kBare, "demo", "demo <repo-dir>", 1, {}, cmd_demo},
    {kRepo, "list", "list", 0, {}, cmd_list},
    {kRepo, "show", "show <app> <exp> <trial>", 3, {}, cmd_show},
    {kRepo, "run", "run <script.ps>", 1, {}, cmd_run},
    {kRepo, "report", "report <app> <exp> <trial>", 3, {}, cmd_report},
    {kRepo, "explain",
     "explain <app> <exp> <trial> [--json <file>] [--dot <file>]", 3,
     {{"--json"}, {"--dot"}}, cmd_explain},
    {kBare, "explain", "explain --from <explanations.json>", 0,
     {{"--from", kText, nullptr, true, true}}, cmd_explain_from},
    {kRepo, "rules-profile",
     "rules-profile <app> <exp> <trial> [--rules <file>] [--json <file>]"
     " [--dot <file>]",
     3, {{"--rules"}, {"--json"}, {"--dot"}}, cmd_rules_profile},
    {kRepo, "export-csv", "export-csv <app> <exp> <trial> <metric>", 4, {},
     cmd_export_csv},
    {kRepo, "export-json", "export-json <app> <exp> <trial> <file>", 4, {},
     cmd_export_json},
    {kRepo, "import", "import <file-or-dir> <app> <exp>", 3, {}, cmd_import},
    {kRepo, "diff",
     "diff <app> <exp> <base> <current> [--json <file>] [--metric <name>]"
     " [--band <fraction>]",
     4, {{"--json"}, {"--metric"}, {"--band", kPositive, kPositiveNumber}},
     cmd_diff},
    {kRepo, "history", "history <app> <exp>", 2, {}, cmd_history},
    {kDir, "bench2pkb",
     "bench2pkb <app> <exp> <version> <bench.json>..."
     " [--predecessor <version>]",
     3, {{"--predecessor"}}, cmd_bench2pkb, true},
    {kRepo, "prune", "prune <app> <exp> --keep <n>", 2,
     {{"--keep", kInt, nullptr, true, true}}, cmd_prune},
    {kBare, "serve",
     "serve <socket> [--repo <dir>] [--rules <dir>] [--workers <n>]\n"
     "    [--queue <n>] [--client-queue <n>] [--budget <bytes>]"
     " [--trace <file>]",
     1,
     {{"--repo"}, {"--rules"}, {"--workers", kInt, kNumber},
      {"--queue", kInt, kNumber}, {"--client-queue", kInt, kNumber},
      {"--budget", kInt, kNumber}, {"--trace"}},
     cmd_serve},
    {kClient, "ping", "ping | selfdiagnose", 0, {}, client_call},
    {kClient, "selfdiagnose", nullptr, 0, {}, client_call},
    {kClient, "stats", "stats [--json]", 0,
     {{"--json", kSwitch, nullptr, true}}, client_call},
    {kClient, "watch", "watch [--interval <sec>] [--count <n>] [--json]", 0,
     {{"--interval", kReal, kNumber}, {"--count", kInt, kNumber},
      {"--json", kSwitch}},
     client_watch},
    {kClient, "upload",
     "upload <app> <exp> <file> [--version <v>] [--predecessor <p>]", 3,
     {{"--version"}, {"--predecessor"}}, client_upload},
    {kClient, "analyze",
     "analyze|explain <app> <exp> <trial> [--rulebase <name>]", 3,
     {{"--rulebase"}}, client_call},
    {kClient, "explain", nullptr, 3, {{"--rulebase"}}, client_call},
    {kClient, "diff", "diff <app> <exp> <base> <current> [--band <fraction>]",
     4, {{"--band", kReal, kPositiveNumber}}, client_call},
};

/// The row named `name` in `scope`; kRepo also finds kDir rows.
const Command* find_command(std::string_view name, Scope scope) {
  for (const Command& c : kCommands) {
    if (name == c.name && (c.scope == kDir ? kRepo : c.scope) == scope) {
      return &c;
    }
  }
  return nullptr;
}

/// Usage for one failing subcommand (each row of that name; every verb
/// for "client") -> exit 2. Any other word gets the full usage.
int usage_for(const std::string& cmd, std::ostream& err) {
  std::string matched;
  std::string all;
  for (const auto& c : kCommands) {
    if (c.usage == nullptr) continue;
    const std::string line = std::string("  pkx ") +
                             (c.scope == kBare     ? ""
                              : c.scope == kClient ? "client <socket> "
                                                   : "<repo-dir> ") +
                             c.usage + "\n";
    all += line;
    if (cmd == "client" ? c.scope == kClient
                        : c.scope != kClient && cmd == c.name) {
      matched += line;
    }
  }
  err << "usage:\n";
  if (!matched.empty()) {
    err << matched;
    return 2;
  }
  err << all
      << "\n"
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

bool valid(Value value, const std::string& text) {
  try {
    if (value == kInt) (void)pk::strings::parse_int(text);
    const double v = value < kReal ? 1.0 : pk::strings::parse_double(text);
    return value != kPositive || (std::isfinite(v) && v > 0.0);
  } catch (const pk::ParseError&) {
    return false;
  }
}

/// Checks args[first..] against row `c` into `call`, then runs its
/// handler; a usage error prints the row's usage and returns 2.
int run(const Command& c, const std::vector<std::string>& args,
        std::size_t first, Call& call) {
  const std::string group = c.scope == kClient ? "client" : c.name;
  const auto any_flag = [&c](auto pred) {
    return std::any_of(c.flags.begin(), c.flags.end(), pred);
  };
  std::size_t i = first + c.arity;
  // Without switches or further positionals every flag takes a value,
  // so an odd tail fails before any value is read.
  const bool pairs =
      !c.more && !any_flag([](const Flag& f) { return f.value == kSwitch; });
  if (args.size() < i || (pairs && (args.size() - i) % 2 != 0)) {
    return usage_for(group, call.err);
  }
  call.name = c.name;
  call.pos.assign(args.begin() + first, args.begin() + i);
  for (; i < args.size(); ++i) {
    const auto f = std::find_if(
        c.flags.begin(), c.flags.end(),
        [&](const Flag& g) { return args[i] == g.name; });
    if (f == c.flags.end()) {
      if (!c.more) return usage_for(group, call.err);
      call.pos.push_back(args[i]);
    } else if (f->once && call.has(f->name)) {
      return usage_for(group, call.err);
    } else if (f->value == kSwitch) {
      call.flags[f->name].emplace_back();
    } else if (++i == args.size() || !valid(f->value, args[i])) {
      if (i < args.size() && f->noun != nullptr) {
        call.err << "pkx " << group << ": " << f->name << " must be "
                 << f->noun << ", got '" << args[i] << "'\n";
      }
      return usage_for(group, call.err);
    } else {
      call.flags[f->name].push_back(args[i]);
    }
  }
  const bool missing = any_flag(
      [&](const Flag& f) { return f.required && !call.has(f.name); });
  if (missing || (c.more && call.pos.size() == c.arity)) {
    return usage_for(group, call.err);
  }
  return c.run(call);
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
  // The word typed, remembered across the try so InvalidArgumentError
  // can print its usage.
  std::string cmd;
  try {
    Call call{out, err};
    if (args.empty()) return usage_for(cmd, err);
    if (args[0] == "client") {
      cmd = "client";
      if (args.size() < 3) return usage_for(cmd, err);
      pk::server::Client client(args[1]);
      call.client = &client;
      const Command* verb = find_command(args[2], kClient);
      return verb != nullptr ? run(*verb, args, 3, call)
                             : usage_for(cmd, err);
    }
    if (const Command* c = find_command(args[0], kBare)) {
      cmd = args[0];
      return run(*c, args, 1, call);
    }
    if (args.size() < 2) return usage_for(cmd, err);
    cmd = args[1];
    // import-csv and import-tau are the old spellings of import.
    const Command* c = find_command(
        cmd == "import-csv" || cmd == "import-tau" ? "import" : cmd, kRepo);
    call.dir = args[0];
    // Lazy open, before the arguments are read: a command pays for the
    // trials it touches, not the whole repository. The unbounded budget
    // means a one-shot process never evicts, so a trial read twice is
    // loaded once. bench2pkb creates the repository on first ingest, so
    // it opens (or not) for itself.
    std::optional<pk::perfdmf::Repository> repo;
    if (c == nullptr || c->scope == kRepo) {
      repo = pk::perfdmf::Repository::attach(args[0], SIZE_MAX);
      call.repo = &*repo;
    }
    return c != nullptr ? run(*c, args, 2, call) : usage_for("", err);
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
