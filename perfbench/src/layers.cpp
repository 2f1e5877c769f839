#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "analysis/diff.hpp"
#include "analysis/facts.hpp"
#include "io/format.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/repository.hpp"
#include "perfdmf/tau_format.hpp"
#include "provenance/explanation.hpp"
#include "rules/engine.hpp"
#include "rules/profiler.hpp"
#include "rules/rulebases.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "telemetry/telemetry.hpp"
#include "tools/pkx_cli.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace pk = perfknow;

/// Quantile of a telemetry histogram, interpolated by rank inside the
/// power-of-two bucket that holds it and clamped to the recorded range.
double histogram_quantile(const pk::telemetry::HistogramSample& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  double seen = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const auto n = static_cast<double>(h.buckets[i]);
    if (n > 0 && seen + n >= rank) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double v = lo + (hi - lo) * (rank - seen) / n;
      return std::clamp(v, static_cast<double>(h.min),
                        static_cast<double>(h.max));
    }
    seen += n;
  }
  return static_cast<double>(h.max);
}

std::uint64_t counter_value(const pk::telemetry::Snapshot& s,
                            const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace

void probe_layers(const Config& cfg, const ProbeInputs& in, Report& report) {
  Tracer tr;
  const int reps = cfg.smoke ? 1 : 2;
  const fs::path dir = cfg.work / "probe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  pk::telemetry::set_enabled(true);
  pk::telemetry::reset();

  // ---- profile: trial construction in reader order ----------------------
  for (int i = 0; i < reps; ++i) {
    tr.span("profile.build", [&] {
      (void)build_trial(in.top, cfg.seed, "top", 1.0, true);
    });
    tr.span("profile.build_half", [&] {
      (void)build_trial(in.half, cfg.seed, "half", 1.0, true);
    });
  }
  report.set("profile.build_ms", tr.median_ms("profile.build"), "ms");
  report.set("profile.build_doubling_ratio",
             tr.median_ms("profile.build") / tr.median_ms("profile.build_half"),
             "ratio");

  // ---- io: each text reader at the top rung; PKB at the stored shape ----
  fs::path tau = in.tau_dir;
  fs::path json = in.json_file;
  fs::path csv = in.csv_file;
  if (tau.empty()) {
    const auto top = build_trial(in.top, cfg.seed, "top");
    tau = dir / "top";
    json = dir / "top.json";
    csv = dir / "top.csv";
    pk::perfdmf::write_tau_profiles(top, "TIME", tau);
    pk::io::save_trial(top, json, "json");
    pk::io::save_trial(top, csv, "csv");
  }
  tr.span("io.open_tau", [&] { (void)pk::io::open_trial(tau, "tau"); });
  tr.span("io.open_json", [&] { (void)pk::io::open_trial(json, "json"); });
  tr.span("io.open_csv", [&] { (void)pk::io::open_trial(csv, "csv"); });
  const fs::path pkb = dir / "stored.pkb";
  {
    const auto stored = build_trial(in.stored, cfg.seed, "stored");
    for (int i = 0; i < reps; ++i) {
      tr.span("io.save_pkb", [&] { pk::io::save_trial(stored, pkb, "pkb"); });
      tr.span("io.open_pkb", [&] { (void)pk::io::open_trial(pkb, "pkb"); });
    }
  }
  for (const char* f : {"tau", "json", "csv", "pkb"}) {
    report.set(std::string("io.open_") + f + "_ms",
               tr.median_ms(std::string("io.open_") + f), "ms");
  }
  report.set("io.save_pkb_ms", tr.median_ms("io.save_pkb"), "ms");

  // ---- perfdmf: a private copy of the workload's repository --------------
  const fs::path repo = dir / "repo";
  fs::copy(in.repo_dir, repo, fs::copy_options::recursive);
  {
    pk::perfdmf::Repository loaded;
    for (int i = 0; i < 2; ++i) {
      tr.span("perfdmf.load",
              [&] { loaded = pk::perfdmf::Repository::load(repo); });
    }
    // A save that replaces one trial, as every pkx write does.
    loaded.put(in.app, in.exp, loaded.get(in.app, in.exp, in.trial));
    const auto before = bytes_written();
    tr.span("perfdmf.save", [&] { loaded.save(repo); });
    const auto written = bytes_written() - before;
    const auto snapshot =
        pk::perfdmf::to_pkb(*loaded.get(in.app, in.exp, in.trial)).size();
    report.set("perfdmf.load_ms", tr.median_ms("perfdmf.load"), "ms");
    report.set("perfdmf.save_ms", tr.median_ms("perfdmf.save"), "ms");
    report.set("perfdmf.save_write_amp",
               static_cast<double>(written) / static_cast<double>(snapshot),
               "ratio");
  }
  {
    pk::perfdmf::Repository attached;
    for (int i = 0; i < reps; ++i) {
      tr.span("perfdmf.attach",
              [&] { attached = pk::perfdmf::Repository::attach(repo); });
    }
    const auto names = attached.history(in.app, in.exp);
    for (const auto& n : names) {
      tr.span("perfdmf.get_cold", [&] { (void)attached.get(in.app, in.exp, n); });
      tr.span("perfdmf.get_warm", [&] { (void)attached.get(in.app, in.exp, n); });
    }
    report.set("perfdmf.attach_ms", tr.median_ms("perfdmf.attach"), "ms");
    report.set("perfdmf.get_cold_ms", tr.median_ms("perfdmf.get_cold"), "ms");
    report.set("perfdmf.get_warm_ms", tr.median_ms("perfdmf.get_warm"), "ms");
  }

  // ---- analysis, rules, provenance: the explain and diff pipelines --------
  const auto a = build_trial(in.analysis, cfg.seed * 3 + 1, "probe-a");
  const auto b = build_trial(in.analysis, cfg.seed * 3 + 2, "probe-b", 1.8);
  double facts = 0.0;
  double firings = 0.0;
  double json_bytes = 0.0;
  for (int i = 0; i < reps; ++i) {
    pk::rules::RuleHarness h;
    h.set_provenance(pk::provenance::ProvenanceMode::kFull);
    pk::rules::builtin::use(h, pk::rules::builtin::openuh_rules());
    std::size_t n = 0;
    tr.span("analysis.load_balance_facts",
            [&] { n += pk::analysis::assert_load_balance_facts(h, b); });
    tr.span("analysis.stall_facts",
            [&] { n += pk::analysis::assert_stall_facts(h, b); });
    tr.span("analysis.locality_facts",
            [&] { n += pk::analysis::assert_memory_locality_facts(h, b); });
    std::size_t fired = 0;
    tr.span("rules.process", [&] { fired = h.process_rules(); });
    std::vector<pk::provenance::Explanation> es;
    for (const auto& d : h.diagnoses()) {
      if (d.provenance) es.push_back(*d.provenance);
    }
    tr.span("provenance.to_text", [&] {
      for (const auto& e : es) (void)pk::provenance::to_text(e);
    });
    tr.span("provenance.to_json", [&] {
      json_bytes = static_cast<double>(pk::provenance::to_json(es).size());
    });

    pk::rules::RuleHarness d;
    d.set_provenance(pk::provenance::ProvenanceMode::kFull);
    pk::rules::builtin::use(d, pk::rules::builtin::regression());
    tr.span("analysis.diff_facts",
            [&] { n += pk::analysis::assert_diff_facts(d, a, b).facts; });
    tr.span("rules.diff_process", [&] { fired += d.process_rules(); });
    facts = static_cast<double>(n);
    firings = static_cast<double>(fired);
  }
  double probes = 0.0;
  double hits = 0.0;
  {
    const bool prev = pk::rules::profiling_enabled();
    pk::rules::set_profiling_enabled(true);
    pk::rules::RuleHarness h;
    pk::rules::builtin::use(h, pk::rules::builtin::openuh_rules());
    pk::analysis::assert_load_balance_facts(h, b);
    pk::analysis::assert_stall_facts(h, b);
    pk::analysis::assert_memory_locality_facts(h, b);
    h.process_rules();
    for (const auto& r : h.rule_profile().rules) {
      for (const auto& l : r.levels) {
        probes += static_cast<double>(l.probes);
        hits += static_cast<double>(l.hits);
      }
    }
    pk::rules::set_profiling_enabled(prev);
  }
  for (const char* s : {"load_balance_facts", "stall_facts", "locality_facts",
                        "diff_facts"}) {
    report.set(std::string("analysis.") + s + "_ms",
               tr.median_ms(std::string("analysis.") + s), "ms");
  }
  report.set("analysis.facts", facts, "count");
  report.set("rules.process_ms", tr.median_ms("rules.process"), "ms");
  report.set("rules.diff_process_ms", tr.median_ms("rules.diff_process"), "ms");
  report.set("rules.firings", firings, "count");
  report.set("rules.join_hit_ratio", probes > 0 ? hits / probes : 0.0, "ratio");
  report.set("provenance.to_text_ms", tr.median_ms("provenance.to_text"), "ms");
  report.set("provenance.to_json_ms", tr.median_ms("provenance.to_json"), "ms");
  report.set("provenance.json_bytes", json_bytes, "bytes");

  // ---- server: round trips per method against the daemon -----------------
  {
    std::unique_ptr<pk::server::Server> own;
    pk::server::Server* server = in.server;
    fs::path socket = in.socket;
    if (server == nullptr) {
      socket = dir / "pk.sock";
      pk::server::ServerOptions opts;
      opts.socket_path = socket;
      opts.repository_dir = repo;
      own = std::make_unique<pk::server::Server>(opts);
      server = own.get();
    }
    const fs::path body = in.upload_file.empty() ? pkb : in.upload_file;
    pk::server::Client client(socket);
    auto call = [&](const char* span, const std::string& method,
                    const std::string& params) {
      pk::server::Client::Response r;
      tr.span(span, [&] { r = client.call(method, params); });
      report.op(r.ok(), std::string(span) + ": " + r.error_message);
    };
    auto p = [&](const std::string& trial) {
      return "{\"application\":\"" + in.app + "\",\"experiment\":\"" + in.exp +
             "\",\"trial\":\"" + trial + "\"}";
    };
    for (int i = 0; i < 20; ++i) call("server.ping", "ping", "{}");
    for (int i = 0; i < reps; ++i) {
      const std::string ver = "u" + std::to_string(i);
      pk::server::Client::Response r;
      tr.span("server.upload",
              [&] { r = client.upload_file("probe", "uploads", body, ver); });
      report.op(r.ok(), "server.upload: " + r.error_message);
      call("server.analyze", "analyze", p(in.trial));
      const std::string base = in.base.empty() ? in.trial : in.base;
      call("server.diff", "diff",
           "{\"application\":\"" + in.app + "\",\"experiment\":\"" + in.exp +
               "\",\"base\":\"" + base + "\",\"current\":\"" + in.trial +
               "\"}");
    }
    for (const char* m : {"ping", "upload", "analyze", "diff"}) {
      report.set(std::string("server.") + m + "_ms_p50",
                 tr.median_ms(std::string("server.") + m), "ms");
    }
    const auto stats = server->stats();
    report.set("server.rejected",
               static_cast<double>(stats.rejected_overload +
                                   stats.rejected_budget),
               "count");
  }

  // ---- tools: one run of each pkx subcommand on the private copy ----------
  const std::string r = repo.string();
  const fs::path import = in.import_file.empty() ? pkb : in.import_file;
  const std::string base = in.base.empty() ? in.trial : in.base;
  const std::vector<std::pair<std::string, std::vector<std::string>>> cmds = {
      {"list", {r, "list"}},
      {"show", {r, "show", in.app, in.exp, in.trial}},
      {"history", {r, "history", in.app, in.exp}},
      {"explain", {r, "explain", in.app, in.exp, in.trial}},
      {"report", {r, "report", in.app, in.exp, in.trial}},
      {"diff", {r, "diff", in.app, in.exp, base, in.trial}},
      {"import", {r, "import", import.string(), in.app, "patches"}},
      {"prune", {r, "prune", in.app, in.exp, "--keep", "100"}},
      {"rules_profile", {r, "rules-profile", in.app, in.exp, in.trial}},
  };
  for (const auto& [name, args] : cmds) {
    std::ostringstream out;
    std::ostringstream err;
    int rc = 0;
    tr.span("pkx." + name, [&] { rc = pk::tools::pkx_main(args, out, err); });
    report.op(rc == 0 || (name == "diff" && rc == 3),
              "pkx " + name + ": rc " + std::to_string(rc) + " " +
                  err.str().substr(0, 160));
    report.set("pkx." + name + "_ms", tr.median_ms("pkx." + name), "ms");
  }

  // ---- counters the program keeps itself --------------------------------
  const auto snap = pk::telemetry::snapshot();
  const double hit =
      static_cast<double>(counter_value(snap, "perfdmf.repository.cache.hit"));
  const double miss =
      static_cast<double>(counter_value(snap, "perfdmf.repository.cache.miss"));
  report.set("perfdmf.cache_hit_ratio", hit + miss > 0 ? hit / (hit + miss) : 0.0,
             "ratio");
  report.set("perfdmf.evictions",
             static_cast<double>(counter_value(
                 snap, "perfdmf.repository.cache.eviction")),
             "count");
  double wait_p50 = 0.0;
  double wait_p95 = 0.0;
  for (const auto& h : snap.histograms) {
    if (h.name == "server.queue_wait_ns") {
      wait_p50 = histogram_quantile(h, 0.5) / 1e6;
      wait_p95 = histogram_quantile(h, 0.95) / 1e6;
    }
  }
  report.set("server.queue_wait_ms_p50", wait_p50, "ms");
  report.set("server.queue_wait_ms_p95", wait_p95, "ms");
  fs::remove_all(dir);
}

}  // namespace perfbench

namespace perfbench {

const std::vector<std::string>& per_layer_metrics() {
  static const std::vector<std::string> k = {
      "profile.build_ms",
      "profile.build_doubling_ratio",
      "io.open_tau_ms",
      "io.open_json_ms",
      "io.open_csv_ms",
      "io.open_pkb_ms",
      "io.save_pkb_ms",
      "perfdmf.load_ms",
      "perfdmf.save_ms",
      "perfdmf.save_write_amp",
      "perfdmf.attach_ms",
      "perfdmf.get_cold_ms",
      "perfdmf.get_warm_ms",
      "perfdmf.cache_hit_ratio",
      "perfdmf.evictions",
      "analysis.load_balance_facts_ms",
      "analysis.stall_facts_ms",
      "analysis.locality_facts_ms",
      "analysis.diff_facts_ms",
      "analysis.facts",
      "rules.process_ms",
      "rules.diff_process_ms",
      "rules.firings",
      "rules.join_hit_ratio",
      "provenance.to_text_ms",
      "provenance.to_json_ms",
      "provenance.json_bytes",
      "server.ping_ms_p50",
      "server.upload_ms_p50",
      "server.analyze_ms_p50",
      "server.diff_ms_p50",
      "server.queue_wait_ms_p50",
      "server.queue_wait_ms_p95",
      "server.rejected",
      "pkx.list_ms",
      "pkx.show_ms",
      "pkx.history_ms",
      "pkx.explain_ms",
      "pkx.report_ms",
      "pkx.diff_ms",
      "pkx.import_ms",
      "pkx.prune_ms",
      "pkx.rules_profile_ms",
      "telemetry.trace_overhead_pct"};
  return k;
}

}  // namespace perfbench
