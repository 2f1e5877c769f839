#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <shared_mutex>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "gen.hpp"
#include "io/format.hpp"
#include "layers.hpp"
#include "perfdmf/repository.hpp"
#include "perfdmf/tau_format.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/wire.hpp"
#include "telemetry/telemetry.hpp"
#include "tools/pkx_cli.hpp"

namespace perfbench {

namespace {

namespace pk = perfknow;
constexpr const char* kApp = "bench";
constexpr const char* kLineage = "lineage";

bool contains(const std::string& s, const std::string& needle) {
  return s.find(needle) != std::string::npos;
}

/// Untraced set-up: repeats `once` and reports the median as setup_s.
void timed_setup(const Config& cfg, Report& report,
                 const std::function<void(bool last)>& once) {
  const int repeats = cfg.trace ? 1 : cfg.setup_repeats;
  Samples s;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    once(r + 1 == repeats);
    s.add(seconds_since(t0));
  }
  report.set("setup_s", s.median(), "s", s.count());
}

std::string version_name(std::size_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "v%02zu", v);
  return buf;
}

// ---- the versioned repository shared by repo_cli and serve --------------

struct Lineage {
  Plan plan;
  std::set<std::size_t> regressed;  ///< versions that plant a regression
  std::uint64_t seed = 0;
  std::size_t versions = 0;

  [[nodiscard]] double scale(std::size_t v) const {
    double s = 1.0;
    for (const auto r : regressed) {
      if (r <= v) s *= 1.8;
    }
    return s;
  }
  [[nodiscard]] pk::profile::Trial build(std::size_t v) const {
    return build_trial(plan, seed * 1000 + v, version_name(v), scale(v));
  }
};

Lineage make_lineage(const Config& cfg) {
  Lineage l;
  l.seed = cfg.seed;
  l.versions = cfg.repo_versions;
  l.plan = make_plan({cfg.repo_events, cfg.repo_threads, true}, cfg.seed);
  pk::Rng rng(cfg.seed ^ 0x7e9e55ULL);
  const std::size_t want = cfg.repo_versions >= 10 ? 3 : 1;
  while (l.regressed.size() < want) {
    l.regressed.insert(
        static_cast<std::size_t>(rng.uniform_int(2, cfg.repo_versions - 1)));
  }
  return l;
}

/// Seeds `dir` with every version as one lineage chain (PKB snapshots).
void write_lineage(const Lineage& l, const fs::path& dir) {
  fs::remove_all(dir);
  pk::perfdmf::Repository repo;
  for (std::size_t v = 0; v < l.versions; ++v) {
    repo.put_version(kApp, kLineage,
                     std::make_shared<pk::profile::Trial>(l.build(v)));
  }
  repo.save(dir);
}

void note_plan(Report& report, const char* what, const Plan& p) {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "inputs: %s %zu events x %zu threads x %zu metrics, "
                "%zu hot events (>5%% of runtime)",
                what, p.names.size(), p.shape.threads,
                metric_names(p.shape).size(), p.hot_events);
  report.notes.emplace_back(buf);
}

struct Pkx {
  int rc = 0;
  std::string out;
  double ms = 0.0;
};

Pkx pkx(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  Pkx r;
  r.ms = time_ms([&] { r.rc = pk::tools::pkx_main(args, out, err); });
  r.out = out.str() + err.str();
  return r;
}

/// Runs `op` alternately with telemetry off and on and reports the
/// traced/untraced wall-time difference.
void trace_overhead(Report& report, const std::function<void()>& op,
                    int rounds) {
  Samples off;
  Samples on;
  for (int i = 0; i < rounds; ++i) {
    pk::telemetry::set_enabled(false);
    off.add(time_ms(op));
    pk::telemetry::set_enabled(true);
    on.add(time_ms(op));
  }
  report.set("telemetry.trace_overhead_pct",
             100.0 * (on.median() - off.median()) / off.median(), "%",
             on.count());
  pk::telemetry::reset();
}

}  // namespace

// ---- ingest -------------------------------------------------------------

void run_ingest(const Config& cfg, Report& report) {
  struct Rung {
    Plan plan;
    std::vector<double> sums;
    std::size_t cells = 0;
    fs::path dir;
  };
  const char* formats[] = {"tau", "json", "csv"};
  std::vector<Rung> rungs;
  for (const auto e : cfg.ladder) {
    Rung r;
    r.plan = make_plan({e, cfg.ladder_threads, false}, cfg.seed * 31 + e);
    r.dir = cfg.work / ("in-" + std::to_string(e));
    rungs.push_back(std::move(r));
  }
  auto repo_of = [&](const std::string& f) { return cfg.work / ("repo-" + f); };
  auto input_of = [&](const Rung& r, const std::string& f) {
    if (f == "tau") return r.dir / "ladder";
    return r.dir / ("ladder." + f);
  };
  // Every format's reader names the trial after the input's stem.
  const std::string trial = "ladder";

  timed_setup(cfg, report, [&](bool) {
    run_in_child([&] {
      fs::remove_all(cfg.work);
      for (const auto& r : rungs) {
        const auto t = build_trial(r.plan, cfg.seed + r.plan.names.size(),
                                   "ladder");
        pk::perfdmf::write_tau_profiles(t, "TIME", input_of(r, "tau"));
        pk::io::save_trial(t, input_of(r, "json"), "json");
        pk::io::save_trial(t, input_of(r, "csv"), "csv");
      }
      // Each target repository starts with one small baseline trial.
      const auto base = build_trial(
          make_plan({50, cfg.ladder_threads, false}, cfg.seed), cfg.seed,
          "baseline");
      for (const auto* f : formats) {
        pk::perfdmf::Repository repo;
        repo.put(kApp, "ingest", std::make_shared<pk::profile::Trial>(base));
        repo.save(repo_of(f));
      }
    });
  });
  for (auto& r : rungs) {
    const auto t = build_trial(r.plan, cfg.seed + r.plan.names.size(), "ladder");
    r.sums = cell_sums(t);
    r.cells = t.thread_count() * t.event_count() * t.metric_count();
  }
  note_plan(report, "ingest top rung", rungs.back().plan);

  auto import = [&](const Rung& r, const std::string& f) {
    return pkx({repo_of(f).string(), "import", input_of(r, f).string(), kApp,
                "ingest"});
  };
  auto check_import = [&](const Rung& r, const std::string& f,
                          const Pkx& p) {
    bool ok = p.rc == 0;
    if (ok) {
      const auto repo = pk::perfdmf::Repository::attach(repo_of(f));
      ok = same_sums(cell_sums(*repo.get(kApp, "ingest", trial)),
                     r.sums);
    }
    report.op(ok, "import " + input_of(r, f).string() + ": rc " +
                      std::to_string(p.rc) + " " + p.out.substr(0, 200));
  };

  if (cfg.trace) {
    const auto& top = rungs.back();
    trace_overhead(report, [&] { import(rungs[rungs.size() - 2], "json"); },
                   3);
    ProbeInputs in;
    in.top = top.plan;
    in.half = rungs[rungs.size() - 2].plan;
    in.stored = top.plan;
    in.tau_dir = input_of(top, "tau");
    in.json_file = input_of(top, "json");
    in.csv_file = input_of(top, "csv");
    in.import_file = input_of(top, "json");
    in.repo_dir = repo_of("json");
    in.app = kApp;
    in.exp = "ingest";
    in.trial = "ladder";
    in.analysis = make_plan(
        {cfg.ladder.back(), cfg.ladder_threads, true}, cfg.seed + 5);
    probe_layers(cfg, in, report);
    return;
  }

  Kinds imports;
  Kinds reads;
  double cells = 0.0;
  auto kind = [&](std::size_t ri, const std::string& f) {
    return f + "@" + std::to_string(rungs[ri].plan.names.size());
  };
  const auto t0 = Clock::now();
  do {
    for (std::size_t ri = 0; ri < rungs.size(); ++ri) {
      for (const auto* f : formats) {
        const auto p = import(rungs[ri], f);
        imports.add(kind(ri, f), p.ms);
        cells += static_cast<double>(rungs[ri].cells);
        check_import(rungs[ri], f, p);
        // Look at what was imported, as a user would.
        const std::string r = repo_of(f).string();
        for (const auto& args : std::vector<std::vector<std::string>>{
                 {r, "show", kApp, "ingest", trial},
                 {r, "list"},
                 {r, "history", kApp, "ingest"}}) {
          const auto q = pkx(args);
          reads.add(args[1] + "/" + kind(ri, f), q.ms);
          report.op(q.rc == 0 && contains(q.out, trial),
                    args[1] + " " + r + ": rc " + std::to_string(q.rc));
        }
      }
    }
  } while (seconds_since(t0) < cfg.seconds);

  const double busy_s = (imports.sum() + reads.sum()) / 1e3;
  report.set("ops_per_s", static_cast<double>(imports.count() + reads.count()) /
                              busy_s, "1/s");
  report.set("cells_per_s", cells / (imports.sum() / 1e3), "cells/s");
  report.set_typical("update_ms_p50", imports, "ms");
  report.set_typical("query_ms_p50", reads, "ms");
  Samples doubling;
  const std::size_t top = rungs.size() - 1;
  for (const auto* f : formats) {
    const double r = imports.of(kind(top, f)).median() /
                     imports.of(kind(top - 1, f)).median();
    doubling.add(r);
    report.set(std::string("ingest.doubling_ratio.") + f, r, "x");
  }
  report.set("doubling_ratio", doubling.median(), "x", doubling.count());
}

// ---- repo_cli -------------------------------------------------------------

void run_repo_cli(const Config& cfg, Report& report) {
  const Lineage lineage = make_lineage(cfg);
  const fs::path repo = cfg.work / "repo";
  const fs::path hotfix = cfg.work / "hotfix.pkb";
  const Plan hot_plan =
      make_plan({std::max<std::size_t>(cfg.repo_events / 10, 20),
                 cfg.repo_threads, true},
                cfg.seed + 7);
  timed_setup(cfg, report, [&](bool) {
    run_in_child([&] {
      fs::remove_all(cfg.work);
      fs::create_directories(cfg.work);
      write_lineage(lineage, repo);
      pk::io::save_trial(build_trial(hot_plan, cfg.seed, "hotfix"), hotfix,
                         "pkb");
    });
  });
  const auto hot_sums = cell_sums(build_trial(hot_plan, cfg.seed, "hotfix"));
  note_plan(report, "repository trial", lineage.plan);
  {
    char buf[120];
    std::snprintf(buf, sizeof buf, "inputs: %zu versions, %.1f MB on disk",
                  lineage.versions,
                  static_cast<double>([&] {
                    std::uintmax_t b = 0;
                    for (const auto& e : fs::recursive_directory_iterator(repo)) {
                      if (e.is_regular_file()) b += e.file_size();
                    }
                    return b;
                  }()) / 1048576.0);
    report.notes.emplace_back(buf);
  }

  const std::string r = repo.string();
  const auto& planted = lineage.plan.planted_inner;
  auto diagnosed = [&](const std::string& out) {
    return std::all_of(planted.begin(), planted.end(),
                       [&](const std::string& e) { return contains(out, e); }) &&
           contains(out, "LoadImbalance");
  };

  if (cfg.trace) {
    trace_overhead(report, [&] {
      pkx({r, "explain", kApp, kLineage, version_name(1)});
    }, 2);
    ProbeInputs in;
    in.top = make_plan({cfg.upload_events, cfg.repo_threads, true}, cfg.seed);
    in.half = make_plan({cfg.upload_events / 2, cfg.repo_threads, true},
                        cfg.seed);
    in.stored = lineage.plan;
    in.upload_file = hotfix;
    in.repo_dir = repo;
    in.app = kApp;
    in.exp = kLineage;
    in.trial = version_name(lineage.versions - 1);
    in.base = version_name(lineage.versions - 2);
    in.analysis = lineage.plan;
    in.import_file = hotfix;
    probe_layers(cfg, in, report);
    return;
  }

  // One cycle is every subcommand once, in a seeded order, each on a
  // seeded version.
  const std::vector<std::string> kinds = {
      "list", "show", "history", "explain", "report", "diff",
      "import", "prune", "rules-profile"};
  Kinds reads;
  Kinds writes;
  double cells = 0.0;
  pk::Rng rng(cfg.seed ^ 0xc11ULL);
  const auto t0 = Clock::now();
  do {
    auto order = kinds;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_int(0, i - 1)]);
    }
    for (const auto& kind : order) {
      const std::size_t v = static_cast<std::size_t>(
          rng.uniform_int(1, lineage.versions - 1));
      const std::string ver = version_name(v);
      Pkx p;
      bool ok = false;
      bool write = false;
      if (kind == "list") {
        p = pkx({r, "list"});
        ok = p.rc == 0 && contains(p.out, version_name(lineage.versions - 1));
      } else if (kind == "show") {
        p = pkx({r, "show", kApp, kLineage, ver});
        ok = p.rc == 0 && contains(p.out, "trial " + ver + " ");
      } else if (kind == "history") {
        p = pkx({r, "history", kApp, kLineage});
        ok = p.rc == 0 && contains(p.out, version_name(lineage.versions - 1));
      } else if (kind == "explain") {
        p = pkx({r, "explain", kApp, kLineage, ver});
        ok = p.rc == 0 && diagnosed(p.out);
      } else if (kind == "report") {
        p = pkx({r, "report", kApp, kLineage, ver});
        ok = p.rc == 0 && diagnosed(p.out);
      } else if (kind == "diff") {
        p = pkx({r, "diff", kApp, kLineage, version_name(v - 1), ver});
        ok = p.rc == (lineage.regressed.count(v) != 0 ? 3 : 0);
      } else if (kind == "import") {
        p = pkx({r, "import", hotfix.string(), kApp, "patches"});
        ok = p.rc == 0;
        write = true;
        cells += static_cast<double>(hot_plan.names.size() *
                                     hot_plan.shape.threads *
                                     metric_names(hot_plan.shape).size());
      } else if (kind == "prune") {
        p = pkx({r, "prune", kApp, kLineage, "--keep", "100"});
        ok = p.rc == 0 && contains(p.out, "pruned 0 version(s)");
        write = true;
      } else {
        p = pkx({r, "rules-profile", kApp, kLineage, ver});
        ok = p.rc == 0 && contains(p.out, "stored profile as");
        write = true;
      }
      report.op(ok, kind + " " + ver + ": rc " + std::to_string(p.rc) + " " +
                        p.out.substr(0, 160));
      (write ? writes : reads).add(kind, p.ms);
    }
  } while (seconds_since(t0) < cfg.seconds);

  // The imported trial reopens with the generator's cell sums.
  {
    const auto attached = pk::perfdmf::Repository::attach(repo);
    report.op(same_sums(cell_sums(*attached.get(kApp, "patches", "hotfix")),
                        hot_sums) &&
                  attached.history(kApp, kLineage).size() >= lineage.versions,
              "imported hotfix trial does not reopen with its cell sums");
  }
  const double busy_s = (reads.sum() + writes.sum()) / 1e3;
  report.set("ops_per_s",
             static_cast<double>(reads.count() + writes.count()) / busy_s,
             "1/s");
  report.set("cells_per_s", cells / (writes.of("import").sum() / 1e3),
             "cells/s");
  report.set_typical("query_ms_p50", reads, "ms");
  report.set_typical("update_ms_p50", writes, "ms");
  for (const auto& kind : kinds) {
    const auto& s = (reads.has(kind) ? reads : writes).of(kind);
    report.set("pkx." + kind + "_ms", s.median(), "ms", s.count());
  }
}

// ---- serve ----------------------------------------------------------------

namespace {

struct Exchange {
  std::string method;
  std::string experiment;
  std::string trial;  ///< analyzed / uploaded / diff current
  std::string base;   ///< diff base
  std::size_t variant = 0;
  bool json = false;  ///< upload body format
  bool expect_regression = false;
  double ms = 0.0;
  pk::server::Client::Response response;
};

std::string params(std::initializer_list<std::pair<const char*, std::string>> kv) {
  std::string s = "{";
  for (const auto& [k, v] : kv) {
    if (s.size() > 1) s += ",";
    s += "\"" + std::string(k) + "\":\"" + v + "\"";
  }
  return s + "}";
}

std::vector<std::string> lines_of(const pk::server::Client::Response& r) {
  std::vector<std::string> out;
  for (const auto& e : r.events) out.push_back(e.line);
  return out;
}

/// The lines the daemon streams for `ds`: each diagnosis, then its proof
/// tree.
std::vector<std::string> expected_lines(
    const std::string& id, const std::vector<pk::rules::Diagnosis>& ds) {
  std::vector<std::string> out;
  for (const auto& d : ds) {
    out.push_back(pk::server::wire::diagnosis_line(id, d));
    if (d.provenance) {
      out.push_back(pk::server::wire::explanation_line(id, *d.provenance));
    }
  }
  return out;
}

/// "" when the streams match, else where they first differ.
std::string first_difference(const std::vector<std::string>& got,
                             const std::vector<std::string>& want) {
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    const std::string g = i < got.size() ? got[i] : "<end>";
    const std::string w = i < want.size() ? want[i] : "<end>";
    if (g != w) {
      std::size_t at = 0;
      while (at < g.size() && at < w.size() && g[at] == w[at]) ++at;
      const std::size_t from = at > 40 ? at - 40 : 0;
      return "line " + std::to_string(i) + " differs from the in-process "
             "result: got ..." + g.substr(from, 120) + " want ..." +
             w.substr(from, 120);
    }
  }
  return "";
}

/// The request id a response echoes on every line ("" when it streamed
/// no lines before its terminal one).
std::string id_of(const pk::server::Client::Response& r) {
  if (r.events.empty()) return "";
  const auto v = pk::json::parse(r.events.front().line);
  const auto* id = v.find("id");
  return id != nullptr ? id->text : "";
}

}  // namespace

void run_serve(const Config& cfg, Report& report) {
  const Lineage lineage = make_lineage(cfg);
  const fs::path repo = cfg.work / "repo";
  const fs::path socket = cfg.work / "pk.sock";
  const Plan body_plan =
      make_plan({cfg.upload_events, cfg.repo_threads, true}, cfg.seed + 11);
  constexpr std::size_t kVariants = 4;  // the last one plants a regression
  auto body = [&](std::size_t variant, bool json) {
    return cfg.work / ("body" + std::to_string(variant) +
                       (json ? ".json" : ".pkb"));
  };
  auto variant_trial = [&](std::size_t j) {
    return build_trial(body_plan, cfg.seed * 100 + j, "upload",
                       j + 1 == kVariants ? 1.8 : 1.0);
  };

  std::unique_ptr<pk::server::Server> server;
  timed_setup(cfg, report, [&](bool last) {
    server.reset();
    run_in_child([&] {
      fs::remove_all(cfg.work);
      fs::create_directories(cfg.work);
      write_lineage(lineage, repo);
      for (std::size_t j = 0; j < kVariants; ++j) {
        const auto t = variant_trial(j);
        pk::io::save_trial(t, body(j, false), "pkb");
        pk::io::save_trial(t, body(j, true), "json");
      }
    });
    pk::server::ServerOptions opts;
    opts.socket_path = socket;
    opts.repository_dir = repo;
    // One worker per client: requests never queue behind another
    // client's, so round trips measure the work, not the phase alignment
    // of the closed loops.
    opts.workers = cfg.clients;
    server = std::make_unique<pk::server::Server>(opts);
    // Every client's experiment starts with version 0.
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      pk::server::Client client(socket);
      const auto r = client.upload_file(kApp, "client" + std::to_string(c),
                                        body(0, false), "c" + std::to_string(c) + "-0");
      if (!r.ok()) throw std::runtime_error("seed upload failed: " + r.error_message);
    }
    if (!last) server.reset();
  });
  std::vector<std::vector<double>> variant_sums;
  std::size_t body_cells = 0;
  for (std::size_t j = 0; j < kVariants; ++j) {
    const auto t = variant_trial(j);
    variant_sums.push_back(cell_sums(t));
    body_cells = t.thread_count() * t.event_count() * t.metric_count();
  }
  note_plan(report, "repository trial", lineage.plan);
  note_plan(report, "upload body", body_plan);

  if (cfg.trace) {
    trace_overhead(report, [&] {
      pk::server::Client client(socket);
      (void)client.call("analyze", params({{"application", kApp},
                                           {"experiment", kLineage},
                                           {"trial", version_name(1)}}));
    }, 3);
    ProbeInputs in;
    in.top = body_plan;
    in.half = make_plan({cfg.upload_events / 2, cfg.repo_threads, true},
                        cfg.seed + 11);
    in.stored = lineage.plan;
    in.repo_dir = repo;
    in.app = kApp;
    in.exp = kLineage;
    in.trial = version_name(lineage.versions - 1);
    in.base = version_name(lineage.versions - 2);
    in.analysis = lineage.plan;
    in.server = server.get();
    in.socket = socket;
    in.upload_file = body(0, false);
    probe_layers(cfg, in, report);
    server.reset();
    return;
  }

  // Closed loop: each client sends its next request when the previous
  // one's terminal line arrives.
  std::vector<std::vector<Exchange>> logs(cfg.clients);
  std::vector<std::string> errors(cfg.clients);
  std::vector<double> elapsed(cfg.clients, 0.0);
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        const std::string exp = "client" + std::to_string(c);
        const std::string prefix = "c" + std::to_string(c) + "-";
        pk::Rng rng(cfg.seed * 7 + c);
        auto client = std::make_unique<pk::server::Client>(socket);
        std::uintmax_t sent = 0;
        auto& log = logs[c];
        auto timed = [&](Exchange x, const std::function<
                                         pk::server::Client::Response()>& send) {
          const auto s = Clock::now();
          x.response = send();
          x.ms = seconds_since(s) * 1e3;
          log.push_back(std::move(x));
        };
        for (std::size_t i = 1;; ++i) {
          const std::size_t j = i % kVariants;
          const bool json = i % 2 == 0;
          const auto file = body(j, json);
          // A connection may upload client_byte_budget bytes in total;
          // reconnect before crossing it.
          const auto size = fs::file_size(file);
          if (sent + size > pk::server::ServerOptions{}.client_byte_budget) {
            client = std::make_unique<pk::server::Client>(socket);
            sent = 0;
          }
          sent += size;
          const std::string ver = prefix + std::to_string(i);
          const std::string prev = prefix + std::to_string(i - 1);
          Exchange up;
          up.method = "upload";
          up.experiment = exp;
          up.trial = ver;
          up.variant = j;
          up.json = json;
          timed(up, [&] { return client->upload_file(kApp, exp, file, ver); });
          Exchange an;
          an.method = "analyze";
          an.experiment = exp;
          an.trial = ver;
          timed(an, [&] {
            return client->call("analyze", params({{"application", kApp},
                                                   {"experiment", exp},
                                                   {"trial", ver}}));
          });
          Exchange df;
          df.method = "diff";
          df.experiment = exp;
          df.base = prev;
          df.trial = ver;
          df.expect_regression = j + 1 == kVariants;
          timed(df, [&] {
            return client->call("diff", params({{"application", kApp},
                                                {"experiment", exp},
                                                {"base", prev},
                                                {"current", ver}}));
          });
          Exchange st;
          st.method = "analyze";
          st.experiment = kLineage;
          st.trial = version_name(static_cast<std::size_t>(
              rng.uniform_int(0, lineage.versions - 1)));
          timed(st, [&] {
            return client->call("analyze", params({{"application", kApp},
                                                   {"experiment", kLineage},
                                                   {"trial", st.trial}}));
          });
          // Stop after whole PKB+JSON pairs, so every client's mix is
          // the same.
          if (json && seconds_since(t0) >= cfg.seconds) break;
        }
        elapsed[c] = seconds_since(t0);
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();

  // Verify every response against the same analysis run in-process on
  // the daemon's own repository (no request is in flight any more).
  Samples rtt;
  Kinds queries;
  Kinds uploads;
  std::map<std::string, Samples> by_method;
  double cells = 0.0;
  std::map<std::string, std::vector<pk::rules::Diagnosis>> analyzed;
  {
    std::shared_lock<std::shared_mutex> lock(server->repository_mutex());
    const auto& store = server->repository();
    for (std::size_t c = 0; c < cfg.clients; ++c) {
      if (!errors[c].empty()) report.op(false, "client: " + errors[c]);
      for (const auto& x : logs[c]) {
        rtt.add(x.ms);
        by_method[x.method].add(x.ms);
        const auto& r = x.response;
        const std::string what = x.method + " " + x.experiment + "/" + x.trial;
        if (!r.ok()) {
          report.op(false, what + ": " + r.error_message);
          continue;
        }
        const std::string id = id_of(r);
        bool ok = true;
        std::string detail = "cell sums differ from the generator's";
        if (x.method == "upload") {
          uploads.add(x.json ? "json" : "pkb", x.ms);
          cells += static_cast<double>(body_cells);
          ok = same_sums(cell_sums(*store.get(kApp, x.experiment, x.trial)),
                         variant_sums[x.variant]);
        } else if (x.method == "analyze") {
          queries.add(x.experiment == kLineage ? "analyze_stored"
                                               : "analyze_upload",
                      x.ms);
          const std::string key = x.experiment + "/" + x.trial;
          auto it = analyzed.find(key);
          if (it == analyzed.end()) {
            pk::rules::RuleHarness h;
            pk::server::AnalyzeParams p;
            p.application = kApp;
            p.experiment = x.experiment;
            p.trial = x.trial;
            it = analyzed.emplace(key, pk::server::run_analysis(store, p, {}, h))
                     .first;
          }
          const auto& planted = x.experiment == kLineage
                                    ? lineage.plan.planted_inner
                                    : body_plan.planted_inner;
          for (const auto& e : planted) {
            ok = ok && std::any_of(it->second.begin(), it->second.end(),
                                   [&](const pk::rules::Diagnosis& d) {
                                     return d.problem == "LoadImbalance" &&
                                            d.event == e;
                                   });
          }
          if (!ok) detail = "planted loops not diagnosed";
          if (ok) {
            detail = first_difference(lines_of(r),
                                      expected_lines(id, it->second));
            ok = detail.empty();
          }
        } else {
          queries.add("diff", x.ms);
          pk::rules::RuleHarness h;
          pk::server::DiffParams p;
          p.application = kApp;
          p.experiment = x.experiment;
          p.base = x.base;
          p.current = x.trial;
          const auto outcome = pk::server::run_diff(store, p, h);
          if (outcome.regression != x.expect_regression ||
              !contains(r.result, std::string("\"regression\":") +
                                      (x.expect_regression ? "true" : "false"))) {
            ok = false;
            detail = "regression verdict " + r.result;
          } else {
            detail = first_difference(
                lines_of(r), expected_lines(id, outcome.diagnoses));
            ok = detail.empty();
          }
        }
        report.op(ok, what + ": " + detail);
      }
    }
  }
  const auto stats = server->stats();
  server.reset();

  // Requests per second over all connections: each client's own rate,
  // summed, so clients that finish their last cycle early do not dilute
  // it.
  double rps = 0.0;
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    if (elapsed[c] > 0.0) {
      rps += static_cast<double>(logs[c].size()) / elapsed[c];
    }
  }
  report.set("ops_per_s", rps, "1/s");
  report.set("cells_per_s", cells / (uploads.sum() / 1e3), "cells/s");
  report.set_typical("query_ms_p50", queries, "ms");
  report.set_typical("update_ms_p50", uploads, "ms");
  for (const char* f : {"pkb", "json"}) {
    report.set(std::string("server.upload_") + f + "_ms_p50",
               uploads.of(f).median(), "ms", uploads.of(f).count());
  }
  report.set_median("rtt_ms_p50", rtt, "ms");
  for (const auto& [m, s] : by_method) {
    report.set("server." + m + "_ms_p50", s.median(), "ms", s.count());
  }
  report.set("server.rejected",
             static_cast<double>(stats.rejected_overload + stats.rejected_budget),
             "count");
}

const std::vector<std::string>& end_to_end_metrics() {
  static const std::vector<std::string> k = {
      "setup_s",     "peak_rss_mb",  "ops_per_s",
      "cells_per_s", "query_ms_p50", "update_ms_p50"};
  return k;
}

}  // namespace perfbench
