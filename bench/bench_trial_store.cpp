// Trial-store benchmark: text (PKPROF) parse vs binary columnar (PKB)
// load, lazy PKB open, cold vs LRU-warm repository reads, and bulk
// directory ingest at 1 vs 8 worker threads.
//
// The headline trial is the ISSUE's 10k-event x 256-thread cube (one
// metric, ~82 MB of column data), written once per process to a temp
// directory; the ingest benchmarks use a directory of 16 smaller trials
// so a single iteration stays under a second.
//
// BM_ColdLoadText vs BM_ColdLoadPkb is the gated pair: ci/check_bench.py
// --require-speedup asserts PKB loads the same fully verified cube at
// least 5x faster than the text parser. BM_OpenPkbView (named for the
// view type it used to time) shows the lazy path the repository cache
// actually uses: mmap + schema and summary checksums + one strided
// series read, with the columns left in the mapping. BM_VerifyColumns is
// the full check a verified repository read adds on top (the COLS CRC
// plus the SUMM recompute) over a borrowed 2000-event x 64-thread x
// 8-metric trial,
// and BM_Crc32/16MiB the raw checksum rate. BM_OpenText/{json,csv,tau}
// open one text profile of perfbench's ingest top-rung shape (2800
// events x 64 threads, one metric, full-precision values) through
// io::open_trial, one reader each; BM_SaveText/{json,csv,tau,pkprof}
// write that trial in each text format (io::save_trial, and
// write_tau_profiles for the TAU directory).
//
// Run with --benchmark_format=json --benchmark_out=... for the CI
// artifact.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/thread_pool.hpp"
#include "io/format.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/repository.hpp"
#include "perfdmf/snapshot.hpp"
#include "perfdmf/tau_format.hpp"
#include "profile/profile.hpp"

namespace {

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::profile::Trial;

constexpr std::size_t kEvents = 10000;
constexpr std::size_t kThreads = 256;

/// `metrics` metrics (TIME, then M1, M2, ...) holding the same values.
Trial make_cube(const std::string& name, std::size_t events,
                std::size_t threads, std::size_t metrics = 1) {
  Trial t(name);
  t.set_thread_count(threads);
  t.add_metric("TIME", "usec");
  for (std::size_t m = 1; m < metrics; ++m) {
    t.add_metric("M" + std::to_string(m));
  }
  std::vector<std::size_t> ids;
  ids.reserve(events);
  for (std::size_t e = 0; e < events; ++e) {
    // A shallow callpath forest: every 16th event starts a new root.
    const auto parent =
        (e % 16 == 0) ? pk::profile::kNoEvent : ids[e - e % 16];
    ids.push_back(t.add_event("ev" + std::to_string(e), parent, "LOOP"));
  }
  for (std::size_t th = 0; th < threads; ++th) {
    for (std::size_t e = 0; e < events; ++e) {
      // Short decimal values keep the text snapshot compact and cheap
      // to format; the parse cost under test is per-cell, not per-digit.
      const double v = static_cast<double>((e * threads + th) % 1000);
      for (pk::profile::MetricId m = 0; m < metrics; ++m) {
        t.set_inclusive(th, ids[e], m, v + 1.0);
        t.set_exclusive(th, ids[e], m, v);
      }
      t.set_calls(th, ids[e], 1 + e % 7, e % 3);
    }
  }
  return t;
}

/// A cube of the ingest top rung's shape whose values need all 17
/// significant digits, as measured profiles do.
Trial make_ladder() {
  Trial t = make_cube("ladder", 2800, 64);
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      const double v = t.exclusive(th, e, 0) * 1.0371 + 0.1;
      t.set_inclusive(th, e, 0, v * 3.3);
      t.set_exclusive(th, e, 0, v);
    }
  }
  return t;
}

/// Writes the benchmark fixtures once per process and cleans them up at
/// exit: the big cube as .pkprof and .pkb, the ingest ladder's top rung
/// as JSON, CSV and a TAU directory, plus a 16-trial repository
/// directory for the ingest benchmarks.
struct Fixture {
  fs::path dir;
  fs::path text_file;
  fs::path pkb_file;
  fs::path metrics_file;
  fs::path repo_dir;
  fs::path ladder_json;
  fs::path ladder_csv;
  fs::path ladder_tau;
  Trial ladder = make_ladder();

  Fixture() {
    dir = fs::temp_directory_path() /
          ("perfknow_bench_store_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const Trial cube = make_cube("cube", kEvents, kThreads);
    text_file = dir / "cube.pkprof";
    pkb_file = dir / "cube.pkb";
    pk::io::save_trial(cube, text_file);
    pk::io::save_trial(cube, pkb_file);
    ladder_json = dir / "ladder.json";
    ladder_csv = dir / "ladder.csv";
    ladder_tau = dir / "ladder";
    pk::io::save_trial(ladder, ladder_json);
    pk::io::save_trial(ladder, ladder_csv);
    pk::perfdmf::write_tau_profiles(ladder, "TIME", ladder_tau);
    metrics_file = dir / "metrics.pkb";
    pk::io::save_trial(make_cube("metrics", 2000, 64, 8), metrics_file);

    pk::perfdmf::Repository repo;
    for (int i = 0; i < 16; ++i) {
      repo.put("app", "exp",
               std::make_shared<Trial>(
                   make_cube("t" + std::to_string(i), 2000, 64)));
    }
    repo_dir = dir / "repo";
    repo.save(repo_dir);
  }

  ~Fixture() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  static const Fixture& get() {
    static Fixture f;
    return f;
  }
};

void BM_ColdLoadText(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state) {
    Trial t = pk::io::open_trial(f.text_file, "pkprof");
    benchmark::DoNotOptimize(t.thread_count());
  }
  state.counters["cells"] = static_cast<double>(kEvents * kThreads);
}

void BM_ColdLoadPkb(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state) {
    Trial t = pk::io::open_trial(f.pkb_file, "pkb");
    benchmark::DoNotOptimize(t.thread_count());
  }
  state.counters["cells"] = static_cast<double>(kEvents * kThreads);
}

void BM_OpenPkbView(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state) {
    const Trial view = pk::perfdmf::open_pkb(f.pkb_file);
    // One strided series read proves the mapping is live without
    // touching the other 10k columns.
    const auto series = view.inclusive_series(kEvents / 2, 0);
    double sum = 0.0;
    for (std::size_t i = 0; i < series.size(); ++i) sum += series[i];
    benchmark::DoNotOptimize(sum);
  }
}

void BM_VerifyColumns(benchmark::State& state) {
  const auto& f = Fixture::get();
  const Trial view = pk::perfdmf::open_pkb(f.metrics_file);
  for (auto _ : state) pk::perfdmf::verify_pkb_columns(view);
  const auto bytes = static_cast<std::int64_t>(
      view.column_count() * view.thread_count() * view.event_count() *
      sizeof(double));
  state.SetBytesProcessed(state.iterations() * bytes);
}

void BM_Crc32(benchmark::State& state, std::size_t bytes) {
  std::vector<unsigned char> buf(bytes);
  std::uint32_t x = 1;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pk::crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}

void BM_RepoGetCold(benchmark::State& state) {
  const auto& f = Fixture::get();
  for (auto _ : state) {
    const auto repo = pk::perfdmf::Repository::attach(f.repo_dir);
    const auto t = repo.get("app", "exp", "t7");
    benchmark::DoNotOptimize(t->thread_count());
  }
}

void BM_RepoGetWarm(benchmark::State& state) {
  const auto& f = Fixture::get();
  const auto repo = pk::perfdmf::Repository::attach(f.repo_dir);
  (void)repo.get("app", "exp", "t7");  // prime the cache
  for (auto _ : state) {
    const auto t = repo.get("app", "exp", "t7");
    benchmark::DoNotOptimize(t->thread_count());
  }
}

void BM_OpenText(benchmark::State& state, const char* format) {
  const auto& f = Fixture::get();
  const fs::path& file = std::string(format) == "json" ? f.ladder_json
                         : std::string(format) == "csv" ? f.ladder_csv
                                                        : f.ladder_tau;
  for (auto _ : state) {
    Trial t = pk::io::open_trial(file);
    benchmark::DoNotOptimize(t.thread_count());
  }
  state.counters["cells"] = 2800.0 * 64.0;
}

void BM_SaveText(benchmark::State& state, const char* format) {
  const auto& f = Fixture::get();
  const fs::path out = f.dir / (std::string("saved.") + format);
  for (auto _ : state) {
    if (std::string(format) == "tau") {
      pk::perfdmf::write_tau_profiles(f.ladder, "TIME", out);
    } else {
      pk::io::save_trial(f.ladder, out);
    }
  }
  state.counters["cells"] = 2800.0 * 64.0;
}

void BM_BulkIngest(benchmark::State& state) {
  const auto& f = Fixture::get();
  pk::ThreadPool pool(static_cast<std::size_t>(state.range(0)) - 1);
  for (auto _ : state) {
    const auto repo = pk::perfdmf::Repository::load(f.repo_dir, pool);
    benchmark::DoNotOptimize(repo.trial_count());
  }
  state.counters["trials"] = 16;
}

BENCHMARK(BM_ColdLoadText)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdLoadPkb)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OpenPkbView)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VerifyColumns)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Crc32, 16MiB, std::size_t{16} << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RepoGetCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RepoGetWarm)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OpenText, json, "json")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OpenText, csv, "csv")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OpenText, tau, "tau")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SaveText, json, "json")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SaveText, csv, "csv")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SaveText, tau, "tau")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SaveText, pkprof, "pkprof")
    ->Unit(benchmark::kMillisecond);
// range(0) is total threads doing the ingest: the caller alone, or the
// caller plus seven pool workers.
BENCHMARK(BM_BulkIngest)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
