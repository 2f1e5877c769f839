// Trial-store benchmark: text (PKPROF) parse vs binary columnar (PKB)
// load, schema-only PKB open, cold vs LRU-warm repository reads, and bulk
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
// actually uses: mmap + schema verify + one strided series read, with
// the columns left in the mapping.
//
// Run with --benchmark_format=json --benchmark_out=... for the CI
// artifact.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "common/thread_pool.hpp"
#include "io/format.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/repository.hpp"
#include "perfdmf/snapshot.hpp"
#include "profile/profile.hpp"

namespace {

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::profile::Trial;

constexpr std::size_t kEvents = 10000;
constexpr std::size_t kThreads = 256;

Trial make_cube(const std::string& name, std::size_t events,
                std::size_t threads) {
  Trial t(name);
  t.set_thread_count(threads);
  const auto time = t.add_metric("TIME", "usec");
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
      t.set_inclusive(th, ids[e], time, v + 1.0);
      t.set_exclusive(th, ids[e], time, v);
      t.set_calls(th, ids[e], 1 + e % 7, e % 3);
    }
  }
  return t;
}

/// Writes the benchmark fixtures once per process and cleans them up at
/// exit: the big cube as .pkprof and .pkb, plus a 16-trial repository
/// directory for the ingest benchmarks.
struct Fixture {
  fs::path dir;
  fs::path text_file;
  fs::path pkb_file;
  fs::path repo_dir;

  Fixture() {
    dir = fs::temp_directory_path() /
          ("perfknow_bench_store_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const Trial cube = make_cube("cube", kEvents, kThreads);
    text_file = dir / "cube.pkprof";
    pkb_file = dir / "cube.pkb";
    pk::io::save_trial(cube, text_file);
    pk::io::save_trial(cube, pkb_file);

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
    const Trial view =
        pk::perfdmf::open_pkb(f.pkb_file, pk::perfdmf::Verify::kSchema);
    // One strided series read proves the mapping is live without
    // touching the other 10k columns.
    const auto series = view.inclusive_series(kEvents / 2, 0);
    double sum = 0.0;
    for (std::size_t i = 0; i < series.size(); ++i) sum += series[i];
    benchmark::DoNotOptimize(sum);
  }
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
BENCHMARK(BM_RepoGetCold)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RepoGetWarm)->Unit(benchmark::kMillisecond);
// range(0) is total threads doing the ingest: the caller alone, or the
// caller plus seven pool workers.
BENCHMARK(BM_BulkIngest)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
