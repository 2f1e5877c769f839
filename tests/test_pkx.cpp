// Drives the pkx CLI (tools::pkx_main) end to end against in-memory
// streams: the exit-code contract (0 ok / 1 error / 2 usage / 3
// regression), per-subcommand usage on bad arguments, and the
// bench2pkb -> diff -> history dogfood loop the CI perf gate runs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfdmf/repository.hpp"
#include "profile/profile.hpp"
#include "provenance/explanation.hpp"
#include "tools/pkx_cli.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;

namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_pkx_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
  static inline int counter_ = 0;
};

struct PkxResult {
  int code = 0;
  std::string out;
  std::string err;
};

PkxResult pkx(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = pk::tools::pkx_main(args, out, err);
  return {code, out.str(), err.str()};
}

/// Writes a Google-Benchmark JSON document with the given per-benchmark
/// times (microseconds) and returns its path.
fs::path write_bench_json(
    const fs::path& file,
    const std::vector<std::pair<std::string, double>>& benchmarks) {
  std::ofstream os(file);
  os << "{\n  \"context\": {\"host_name\": \"ci\"},\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    os << "    {\"name\": \"" << benchmarks[i].first
       << "\", \"run_type\": \"iteration\", \"iterations\": 100,"
       << " \"real_time\": " << benchmarks[i].second
       << ", \"cpu_time\": " << benchmarks[i].second
       << ", \"time_unit\": \"us\"}";
    os << (i + 1 < benchmarks.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return file;
}

/// Seeds a repository directory with versions v1 (baseline) and v2
/// (identical or with one benchmark slowed by `slowdown`).
void seed_history(const fs::path& repo, const fs::path& scratch,
                  double slowdown) {
  const auto base = write_bench_json(
      scratch / "base.json",
      {{"BM_Parse", 120.0}, {"BM_Match", 45.0}, {"BM_Assert", 8.0}});
  const auto cur = write_bench_json(
      scratch / "cur.json", {{"BM_Parse", 120.0 * slowdown},
                             {"BM_Match", 45.0},
                             {"BM_Assert", 8.0}});
  ASSERT_EQ(pkx({repo.string(), "bench2pkb", "perfknow", "bench", "v1",
                 base.string()})
                .code,
            0);
  ASSERT_EQ(pkx({repo.string(), "bench2pkb", "perfknow", "bench", "v2",
                 cur.string()})
                .code,
            0);
}

}  // namespace

TEST(PkxUsage, UnknownAndMissingArgsExitTwoWithSubcommandUsage) {
  const auto none = pkx({});
  EXPECT_EQ(none.code, 2);
  EXPECT_NE(none.err.find("usage:"), std::string::npos);

  TempDir dir;
  // Unknown subcommand on a real repository: full usage.
  pk::perfdmf::Repository().save(dir.path());
  const auto unknown = pkx({dir.path().string(), "frobnicate"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("pkx <repo-dir> list"), std::string::npos);

  // Wrong arity: the failing subcommand's usage only.
  const auto diff = pkx({dir.path().string(), "diff", "app"});
  EXPECT_EQ(diff.code, 2);
  EXPECT_NE(diff.err.find("diff <app> <exp> <base> <current>"),
            std::string::npos);
  EXPECT_EQ(diff.err.find("export-csv"), std::string::npos);

  const auto hist = pkx({dir.path().string(), "history", "app"});
  EXPECT_EQ(hist.code, 2);
  EXPECT_NE(hist.err.find("history <app> <exp>"), std::string::npos);

  const auto prune = pkx({dir.path().string(), "prune", "a", "b"});
  EXPECT_EQ(prune.code, 2);
  EXPECT_NE(prune.err.find("--keep <n>"), std::string::npos);

  // Bad flag values are usage errors, not uncaught parse exceptions.
  const auto band = pkx({dir.path().string(), "diff", "a", "b", "v1",
                         "v2", "--band", "wide"});
  EXPECT_EQ(band.code, 2);
  EXPECT_NE(band.err.find("--band must be a positive number"),
            std::string::npos);
  // A band of zero would classify every cell as both regressed and
  // improved; zero and negative get the same diagnostic as non-numeric.
  for (const char* bad : {"0", "-0.25"}) {
    const auto r = pkx({dir.path().string(), "diff", "a", "b", "v1", "v2",
                        "--band", bad});
    EXPECT_EQ(r.code, 2) << bad;
    EXPECT_NE(r.err.find("--band must be a positive number"),
              std::string::npos)
        << r.err;
  }
  const auto keep = pkx(
      {dir.path().string(), "prune", "a", "b", "--keep", "lots"});
  EXPECT_EQ(keep.code, 2);
}

TEST(PkxErrors, PerfknowErrorsExitOneWithMessage) {
  TempDir dir;
  pk::perfdmf::Repository().save(dir.path());
  const auto missing =
      pkx({dir.path().string(), "show", "nope", "nope", "nope"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("pkx: "), std::string::npos);
  EXPECT_NE(missing.err.find("nope"), std::string::npos);

  const auto no_repo = pkx(
      {(dir.path() / "absent").string(), "list"});
  EXPECT_EQ(no_repo.code, 1);
}

TEST(PkxDiff, IdenticalVersionsPassAndPlantedRegressionFails) {
  TempDir repo;
  TempDir scratch;
  seed_history(repo.path(), scratch.path(), 1.0);

  const auto same = pkx({repo.path().string(), "diff", "perfknow",
                         "bench", "v1", "v2"});
  EXPECT_EQ(same.code, 0) << same.err;
  EXPECT_NE(same.out.find("WithinNoiseBand"), std::string::npos);
  EXPECT_NE(same.out.find("0 regressed"), std::string::npos);

  TempDir repo2;
  TempDir scratch2;
  seed_history(repo2.path(), scratch2.path(), 2.0);
  const auto json = repo2.path() / "explanations.json";
  const auto bad =
      pkx({repo2.path().string(), "diff", "perfknow", "bench", "v1", "v2",
           "--json", json.string()});
  EXPECT_EQ(bad.code, 3) << bad.out;
  EXPECT_NE(bad.out.find("MetricRegression"), std::string::npos);
  EXPECT_NE(bad.out.find("BM_Parse"), std::string::npos);
  // The proof tree bottoms out in both versions' raw columns.
  EXPECT_NE(bad.out.find("raw column of trial 'v1'"), std::string::npos);
  EXPECT_NE(bad.out.find("raw column of trial 'v2'"), std::string::npos);

  // The exported artifact re-parses into the same number of
  // explanations (the CI gate uploads this file).
  std::ifstream is(json);
  ASSERT_TRUE(is.is_open());
  std::ostringstream ss;
  ss << is.rdbuf();
  const auto explanations =
      pk::provenance::explanations_from_json(ss.str());
  EXPECT_FALSE(explanations.empty());

  // And explain --from renders it, exit 0.
  const auto from = pkx({"explain", "--from", json.string()});
  EXPECT_EQ(from.code, 0);
  EXPECT_NE(from.out.find("explanations"), std::string::npos);
}

TEST(PkxDiff, MetricAndBandFlagsNarrowTheComparison) {
  TempDir repo;
  TempDir scratch;
  seed_history(repo.path(), scratch.path(), 2.0);

  // A band wide enough to swallow a 2x swing: gate passes.
  const auto wide = pkx({repo.path().string(), "diff", "perfknow",
                         "bench", "v1", "v2", "--band", "9.0"});
  EXPECT_EQ(wide.code, 0) << wide.out;

  const auto narrow =
      pkx({repo.path().string(), "diff", "perfknow", "bench", "v1", "v2",
           "--metric", "CPU_TIME"});
  EXPECT_EQ(narrow.code, 3);
  EXPECT_NE(narrow.out.find("CPU_TIME"), std::string::npos);
}

TEST(PkxHistory, ListsLineageWithPredecessorsAndRatios) {
  TempDir repo;
  TempDir scratch;
  seed_history(repo.path(), scratch.path(), 1.5);

  const auto hist =
      pkx({repo.path().string(), "history", "perfknow", "bench"});
  EXPECT_EQ(hist.code, 0) << hist.err;
  EXPECT_NE(hist.out.find("2 versions"), std::string::npos);
  EXPECT_NE(hist.out.find("v1"), std::string::npos);
  EXPECT_NE(hist.out.find("v2"), std::string::npos);
  // v2's row shows its predecessor and the vs-prev runtime ratio.
  EXPECT_NE(hist.out.find("x"), std::string::npos);

  // bench2pkb with an explicit --predecessor branches the chain.
  const auto branch = write_bench_json(scratch.path() / "b.json",
                                       {{"BM_Parse", 100.0}});
  ASSERT_EQ(pkx({repo.path().string(), "bench2pkb", "perfknow", "bench",
                 "v2b", branch.string(), "--predecessor", "v1"})
                .code,
            0);
  const auto again =
      pkx({repo.path().string(), "history", "perfknow", "bench"});
  EXPECT_NE(again.out.find("v2b"), std::string::npos);
  EXPECT_NE(again.out.find("3 versions"), std::string::npos);
}

TEST(PkxPrune, DropsOldVersionsAndOrphanedSnapshots) {
  TempDir repo;
  TempDir scratch;
  seed_history(repo.path(), scratch.path(), 1.0);

  const auto pruned = pkx(
      {repo.path().string(), "prune", "perfknow", "bench", "--keep", "1"});
  EXPECT_EQ(pruned.code, 0) << pruned.err;
  EXPECT_NE(pruned.out.find("pruned 1 version(s) (v1)"),
            std::string::npos);

  const auto hist =
      pkx({repo.path().string(), "history", "perfknow", "bench"});
  EXPECT_NE(hist.out.find("1 versions"), std::string::npos);
  EXPECT_EQ(hist.out.find("v1"), std::string::npos);

  // Every surviving .pkb is referenced by the fresh index.
  std::size_t pkbs = 0;
  for (const auto& entry :
       fs::recursive_directory_iterator(repo.path())) {
    if (entry.path().extension() == ".pkb") ++pkbs;
  }
  EXPECT_EQ(pkbs, 1u);
}

TEST(PkxImport, AutoDetectsBenchmarkJson) {
  TempDir repo;
  TempDir scratch;
  pk::perfdmf::Repository().save(repo.path());
  const auto file = write_bench_json(scratch.path() / "suite.json",
                                     {{"BM_A", 10.0}, {"BM_B", 20.0}});
  const auto imported = pkx({repo.path().string(), "import",
                             file.string(), "app", "exp"});
  EXPECT_EQ(imported.code, 0) << imported.err;

  const auto shown =
      pkx({repo.path().string(), "show", "app", "exp", "suite"});
  EXPECT_EQ(shown.code, 0) << shown.err;
  EXPECT_NE(shown.out.find("BM_A"), std::string::npos);
  EXPECT_NE(shown.out.find("bench.host_name"), std::string::npos);
}

TEST(PkxRulesProfile, ProfilesStoresAndDiagnosesAPlantedRule) {
  TempDir repo;
  TempDir scratch;
  ASSERT_EQ(pkx({"demo", repo.path().string()}).code, 0);

  // A rule whose residual (cv > x1 + 1e6) never holds: every pair of
  // LoadBalanceFacts is probed at level 2 and none survive, the
  // signature rules/rule_tuning.rules diagnoses as a join explosion.
  const auto planted = scratch.path() / "planted.rules";
  {
    std::ofstream os(planted);
    os << "rule \"Planted Cross Product\"\n"
          "when\n"
          "    a : LoadBalanceFact( x1 : cv )\n"
          "    b : LoadBalanceFact( )\n"
          "    c : LoadBalanceFact( cv > x1 + 1000000.0 )\n"
          "then\n"
          "end\n";
  }
  const auto json_file = scratch.path() / "explanations.json";

  const auto run = pkx({repo.path().string(), "rules-profile",
                        "Fluid Dynamic", "rib 90", "OpenMP_unopt_16p_O2",
                        "--rules", planted.string(), "--json",
                        json_file.string()});
  ASSERT_EQ(run.code, 0) << run.err;

  // The attribution table names the planted rule with its probe counts.
  EXPECT_NE(run.out.find("rules profile for Fluid Dynamic"),
            std::string::npos);
  EXPECT_NE(run.out.find("Planted Cross Product"), std::string::npos);
  EXPECT_NE(run.out.find("admissions"), std::string::npos);

  // The rule_tuning pass diagnoses it, with a proof tree grounded in
  // the profile facts, and exports the same diagnosis as JSON.
  EXPECT_NE(run.out.find("CombinatorialJoinExplosion"), std::string::npos);
  std::ifstream is(json_file);
  const std::string exported((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(exported.find("CombinatorialJoinExplosion"),
            std::string::npos);

  // The profile itself is a first-class trial in the repository.
  const auto listed = pkx({repo.path().string(), "list"});
  EXPECT_NE(listed.out.find("OpenMP_unopt_16p_O2-rules-profile"),
            std::string::npos);
  const auto shown =
      pkx({repo.path().string(), "show", "Fluid Dynamic", "rib 90",
           "OpenMP_unopt_16p_O2-rules-profile"});
  EXPECT_EQ(shown.code, 0) << shown.err;
  EXPECT_NE(shown.out.find("Planted Cross Product"), std::string::npos);
}

TEST(PkxRulesProfile, UsageAndErrorExits) {
  TempDir repo;
  pk::perfdmf::Repository().save(repo.path());

  // Missing positionals and dangling flags exit 2 with the usage line.
  const auto missing = pkx({repo.path().string(), "rules-profile", "app"});
  EXPECT_EQ(missing.code, 2);
  EXPECT_NE(missing.err.find("rules-profile"), std::string::npos);
  const auto dangling = pkx({repo.path().string(), "rules-profile", "app",
                             "exp", "trial", "--rules"});
  EXPECT_EQ(dangling.code, 2);

  // Unknown trial is an ordinary error: exit 1, message on stderr.
  const auto gone = pkx(
      {repo.path().string(), "rules-profile", "app", "exp", "trial"});
  EXPECT_EQ(gone.code, 1);
  EXPECT_FALSE(gone.err.empty());
}

// ---- lazy open: a command pays only for the trials it touches -----------

namespace {

/// The snapshot file index.tsv names for `trial`.
fs::path snapshot_of(const fs::path& repo, const std::string& trial) {
  std::ifstream index(repo / "index.tsv");
  std::string app, exp, name, rel;
  fs::path file;
  while (std::getline(index, app, '\t') && std::getline(index, exp, '\t') &&
         std::getline(index, name, '\t') && std::getline(index, rel)) {
    if (name == trial) file = repo / rel;
  }
  return file;
}

std::string read_bytes(const fs::path& file) {
  std::ifstream is(file, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

void write_bytes(const fs::path& file, const std::string& bytes) {
  std::ofstream os(file, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Header offset of the SUMM section of a PKB image, walking the section
/// chain; npos when there is none.
std::size_t summary_at(const std::string& bytes) {
  std::size_t pos = 8;
  while (pos + 16 <= bytes.size()) {
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos + 8, sizeof len);
    if (bytes.compare(pos, 4, "SUMM") == 0) return pos;
    pos += 16 + ((len + 7) & ~std::uint64_t{7});
  }
  return std::string::npos;
}

/// Flips one byte inside the COLS payload of `trial`'s snapshot (the last
/// 16 bytes are the end marker; the cube ends just before) and returns
/// the snapshot's path.
fs::path corrupt_columns(const fs::path& repo, const std::string& trial) {
  const fs::path file = snapshot_of(repo, trial);
  std::string bytes = read_bytes(file);
  bytes[bytes.size() - 32] ^= 0x01;
  write_bytes(file, bytes);
  return file;
}

/// Flips one byte inside the SUMM payload of `trial`'s snapshot and
/// returns the snapshot's path.
fs::path corrupt_summary(const fs::path& repo, const std::string& trial) {
  const fs::path file = snapshot_of(repo, trial);
  std::string bytes = read_bytes(file);
  bytes.at(summary_at(bytes) + 16) ^= 0x01;
  write_bytes(file, bytes);
  return file;
}

/// Rewrites every snapshot under `repo` without its SUMM section, as a
/// writer from before the section existed left it.
void strip_summaries(const fs::path& repo) {
  for (const auto& e : fs::recursive_directory_iterator(repo)) {
    if (e.path().extension() != ".pkb") continue;
    const std::string bytes = read_bytes(e.path());
    const std::size_t at = summary_at(bytes);
    ASSERT_NE(at, std::string::npos) << e.path();
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + at + 8, sizeof len);
    write_bytes(e.path(), bytes.substr(0, at) + bytes.substr(at + 16 + len));
  }
}

std::size_t count_pkbs(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.path().extension() == ".pkb") ++n;
  }
  return n;
}

}  // namespace

TEST(PkxLazyOpen, CorruptColumnsFailOnlyTheCommandsThatReadCells) {
  TempDir repo;
  TempDir scratch;
  seed_history(repo.path(), scratch.path(), 1.0);
  const auto v3 = write_bench_json(scratch.path() / "v3.json",
                                   {{"BM_Parse", 121.0},
                                    {"BM_Match", 45.0},
                                    {"BM_Assert", 8.0}});
  ASSERT_EQ(pkx({repo.path().string(), "bench2pkb", "perfknow", "bench",
                 "v3", v3.string()})
                .code,
            0);
  const std::string r = repo.path().string();
  const std::vector<std::vector<std::string>> aggregates = {
      {r, "show", "perfknow", "bench", "v2"},
      {r, "history", "perfknow", "bench"},
      {r, "diff", "perfknow", "bench", "v1", "v2"}};
  std::vector<PkxResult> before;
  for (const auto& args : aggregates) before.push_back(pkx(args));
  const fs::path bad = corrupt_columns(repo.path(), "v2");
  ASSERT_FALSE(bad.empty());

  // show, history and diff read v2's summary, never its columns: they
  // print exactly what they printed before the corruption.
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const auto res = pkx(aggregates[i]);
    EXPECT_EQ(res.code, before[i].code) << aggregates[i][1] << ": "
                                        << res.err;
    EXPECT_EQ(res.out, before[i].out) << aggregates[i][1];
  }
  const auto list = pkx({r, "list"});
  EXPECT_EQ(list.code, 0) << list.err;
  EXPECT_NE(list.out.find("v2"), std::string::npos);

  // Every command that reads v2's cells refuses, naming the file and
  // the COLS checksum.
  for (const auto& args : std::vector<std::vector<std::string>>{
           {r, "explain", "perfknow", "bench", "v2"},
           {r, "report", "perfknow", "bench", "v2"},
           {r, "export-csv", "perfknow", "bench", "v2", "TIME"}}) {
    const auto res = pkx(args);
    EXPECT_EQ(res.code, 1) << args[1] << ": " << res.out;
    EXPECT_NE(res.err.find("bad section checksum in 'COLS'"),
              std::string::npos)
        << res.err;
    EXPECT_NE(res.err.find("byte offset"), std::string::npos) << res.err;
    EXPECT_NE(res.err.find(bad.filename().string()), std::string::npos)
        << res.err;
  }

  // prune rewrites only the index, so it succeeds and still sweeps the
  // pruned versions' snapshots.
  const auto pruned = pkx({r, "prune", "perfknow", "bench", "--keep", "1"});
  EXPECT_EQ(pruned.code, 0) << pruned.err;
  EXPECT_NE(pruned.out.find("pruned 2 version(s) (v1, v2)"),
            std::string::npos)
      << pruned.out;
  EXPECT_NE(pruned.out.find("removed 2 orphaned snapshot(s)"),
            std::string::npos)
      << pruned.out;
  EXPECT_EQ(count_pkbs(repo.path()), 1u);
  EXPECT_EQ(pkx({r, "show", "perfknow", "bench", "v3"}).code, 0);
}

TEST(PkxLazyOpen, CorruptSummaryFailsTheCommandsThatReadIt) {
  TempDir repo;
  TempDir scratch;
  seed_history(repo.path(), scratch.path(), 1.0);
  const fs::path bad = corrupt_summary(repo.path(), "v2");
  const std::string r = repo.path().string();

  EXPECT_EQ(pkx({r, "show", "perfknow", "bench", "v1"}).code, 0);
  EXPECT_EQ(pkx({r, "list"}).code, 0);
  for (const auto& args : std::vector<std::vector<std::string>>{
           {r, "show", "perfknow", "bench", "v2"},
           {r, "history", "perfknow", "bench"},
           {r, "diff", "perfknow", "bench", "v1", "v2"},
           {r, "explain", "perfknow", "bench", "v2"}}) {
    const auto res = pkx(args);
    EXPECT_EQ(res.code, 1) << args[1] << ": " << res.out;
    EXPECT_NE(res.err.find("bad section checksum in 'SUMM'"),
              std::string::npos)
        << res.err;
    EXPECT_NE(res.err.find(bad.filename().string()), std::string::npos)
        << res.err;
  }
}

namespace {

/// Seeds `dir` with `versions` lineage versions of a trial at `threads`
/// threads with one TIME metric: main, an outer loop whose inner loop's
/// per-thread imbalance it absorbs at the barrier (which the OpenUH
/// rules diagnose), and `events` small loops.
void seed_lineage(const fs::path& dir, std::size_t versions,
                  std::size_t events, std::size_t threads) {
  pk::perfdmf::Repository repo;
  for (std::size_t v = 0; v < versions; ++v) {
    auto t = std::make_shared<pk::profile::Trial>("v" + std::to_string(v));
    t->set_thread_count(threads);
    const auto time = t->add_metric("TIME", "usec");
    const auto main = t->add_event("main", pk::profile::kNoEvent, "PROC");
    const auto outer = t->add_event("main => outer", main, "LOOP");
    const auto inner = t->add_event("main => outer => inner", outer, "LOOP");
    const double scale = 1.0 + 0.01 * static_cast<double>(v);
    for (std::size_t th = 0; th < threads; ++th) {
      const double work = scale * 10.0 * static_cast<double>(1 + th % 4);
      t->set_inclusive(th, inner, time, work);
      t->set_exclusive(th, inner, time, work);
      t->set_inclusive(th, outer, time, 50.0 * scale);
      t->set_exclusive(th, outer, time, 50.0 * scale - work);
      t->set_inclusive(th, main, time, 50.0 * scale);
      t->set_exclusive(th, main, time, 0.0);
    }
    for (std::size_t e = 0; e < events; ++e) {
      const auto id =
          t->add_event("main => loop" + std::to_string(e), main, "LOOP");
      for (std::size_t th = 0; th < threads; ++th) {
        const double x = 0.01 * scale * static_cast<double>(e % 17 + th % 3);
        t->set_inclusive(th, id, time, x);
        t->set_exclusive(th, id, time, x);
        t->set_calls(th, id, 1.0, 0.0);
        t->accumulate_inclusive(th, main, time, x);
      }
    }
    repo.put_version("app", "lineage", std::move(t));
  }
  repo.save(dir);
}

}  // namespace

// Snapshots written before SUMM existed keep opening and give identical
// output through the cell path.
TEST(PkxLegacySnapshots, OutputIsIdenticalWithoutTheSummary) {
  TempDir repo;
  seed_lineage(repo.path(), 3, 40, 8);
  const std::string r = repo.path().string();
  const std::vector<std::vector<std::string>> commands = {
      {r, "list"},
      {r, "show", "app", "lineage", "v1"},
      {r, "history", "app", "lineage"},
      {r, "diff", "app", "lineage", "v0", "v2"},
      {r, "explain", "app", "lineage", "v2"},
      {r, "report", "app", "lineage", "v2"}};
  std::vector<PkxResult> with_summary;
  for (const auto& args : commands) {
    with_summary.push_back(pkx(args));
    EXPECT_EQ(with_summary.back().code, 0)
        << args[1] << ": " << with_summary.back().err;
  }
  EXPECT_NE(with_summary[4].out.find("LoadImbalance"), std::string::npos)
      << with_summary[4].out;
  strip_summaries(repo.path());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    const auto res = pkx(commands[i]);
    EXPECT_EQ(res.code, with_summary[i].code) << commands[i][1];
    EXPECT_EQ(res.out, with_summary[i].out) << commands[i][1];
  }
}

// history reads one summary per version, so its cost grows with
// versions x events and not with the cube: 4x the threads must cost
// less than 2x (checksumming every cell, as history once did, costs
// ~4x).
TEST(Pkx, HistoryGrowsWithVersionsTimesEventsNotCells) {
  const auto history_ms = [](std::size_t threads) {
    TempDir repo;
    seed_lineage(repo.path(), 8, 500, threads);
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto res = pkx({repo.path().string(), "history", "app",
                            "lineage"});
      const std::chrono::duration<double, std::milli> ms =
          std::chrono::steady_clock::now() - t0;
      EXPECT_EQ(res.code, 0) << res.err;
      EXPECT_NE(res.out.find("8 versions"), std::string::npos) << res.out;
      if (rep == 0 || ms.count() < best) best = ms.count();
    }
    return best;
  };
  const double narrow = history_ms(64);
  const double wide = history_ms(256);
  EXPECT_LT(wide / narrow, 2.0)
      << "64 threads: " << narrow << " ms, 256 threads: " << wide << " ms";
}

TEST(PkxLazyOpen, ImportRewritesOnlyTheImportedSnapshot) {
  TempDir repo;
  TempDir scratch;
  seed_history(repo.path(), scratch.path(), 1.0);
  std::map<fs::path, fs::file_time_type> before;
  for (const auto& e : fs::recursive_directory_iterator(repo.path())) {
    if (e.path().extension() == ".pkb") {
      before[e.path()] = fs::last_write_time(e.path());
    }
  }
  ASSERT_EQ(before.size(), 2u);
  const auto file = write_bench_json(scratch.path() / "extra.json",
                                     {{"BM_A", 10.0}});
  ASSERT_EQ(pkx({repo.path().string(), "import", file.string(), "perfknow",
                 "extra"})
                .code,
            0);
  for (const auto& [path, mtime] : before) {
    ASSERT_TRUE(fs::exists(path)) << path;
    EXPECT_EQ(fs::last_write_time(path), mtime) << path;
  }
  EXPECT_EQ(count_pkbs(repo.path()), 3u);
}
