// Tests for the PerfDMF layer: repository, snapshot format, TAU format.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/operations.hpp"
#include "common/error.hpp"
#include "common/file.hpp"
#include "perfdmf/index_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/repository.hpp"
#include "io/format.hpp"
#include "perfdmf/snapshot.hpp"
#include "common/thread_pool.hpp"
#include "perfdmf/tau_format.hpp"
#include "common/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::perfdmf::Repository;
using pk::profile::Trial;

namespace {

std::shared_ptr<Trial> make_trial(const std::string& name,
                                  std::size_t threads = 2) {
  auto t = std::make_shared<Trial>(name);
  t->set_thread_count(threads);
  const auto time = t->add_metric("TIME", "usec");
  const auto cyc = t->add_metric("CPU_CYCLES", "count");
  const auto main = t->add_event("main", pk::profile::kNoEvent, "PROC");
  const auto loop = t->add_event("main => loop", main, "LOOP");
  for (std::size_t th = 0; th < threads; ++th) {
    t->set_inclusive(th, main, time, 100.0 + static_cast<double>(th));
    t->set_exclusive(th, main, time, 10.0);
    t->set_inclusive(th, loop, time, 90.0 + static_cast<double>(th));
    t->set_exclusive(th, loop, time, 90.0 + static_cast<double>(th));
    t->set_inclusive(th, main, cyc, 1.5e8);
    t->set_calls(th, main, 1, 7);
    t->set_calls(th, loop, 7, 0);
  }
  t->set_metadata("schedule", "dynamic,1");
  t->set_metadata("weird key", "value\twith\ttabs\nand newline");
  return t;
}

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_test_" + std::to_string(::getpid()) + "_" +
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

}  // namespace

TEST(Repository, PutGetContainsErase) {
  Repository repo;
  repo.put("app", "exp", make_trial("t1"));
  EXPECT_TRUE(repo.contains("app", "exp", "t1"));
  EXPECT_FALSE(repo.contains("app", "exp", "t2"));
  EXPECT_EQ(repo.get("app", "exp", "t1")->name(), "t1");
  EXPECT_TRUE(repo.erase("app", "exp", "t1"));
  EXPECT_FALSE(repo.erase("app", "exp", "t1"));
}

TEST(Repository, MissingLevelsThrowWithContext) {
  Repository repo;
  repo.put("app", "exp", make_trial("t1"));
  EXPECT_THROW(repo.get("nope", "exp", "t1"), pk::NotFoundError);
  EXPECT_THROW(repo.get("app", "nope", "t1"), pk::NotFoundError);
  EXPECT_THROW(repo.get("app", "exp", "nope"), pk::NotFoundError);
  EXPECT_THROW(repo.put("a", "e", nullptr), pk::InvalidArgumentError);
}

TEST(Repository, ListingAndCounts) {
  Repository repo;
  repo.put("app", "scaling", make_trial("1_2"));
  repo.put("app", "scaling", make_trial("1_4"));
  repo.put("app", "power", make_trial("O0"));
  repo.put("other", "x", make_trial("t"));
  EXPECT_EQ(repo.applications().size(), 2u);
  EXPECT_EQ(repo.experiments("app").size(), 2u);
  EXPECT_EQ(repo.trials("app", "scaling").size(), 2u);
  EXPECT_EQ(repo.trial_count(), 4u);
  EXPECT_EQ(repo.experiment_trials("app", "scaling").size(), 2u);
}

TEST(Snapshot, RoundTripIsExact) {
  const auto t = make_trial("round trip");
  std::stringstream ss;
  pk::perfdmf::write_snapshot(*t, ss);
  const Trial back = pk::perfdmf::read_snapshot(ss);

  EXPECT_EQ(back.name(), t->name());
  EXPECT_EQ(back.thread_count(), t->thread_count());
  EXPECT_EQ(back.metric_count(), t->metric_count());
  EXPECT_EQ(back.event_count(), t->event_count());
  EXPECT_EQ(*back.metadata("schedule"), "dynamic,1");
  EXPECT_EQ(*back.metadata("weird key"), "value\twith\ttabs\nand newline");
  for (std::size_t th = 0; th < t->thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t->event_count(); ++e) {
      for (pk::profile::MetricId m = 0; m < t->metric_count(); ++m) {
        EXPECT_DOUBLE_EQ(back.inclusive(th, e, m), t->inclusive(th, e, m));
        EXPECT_DOUBLE_EQ(back.exclusive(th, e, m), t->exclusive(th, e, m));
      }
      EXPECT_DOUBLE_EQ(back.calls(th, e).calls, t->calls(th, e).calls);
    }
  }
  // Callgraph preserved.
  EXPECT_EQ(back.event(back.event_id("main => loop")).parent,
            back.event_id("main"));
}

TEST(Snapshot, RejectsGarbage) {
  std::stringstream ss("not a snapshot\n");
  EXPECT_THROW(pk::perfdmf::read_snapshot(ss), pk::ParseError);
  std::stringstream truncated("PKPROF\t1\ntrial\tx\n");  // no 'end'
  EXPECT_THROW(pk::perfdmf::read_snapshot(truncated), pk::ParseError);
  std::stringstream empty("");
  EXPECT_THROW(pk::perfdmf::read_snapshot(empty), pk::ParseError);
}

TEST(Snapshot, CsvExport) {
  const auto t = make_trial("csv");
  const std::string csv = pk::perfdmf::to_csv(*t, "TIME");
  EXPECT_NE(csv.find("event,thread0,thread1"), std::string::npos);
  EXPECT_NE(csv.find("main => loop"), std::string::npos);
  EXPECT_THROW(pk::perfdmf::to_csv(*t, "NOPE"), pk::NotFoundError);
}

TEST(RepositoryPersistence, SaveLoadRoundTrip) {
  TempDir dir;
  Repository repo;
  repo.put("Fluid Dynamic", "rib 45", make_trial("1_8"));
  repo.put("Fluid Dynamic", "rib 45", make_trial("1_16"));
  repo.put("MSAP", "schedules", make_trial("static"));
  repo.save(dir.path());

  const Repository loaded = Repository::load(dir.path());
  EXPECT_EQ(loaded.trial_count(), 3u);
  const auto t = loaded.get("Fluid Dynamic", "rib 45", "1_16");
  EXPECT_EQ(t->thread_count(), 2u);
  EXPECT_EQ(*t->metadata("schedule"), "dynamic,1");
}

TEST(RepositoryPersistence, LoadMissingIndexThrows) {
  TempDir dir;
  EXPECT_THROW(Repository::load(dir.path() / "nope"), pk::IoError);
}

TEST(TauFormat, WriteReadRoundTrip) {
  TempDir dir;
  const auto t = make_trial("tau", 4);
  pk::perfdmf::write_tau_profiles(*t, "TIME", dir.path());
  // Four per-thread files written.
  EXPECT_TRUE(fs::exists(dir.path() / "profile.0.0.0"));
  EXPECT_TRUE(fs::exists(dir.path() / "profile.3.0.0"));

  const Trial back = pk::perfdmf::read_tau_profiles(dir.path());
  EXPECT_EQ(back.thread_count(), 4u);
  ASSERT_TRUE(back.find_metric("TIME").has_value());
  const auto m = back.metric_id("TIME");
  const auto loop = back.event_id("main => loop");
  EXPECT_DOUBLE_EQ(back.exclusive(2, loop, m), 92.0);
  EXPECT_DOUBLE_EQ(back.calls(1, back.event_id("main")).calls, 1.0);
  // Callpath parent reconstructed from "a => b" naming.
  EXPECT_EQ(back.event(loop).parent, back.event_id("main"));
  // Group carried through.
  EXPECT_EQ(back.event(loop).group, "LOOP");
}

TEST(TauFormat, EmptyDirectoryThrows) {
  TempDir dir;
  EXPECT_THROW(pk::perfdmf::read_tau_profiles(dir.path()), pk::IoError);
  EXPECT_THROW(pk::perfdmf::read_tau_profiles(dir.path() / "nope"),
               pk::IoError);
}

TEST(TauFormat, MalformedFileThrows) {
  TempDir dir;
  {
    std::ofstream os(dir.path() / "profile.0.0.0");
    os << "2 templated_functions_MULTI_TIME\n# Name ...\n\"main\" 1 0 5\n";
    // second function row missing -> truncated
  }
  EXPECT_THROW(pk::perfdmf::read_tau_profiles(dir.path()), pk::ParseError);
}

// ---- sharded store, demand loading, cache ------------------------------

TEST(RepositoryPersistence, SaveWritesShardedPkbLayout) {
  TempDir dir;
  Repository repo;
  repo.put("app", "exp", make_trial("a"));
  repo.put("app", "exp", make_trial("b"));
  repo.save(dir.path());

  EXPECT_TRUE(fs::exists(dir.path() / "index.tsv"));
  std::size_t pkb_files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path())) {
    if (entry.path().extension() == ".pkb") {
      // Every snapshot lives under a shard directory.
      EXPECT_EQ(entry.path().parent_path().filename().string().rfind(
                    "shard-", 0),
                0u)
          << entry.path();
      ++pkb_files;
    }
  }
  EXPECT_EQ(pkb_files, 2u);
}

TEST(RepositoryPersistence, LegacyFlatPkprofLayoutStillLoads) {
  TempDir dir;
  // Hand-write the pre-sharding layout: flat .pkprof files + index.
  const auto t = make_trial("old trial");
  pk::io::save_trial(*t, dir.path() / "old_trial_0.pkprof");
  {
    std::ofstream index(dir.path() / "index.tsv");
    index << "app\texp\told trial\told_trial_0.pkprof\n";
  }
  const Repository loaded = Repository::load(dir.path());
  EXPECT_EQ(loaded.trial_count(), 1u);
  EXPECT_EQ(*loaded.get("app", "exp", "old trial")->metadata("schedule"),
            "dynamic,1");
  // attach() handles it too (text snapshots are parsed into owned columns).
  const Repository attached = Repository::attach(dir.path());
  EXPECT_EQ(attached.get("app", "exp", "old trial")->thread_count(), 2u);
}

TEST(RepositoryPersistence, IndexPathsThatEscapeTheRepositoryAreRejected) {
  TempDir outer;
  const fs::path dir = outer.path() / "repo";
  const fs::path escaped = outer.path() / "escaped.pkb";
  for (const std::string& rel :
       {std::string("../escaped.pkb"), escaped.string(),
        std::string("shard-00/../../escaped.pkb"), std::string()}) {
    fs::create_directories(dir);
    {
      std::ofstream index(dir / "index.tsv");
      index << "app\texp\tkept\tkept.pkb\n"
            << "app\texp\tt\t" << rel << '\n';
    }
    bool rejected = false;
    try {
      // Were the row accepted, re-putting "t" would save it to `rel`.
      Repository repo = Repository::attach(dir);
      repo.put("app", "exp", make_trial("t"));
      repo.save(dir);
    } catch (const pk::ParseError& e) {
      rejected = true;
      EXPECT_EQ(e.line(), 2) << e.what();
      EXPECT_NE(std::string(e.what()).find("index.tsv"), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(rejected) << "index path '" << rel << "' accepted";
    EXPECT_THROW((void)Repository::load(dir), pk::ParseError) << rel;
    EXPECT_FALSE(fs::exists(escaped)) << rel;
    fs::remove_all(dir);
    EXPECT_TRUE(fs::is_empty(outer.path())) << rel;
  }
}

TEST(RepositoryPersistence, LoadNamesTheFailingSnapshotFile) {
  TempDir dir;
  Repository repo;
  repo.put("app", "exp", make_trial("fine"));
  repo.save(dir.path());
  // Corrupt the one snapshot behind the index's back.
  fs::path victim;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path())) {
    if (entry.path().extension() == ".pkb") victim = entry.path();
  }
  ASSERT_FALSE(victim.empty());
  {
    std::ofstream os(victim, std::ios::binary | std::ios::trunc);
    os << "PKB1 but not really";
  }
  try {
    (void)Repository::load(dir.path());
    FAIL() << "corrupt repository loaded";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), victim.string());
    EXPECT_NE(std::string(e.what()).find(victim.filename().string()),
              std::string::npos)
        << e.what();
  }
}

TEST(RepositoryPersistence, ParallelLoadMatchesSerial) {
  TempDir dir;
  Repository repo;
  for (int i = 0; i < 12; ++i) {
    repo.put("app", "exp", make_trial("t" + std::to_string(i)));
  }
  repo.save(dir.path());

  pk::ThreadPool pool(4);
  const Repository serial = Repository::load(dir.path());
  const Repository parallel = Repository::load(dir.path(), pool);
  EXPECT_EQ(parallel.trial_count(), serial.trial_count());
  for (int i = 0; i < 12; ++i) {
    const std::string name = "t" + std::to_string(i);
    const auto a = serial.get("app", "exp", name);
    const auto b = parallel.get("app", "exp", name);
    EXPECT_EQ(a->inclusive(1, 0, 0), b->inclusive(1, 0, 0));
  }
}

TEST(RepositoryCache, AttachIsLazyAndGetDemandLoads) {
  TempDir dir;
  Repository repo;
  repo.put("app", "exp", make_trial("lazy1"));
  repo.put("app", "exp", make_trial("lazy2"));
  repo.save(dir.path());

  const Repository attached = Repository::attach(dir.path());
  // The index is read, the snapshots are not.
  EXPECT_EQ(attached.trial_count(), 2u);
  EXPECT_TRUE(attached.contains("app", "exp", "lazy1"));
  EXPECT_EQ(attached.resident_trials(), 0u);
  EXPECT_EQ(attached.cached_bytes(), 0u);

  const auto t = attached.get("app", "exp", "lazy1");
  EXPECT_EQ(*t->metadata("schedule"), "dynamic,1");
  EXPECT_EQ(attached.resident_trials(), 1u);
  EXPECT_GT(attached.cached_bytes(), 0u);
  // Same entry twice -> two copies of the one resident trial, both
  // borrowing its snapshot, and no duplicate charge.
  const auto before = attached.cached_bytes();
  const auto again = attached.get("app", "exp", "lazy1");
  EXPECT_NE(again, t);
  ASSERT_TRUE(t->image());
  EXPECT_EQ(again->image(), t->image());
  EXPECT_EQ(attached.cached_bytes(), before);
  EXPECT_EQ(attached.resident_trials(), 1u);
}

TEST(RepositoryCache, ViewServesReadsWithoutMaterializing) {
  TempDir dir;
  Repository repo;
  repo.put("app", "exp", make_trial("viewed"));
  repo.save(dir.path());

  const Repository attached = Repository::attach(dir.path());
  const auto view = attached.view("app", "exp", "viewed");
  ASSERT_TRUE(view);
  EXPECT_EQ(view->thread_count(), 2u);
  EXPECT_DOUBLE_EQ(
      view->mean_inclusive(view->event_id("main"), view->metric_id("TIME")),
      100.5);
  // A later get() hands out a private copy; the view stays coherent.
  const auto trial = attached.get("app", "exp", "viewed");
  EXPECT_EQ(trial->thread_count(), view->thread_count());
}

TEST(RepositoryCache, LruEvictionRespectsByteBudget) {
  TempDir dir;
  Repository repo;
  for (int i = 0; i < 6; ++i) {
    repo.put("app", "exp", make_trial("t" + std::to_string(i), 64));
  }
  repo.save(dir.path());

  // A budget big enough for roughly one trial forces steady eviction.
  Repository attached = Repository::attach(dir.path());
  (void)attached.get("app", "exp", "t0");
  const std::size_t one_trial = attached.cached_bytes();
  ASSERT_GT(one_trial, 0u);
  attached.set_cache_budget(one_trial + one_trial / 2);
  for (int i = 0; i < 6; ++i) {
    (void)attached.get("app", "exp", "t" + std::to_string(i));
    EXPECT_LE(attached.cached_bytes(), one_trial + one_trial / 2);
  }
  EXPECT_LT(attached.resident_trials(), 6u);

  // Shrinking the budget to zero evicts everything evictable...
  attached.set_cache_budget(0);
  EXPECT_EQ(attached.cached_bytes(), 0u);
  EXPECT_EQ(attached.resident_trials(), 0u);
  // ...but pinned (directly put) trials are never evicted.
  attached.put("app", "exp2", make_trial("pinned"));
  EXPECT_EQ(attached.get("app", "exp2", "pinned")->name(), "pinned");
  EXPECT_EQ(attached.resident_trials(), 1u);
}

TEST(RepositoryCache, ConcurrentDemandLoadsKeepAccountingConsistent) {
  TempDir dir;
  {
    Repository repo;
    for (int i = 0; i < 4; ++i) {
      repo.put("app", "exp", make_trial("c" + std::to_string(i)));
    }
    repo.save(dir.path());
  }
  const Repository attached = Repository::attach(dir.path());
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&attached, &failures, w] {
      for (int i = 0; i < 25; ++i) {
        const std::string name = "c" + std::to_string((w + i) % 4);
        const auto t = attached.get("app", "exp", name);
        if (t->thread_count() != 2) ++failures;
        (void)attached.cached_bytes();
        (void)attached.resident_trials();
      }
    });
  }
  // A concurrent save exercises the same per-entry load serialization.
  TempDir out;
  attached.save(out.path());
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(attached.resident_trials(), 4u);
  // Each trial charged exactly once despite 8 racing loaders.
  const std::size_t bytes = attached.cached_bytes();
  EXPECT_GT(bytes, 0u);
  for (int i = 0; i < 4; ++i) {
    (void)attached.get("app", "exp", "c" + std::to_string(i));
  }
  EXPECT_EQ(attached.cached_bytes(), bytes);
}

TEST(RepositoryPersistence, ResavingIntoOwnDirectoryPreservesSnapshots) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("self"));
    repo.save(dir.path());
  }
  // Re-save an attached repository into its own directory: the shard
  // filenames are deterministic, so the streaming writer reads each
  // snapshot through a live mmap of the very file it replaces. The
  // temp-file + rename write must leave the mapped source untouched.
  const Repository attached = Repository::attach(dir.path());
  (void)attached.view("app", "exp", "self");  // map the snapshot
  attached.save(dir.path());

  const Repository reloaded = Repository::load(dir.path());
  const auto t = reloaded.get("app", "exp", "self");
  EXPECT_EQ(t->thread_count(), 2u);
  EXPECT_DOUBLE_EQ(
      t->inclusive(1, t->event_id("main"), t->metric_id("TIME")), 101.0);
  EXPECT_EQ(*t->metadata("schedule"), "dynamic,1");
  // No temp files left behind.
  for (const auto& e : fs::recursive_directory_iterator(dir.path())) {
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  }
}

TEST(RepositoryPersistence, SaveDoesNotResignCorruptColumns) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("tamper"));
    repo.save(dir.path());
  }
  // Flip one byte inside the COLS payload of the snapshot on disk (the
  // last 16 bytes are the end-marker header; the cube ends just before).
  fs::path pkb;
  for (const auto& e : fs::recursive_directory_iterator(dir.path())) {
    if (e.path().extension() == ".pkb") pkb = e.path();
  }
  ASSERT_FALSE(pkb.empty());
  {
    std::fstream f(pkb, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-32, std::ios::end);
    char b = 0;
    f.get(b);
    f.seekp(-32, std::ios::end);
    f.put(static_cast<char>(b ^ 0x01));
  }
  // Streaming the attached repository back out must surface the
  // corruption as a ParseError naming the snapshot — not re-sign the
  // bad bytes with fresh checksums.
  TempDir out;
  const Repository attached = Repository::attach(dir.path());
  try {
    attached.save(out.path());
    FAIL() << "corrupt COLS section streamed and re-signed";
  } catch (const pk::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(".pkb"), std::string::npos)
        << e.what();
  }
  // Materialization rejects it the same way.
  EXPECT_THROW((void)attached.get("app", "exp", "tamper"), pk::ParseError);
}

namespace {

/// Flips one byte of `file` at `offset`.
void flip_byte(const fs::path& file, std::streamoff offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(offset);
  char b = 0;
  f.get(b);
  f.seekp(offset);
  f.put(static_cast<char>(b ^ 0x01));
}

/// Offset of the first SUMM value in a snapshot this build wrote: the
/// section follows SCHM and META, so find its tag by walking them.
std::streamoff summary_payload(const fs::path& file) {
  std::ifstream is(file, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  const std::string bytes = ss.str();
  std::size_t pos = 8;
  while (pos + 16 <= bytes.size() && bytes.compare(pos, 4, "SUMM") != 0) {
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos + 8, sizeof len);
    pos += 16 + ((len + 7) & ~std::uint64_t{7});
  }
  return static_cast<std::streamoff>(pos + 16);
}

/// Rewrites `file` as a writer without the SUMM section wrote it.
void drop_summary(const fs::path& file) {
  const std::string bytes = pk::read_file_bytes(file, "snapshot");
  const auto at = static_cast<std::size_t>(summary_payload(file)) - 16;
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + at + 8, sizeof len);
  std::ofstream(file, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, at) + bytes.substr(at + 16 + len);
}

}  // namespace

// view() checks the summary on open and never the columns, except for a
// snapshot without a summary; verified_view() and get() check the
// columns.
TEST(RepositoryCache, ViewChecksTheSummaryNotTheColumns) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("cols", 4));
    repo.put("app", "exp", make_trial("summ", 4));
    repo.put("app", "exp", make_trial("bare", 4));
    repo.save(dir.path());
  }
  std::map<std::string, fs::path> files;
  for (const auto& row : pk::perfdmf::parse_index(
           pk::read_file_bytes(dir.path() / "index.tsv", "index"))) {
    files[row.trial] = dir.path() / row.path;
  }
  flip_byte(files.at("cols"), static_cast<std::streamoff>(
                                  fs::file_size(files.at("cols")) - 32));
  flip_byte(files.at("summ"), summary_payload(files.at("summ")) + 3);
  drop_summary(files.at("bare"));
  flip_byte(files.at("bare"), static_cast<std::streamoff>(
                                  fs::file_size(files.at("bare")) - 32));

  const Repository attached = Repository::attach(dir.path());
  const auto want = make_trial("cols", 4);
  const auto cols = attached.view("app", "exp", "cols");
  ASSERT_NE(cols->borrowed_summary(), nullptr);
  EXPECT_EQ(cols->mean_inclusive(1, 0), want->mean_inclusive(1, 0));
  EXPECT_EQ(pk::analysis::event_statistics(*cols, 1, "TIME").cv,
            pk::analysis::event_statistics(*want, 1, "TIME").cv);
  for (const auto& read : std::vector<std::function<void()>>{
           [&] { (void)attached.verified_view("app", "exp", "cols"); },
           [&] { (void)attached.get("app", "exp", "cols"); }}) {
    try {
      read();
      FAIL() << "corrupt columns passed a full check";
    } catch (const pk::ParseError& e) {
      EXPECT_EQ(e.file(), files.at("cols").string());
      EXPECT_NE(std::string(e.what()).find("'COLS'"), std::string::npos)
          << e.what();
    }
  }
  try {
    (void)attached.view("app", "exp", "summ");
    FAIL() << "corrupt summary passed its check";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), files.at("summ").string());
    EXPECT_NE(std::string(e.what()).find("'SUMM'"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(
                  "byte offset " +
                  std::to_string(summary_payload(files.at("summ")) - 16)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)attached.verified_view("app", "exp", "summ"),
               pk::ParseError);
  try {
    (void)attached.view("app", "exp", "bare");
    FAIL() << "corrupt columns of a snapshot without SUMM opened";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), files.at("bare").string());
    EXPECT_NE(std::string(e.what()).find("'COLS'"), std::string::npos)
        << e.what();
  }
}

// What `pkx show` then `pkx explain` read of one resident entry, view()
// then verified_view(), checksums SUMM once and COLS once, however often
// each is called; a snapshot without SUMM has its columns checked once,
// by the open.
TEST(RepositoryCache, ShowThenExplainChecksumsEachSectionOnce) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("summ", 4));
    repo.put("app", "exp", make_trial("bare", 4));
    repo.save(dir.path());
  }
  for (const auto& row : pk::perfdmf::parse_index(
           pk::read_file_bytes(dir.path() / "index.tsv", "index"))) {
    if (row.trial == "bare") drop_summary(dir.path() / row.path);
  }
  pk::telemetry::Counter& summaries =
      pk::telemetry::counter("perfdmf.snapshot.summary_checked");
  pk::telemetry::Counter& columns =
      pk::telemetry::counter("perfdmf.snapshot.columns_checked");
  const bool was_enabled = pk::telemetry::enabled();
  pk::telemetry::set_enabled(true);
  using Checks = std::pair<std::uint64_t, std::uint64_t>;
  const auto show_then_explain = [&](const std::string& trial) {
    const Repository attached = Repository::attach(dir.path());
    const std::uint64_t s0 = summaries.value();
    const std::uint64_t c0 = columns.value();
    for (int i = 0; i < 2; ++i) {
      (void)attached.view("app", "exp", trial);
      (void)attached.verified_view("app", "exp", trial);
    }
    return Checks{summaries.value() - s0, columns.value() - c0};
  };
  EXPECT_EQ(show_then_explain("summ"), (Checks{1, 1}));
  EXPECT_EQ(show_then_explain("bare"), (Checks{0, 1}));
  pk::telemetry::set_enabled(was_enabled);
}

TEST(RepositoryIndex, CommittedSeedsParseOrNameTheBadRow) {
  const fs::path seeds =
      fs::path(PERFKNOW_SOURCE_DIR) / "fuzz" / "corpus" / "index";
  const auto text = [&](const char* name) {
    std::ifstream is(seeds / name, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  const auto index = pk::perfdmf::parse_index(text("index.tsv"));
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index[2].application, "Fluid Dynamic");
  EXPECT_EQ(index[2].experiment, "rib 90");
  EXPECT_EQ(index[2].path, "shard-00/opt_1.pkb");
  const auto lineage = pk::perfdmf::parse_lineage(text("lineage.tsv"));
  ASSERT_EQ(lineage.size(), 3u);
  EXPECT_EQ(lineage[0].predecessor, "");
  EXPECT_EQ(lineage[2].version, "v2b");
  EXPECT_EQ(lineage[2].predecessor, "v1");
  EXPECT_EQ(pk::perfdmf::parse_index(text("blank_lines_crlf.tsv")).size(),
            1u);
  for (const auto& [name, line, what] :
       std::vector<std::tuple<const char*, int, std::string>>{
           {"dotdot_path.tsv", 1, "is not inside the repository"},
           {"absolute_path.tsv", 1, "is not inside the repository"},
           {"empty_path.tsv", 1, "is not inside the repository"},
           {"tab_in_name.tsv", 1, "expected 4 fields"},
           {"truncated_row.tsv", 2, "expected 4 fields"}}) {
    try {
      (void)pk::perfdmf::parse_index(text(name));
      ADD_FAILURE() << name << " parsed";
    } catch (const pk::ParseError& e) {
      EXPECT_EQ(e.line(), line) << name << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << name << ": " << e.what();
    }
  }
  EXPECT_THROW((void)pk::perfdmf::parse_lineage(text("truncated_row.tsv")),
               pk::ParseError);
}

// ---- the trial table: each index row records its trial -----------------

namespace {

pk::telemetry::Counter& opened_counter() {
  return pk::telemetry::counter("perfdmf.snapshot.opened");
}

/// Snapshots opened while `run` runs, with telemetry on.
std::uint64_t snapshots_opened_by(const std::function<void()>& run) {
  const bool was_enabled = pk::telemetry::enabled();
  pk::telemetry::set_enabled(true);
  const std::uint64_t before = opened_counter().value();
  run();
  const std::uint64_t opened = opened_counter().value() - before;
  pk::telemetry::set_enabled(was_enabled);
  return opened;
}

std::string index_text(const fs::path& dir) {
  return pk::read_file_bytes(dir / "index.tsv", "index");
}

/// Rewrites every index row through `edit` (its tab-separated fields).
void edit_index(const fs::path& dir,
                const std::function<void(std::vector<std::string>&)>& edit) {
  std::string out;
  std::istringstream is(index_text(dir));
  for (std::string line; std::getline(is, line);) {
    auto fields = pk::strings::split(line, '\t');
    edit(fields);
    out += pk::strings::join(fields, "\t") + "\n";
  }
  std::ofstream(dir / "index.tsv", std::ios::trunc) << out;
}

/// A trial with one event and no metric: it has no total.
std::shared_ptr<Trial> metricless_trial(const std::string& name) {
  auto t = std::make_shared<Trial>(name);
  t->set_thread_count(1);
  (void)t->add_event("main");
  return t;
}

}  // namespace

// save() and commit() write each row's record from the trial in hand,
// and attach() serves it without opening a snapshot.
TEST(RepositoryIndex, RowsRecordTheTrialAndAttachServesThemUnopened) {
  TempDir saved;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("a", 2));
    repo.put("app", "exp", make_trial("b", 3));
    repo.put("app", "exp", metricless_trial("bare"));
    repo.save(saved.path());
  }
  TempDir committed;
  {
    Repository repo = Repository::create(committed.path());
    std::shared_mutex guard;
    repo.commit("app", "exp", make_trial("a", 2), guard);
    repo.commit("app", "exp", make_trial("b", 3), guard);
    repo.commit("app", "exp", metricless_trial("bare"), guard);
  }
  for (const fs::path& dir : {saved.path(), committed.path()}) {
    const auto rows = pk::perfdmf::parse_index(index_text(dir));
    ASSERT_EQ(rows.size(), 3u) << dir;
    for (const auto& row : rows) {
      const auto want = pk::perfdmf::record_of(
          row.trial == "bare" ? *metricless_trial("bare")
                              : *make_trial(row.trial, row.trial == "a" ? 2 : 3));
      ASSERT_TRUE(row.record.has_value()) << row.trial;
      EXPECT_TRUE(pk::perfdmf::same_record(*row.record, want)) << row.trial;
    }
    EXPECT_EQ(rows[0].record->threads, 2u);
    EXPECT_EQ(rows[0].record->events, 2u);
    EXPECT_EQ(rows[0].record->metrics, 2u);
    EXPECT_EQ(*rows[0].record->total, 100.5);  // main's mean TIME
    EXPECT_FALSE(rows[2].record->total.has_value());
    EXPECT_NE(index_text(dir).find("\tbare\t"), std::string::npos);
    EXPECT_NE(index_text(dir).find("\t1\t1\t0\t-\n"), std::string::npos)
        << index_text(dir);

    const Repository attached = Repository::attach(dir);
    std::optional<pk::perfdmf::TrialRecord> b;
    EXPECT_EQ(snapshots_opened_by([&] {
                b = attached.record("app", "exp", "b");
              }),
              0u);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->threads, 3u);
    EXPECT_EQ(attached.resident_trials(), 0u);
    // Opening and checking the snapshot agrees with the row.
    EXPECT_EQ(snapshots_opened_by([&] {
                (void)attached.verified_view("app", "exp", "b");
              }),
              1u);
  }
}

// A record field that is not a count or a total fails the attach,
// naming index.tsv and the row's line.
TEST(RepositoryIndex, MalformedRecordFieldsAreLocated) {
  TempDir dir;
  for (const auto& [fields, what] :
       std::vector<std::pair<std::string, std::string>>{
           {"2\t-1\t2\t1.5", "event count '-1'"},
           {"2\t2.5\t2\t1.5", "event count '2.5'"},
           {"18446744073709551616\t2\t2\t1.5", "thread count"},
           {"2\t2\t2\tfast", "total 'fast'"},
           {"2\t2\t2\t1e999", "total '1e999'"},
           {"2\t2\t2\t", "total ''"},
           {"2\t2\t2", "expected 4 fields, or 8"}}) {
    std::ofstream(dir.path() / "index.tsv", std::ios::trunc)
        << "app\texp\tfine\tshard-00/fine.pkb\n"
        << "app\texp\tbad\tshard-00/bad.pkb\t" << fields << "\n";
    try {
      (void)Repository::attach(dir.path());
      ADD_FAILURE() << fields << " accepted";
    } catch (const pk::ParseError& e) {
      EXPECT_EQ(e.line(), 2) << e.what();
      EXPECT_EQ(e.file(), (dir.path() / "index.tsv").string());
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  }
}

// A row whose shape disagrees with its snapshot fails the open; one
// whose total disagrees fails the first summary or full check. Both
// name index.tsv and the row's line.
TEST(RepositoryIndex, ARowThatDisagreesWithItsSnapshotFailsLocated) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("a"));
    repo.put("app", "exp", make_trial("b"));
    repo.save(dir.path());
  }
  const std::string file = (dir.path() / "index.tsv").string();
  const auto expect_located = [&](const std::function<void()>& read,
                                  const std::string& what) {
    try {
      read();
      ADD_FAILURE() << "a disagreeing row passed: " << what;
    } catch (const pk::ParseError& e) {
      EXPECT_EQ(e.file(), file) << e.what();
      EXPECT_EQ(e.line(), 2) << e.what();
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  const std::string good = index_text(dir.path());

  edit_index(dir.path(), [](std::vector<std::string>& f) {
    if (f[2] == "b") f[5] = "3";  // events
  });
  {
    const Repository attached = Repository::attach(dir.path());
    EXPECT_EQ(attached.record("app", "exp", "b")->events, 3u);
    (void)attached.view("app", "exp", "a");
    expect_located([&] { (void)attached.view("app", "exp", "b"); },
                   "has 2 threads, 2 events, 2 metrics in its snapshot, but "
                   "its row says 2 threads, 3 events, 2 metrics");
  }
  expect_located([&] { (void)Repository::load(dir.path()); }, "3 events");

  std::ofstream(dir.path() / "index.tsv", std::ios::trunc) << good;
  edit_index(dir.path(), [](std::vector<std::string>& f) {
    if (f[2] == "b") f[7] = "100.25";
  });
  const std::string total = "has total 100.5 in its snapshot, but its row "
                            "says 100.25";
  for (const auto& read : std::vector<std::function<void(const Repository&)>>{
           [](const Repository& r) { (void)r.view("app", "exp", "b"); },
           [](const Repository& r) { (void)r.verified_view("app", "exp", "b"); },
           [](const Repository& r) { (void)r.get("app", "exp", "b"); }}) {
    const Repository attached = Repository::attach(dir.path());
    expect_located([&] { read(attached); }, total);
  }
  expect_located([&] { (void)Repository::load(dir.path()); }, total);
}

// A save() upgrades a legacy 4-field row only when this process opened
// the trial (and so checked its summary); it never opens a snapshot to
// do so.
TEST(RepositoryIndex, LegacyRowsUpgradeOnlyWhenOpened) {
  TempDir dir;
  {
    Repository repo;
    for (const char* name : {"t0", "t1", "t2"}) {
      repo.put("app", "exp", make_trial(name));
    }
    repo.save(dir.path());
  }
  edit_index(dir.path(), [](std::vector<std::string>& f) { f.resize(4); });
  Repository attached = Repository::attach(dir.path());
  EXPECT_FALSE(attached.record("app", "exp", "t1").has_value());
  (void)attached.view("app", "exp", "t1");
  attached.put("app", "exp", make_trial("t3"));
  EXPECT_EQ(snapshots_opened_by([&] { attached.save(dir.path()); }), 0u);
  std::map<std::string, bool> recorded;
  for (const auto& row : pk::perfdmf::parse_index(index_text(dir.path()))) {
    recorded[row.trial] = row.record.has_value();
  }
  EXPECT_EQ(recorded, (std::map<std::string, bool>{
                          {"t0", false}, {"t1", true}, {"t2", false},
                          {"t3", true}}));
  EXPECT_TRUE(pk::perfdmf::same_record(
      *Repository::attach(dir.path()).record("app", "exp", "t1"),
      pk::perfdmf::record_of(*make_trial("t1"))));
}

// load() opens every snapshot once and records every row, a legacy one
// included.
TEST(RepositoryIndex, EagerLoadRecordsEveryRow) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("t0"));
    repo.put("app", "exp", make_trial("t1"));
    repo.save(dir.path());
  }
  edit_index(dir.path(), [](std::vector<std::string>& f) {
    if (f[2] == "t0") f.resize(4);
  });
  std::optional<Repository> loaded;
  EXPECT_EQ(snapshots_opened_by([&] { loaded = Repository::load(dir.path()); }),
            2u);
  for (const char* name : {"t0", "t1"}) {
    const auto r = loaded->record("app", "exp", name);
    ASSERT_TRUE(r.has_value()) << name;
    EXPECT_TRUE(pk::perfdmf::same_record(
        *r, pk::perfdmf::record_of(*make_trial(name))))
        << name;
  }
}

TEST(RepositoryCache, EvictedTrialsStayAliveForHolders) {
  TempDir dir;
  Repository repo;
  repo.put("app", "exp", make_trial("held"));
  repo.put("app", "exp", make_trial("other"));
  repo.save(dir.path());

  Repository attached = Repository::attach(dir.path());
  const auto held = attached.view("app", "exp", "held");
  attached.set_cache_budget(0);  // evicts the cache's reference
  EXPECT_EQ(attached.resident_trials(), 0u);
  // Our shared_ptr (and the mmap behind it) is still fully usable.
  EXPECT_EQ(*held->metadata("schedule"), "dynamic,1");
  // And a fresh get() reloads from disk.
  EXPECT_EQ(attached.get("app", "exp", "held")->thread_count(), 2u);
}

TEST(RepositoryCache, DeriveOnAGetCopyLeavesConcurrentReadersAlone) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("shared", 64));
    repo.save(dir.path());
  }
  fs::path file;
  for (const auto& e : fs::recursive_directory_iterator(dir.path())) {
    if (e.path().extension() == ".pkb") file = e.path();
  }
  const auto read_bytes = [&] {
    std::ifstream is(file, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  };
  const std::string snapshot = read_bytes();

  const Repository attached = Repository::attach(dir.path());
  const auto view = attached.verified_view("app", "exp", "shared");
  ASSERT_TRUE(view->image());  // borrowing the mapped snapshot
  const auto time = view->metric_id("TIME");
  const auto loop = view->event_id("main => loop");
  const auto want = view->inclusive_series(loop, time).to_vector();

  // One thread derives a metric on a get() copy (its add_metric copies
  // the borrowed columns out of the shared mapping) while another keeps
  // reading the view it already holds.
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    while (!done.load()) {
      if (view->inclusive_series(loop, time).to_vector() != want) {
        ++mismatches;
      }
    }
  });
  const auto copy = attached.get("app", "exp", "shared");
  const auto derived = pk::analysis::derive_metric(
      *copy, "TIME", "CPU_CYCLES", pk::analysis::DeriveOp::kAdd);
  done = true;
  reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(view->metric_count(), 2u);
  EXPECT_EQ(view->inclusive_series(loop, time).to_vector(), want);
  EXPECT_EQ(copy->metric_count(), 3u);
  EXPECT_FALSE(copy->image());
  EXPECT_DOUBLE_EQ(copy->inclusive(1, loop, derived), 91.0);
  // The entry still serves the snapshot's trial: the copy is the
  // caller's, and the snapshot on disk is untouched.
  EXPECT_EQ(attached.view("app", "exp", "shared"), view);
  EXPECT_EQ(read_bytes(), snapshot);
}

// ---- incremental save --------------------------------------------------

namespace {

/// index.tsv as trial name -> relative snapshot path.
std::map<std::string, std::string> read_index(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& row : pk::perfdmf::parse_index(
           pk::read_file_bytes(dir / "index.tsv", "index"))) {
    out[row.trial] = row.path;
  }
  return out;
}

/// (inode, mtime) of a file: both stay put unless the file is rewritten.
struct FileId {
  ino_t inode = 0;
  fs::file_time_type mtime;
  bool operator==(const FileId& o) const {
    return inode == o.inode && mtime == o.mtime;
  }
};

FileId file_id(const fs::path& file) {
  struct stat st{};
  EXPECT_EQ(::stat(file.c_str(), &st), 0) << file;
  return {st.st_ino, fs::last_write_time(file)};
}

std::map<std::string, FileId> snapshot_ids(const fs::path& dir) {
  std::map<std::string, FileId> out;
  for (const auto& [name, rel] : read_index(dir)) {
    out[name] = file_id(dir / rel);
  }
  return out;
}

std::size_t count_files(const fs::path& dir, const std::string& ext) {
  std::size_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.path().extension() == ext) ++n;
  }
  return n;
}

}  // namespace

TEST(RepositoryIncrementalSave, OnePutRewritesExactlyOneSnapshot) {
  TempDir dir;
  {
    Repository repo;
    for (const char* n : {"a", "b", "c"}) repo.put("app", "exp", make_trial(n));
    repo.save(dir.path());
  }
  const auto before = snapshot_ids(dir.path());
  ASSERT_EQ(before.size(), 3u);

  Repository attached = Repository::attach(dir.path());
  (void)attached.view("app", "exp", "a");  // reading does not dirty
  attached.put("app", "exp", make_trial("d"));
  attached.save(dir.path());

  const auto after = snapshot_ids(dir.path());
  ASSERT_EQ(after.size(), 4u);
  for (const auto& [name, id] : before) {
    EXPECT_TRUE(after.at(name) == id) << name << " was rewritten";
  }
  EXPECT_EQ(count_files(dir.path(), ".pkb"), 4u);
  EXPECT_EQ(count_files(dir.path(), ".tmp"), 0u);
  const Repository reloaded = Repository::load(dir.path());
  EXPECT_EQ(reloaded.trial_count(), 4u);
  EXPECT_EQ(reloaded.get("app", "exp", "d")->thread_count(), 2u);
}

TEST(RepositoryIncrementalSave, RePutTrialKeepsItsStableFileName) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("a"));
    repo.put("app", "exp", make_trial("b"));
    repo.save(dir.path());
  }
  const auto names = read_index(dir.path());
  const auto ids = snapshot_ids(dir.path());

  Repository attached = Repository::attach(dir.path());
  attached.put("app", "exp", make_trial("a", 3));
  attached.save(dir.path());

  EXPECT_EQ(read_index(dir.path()), names);
  EXPECT_EQ(count_files(dir.path(), ".pkb"), 2u);
  EXPECT_FALSE(file_id(dir.path() / names.at("a")) == ids.at("a"));
  EXPECT_TRUE(file_id(dir.path() / names.at("b")) == ids.at("b"));
  EXPECT_EQ(Repository::load(dir.path()).get("app", "exp", "a")->thread_count(),
            3u);

  // The name depends only on the coordinates, not on what else is
  // stored: a repository holding just "b" names it identically.
  TempDir other;
  Repository solo;
  solo.put("app", "exp", make_trial("b"));
  solo.save(other.path());
  EXPECT_EQ(read_index(other.path()).at("b"), names.at("b"));
}

// A get() copy is the caller's: its edits reach disk once it is put()
// back, and only the trial put() is rewritten.
TEST(RepositoryIncrementalSave, TrialMutatedThroughGetPersists) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("edited"));
    repo.put("app", "exp", make_trial("untouched"));
    repo.save(dir.path());
  }
  const auto ids = snapshot_ids(dir.path());
  {
    Repository attached = Repository::attach(dir.path());
    const auto t = attached.get("app", "exp", "edited");
    t->set_metadata("note", "derived in place");
    attached.save(dir.path());
    EXPECT_TRUE(snapshot_ids(dir.path()) == ids);  // not put(): no write
    attached.put("app", "exp", t);
    attached.save(dir.path());
  }
  const Repository reloaded = Repository::attach(dir.path());
  EXPECT_EQ(*reloaded.get("app", "exp", "edited")->metadata("note"),
            "derived in place");
  EXPECT_FALSE(snapshot_ids(dir.path()).at("edited") == ids.at("edited"));
  EXPECT_TRUE(snapshot_ids(dir.path()).at("untouched") == ids.at("untouched"));
}

TEST(RepositoryIncrementalSave, SavingToAFreshDirectoryWritesEveryTrial) {
  TempDir dir;
  {
    Repository repo;
    for (const char* n : {"a", "b", "c"}) repo.put("app", "exp", make_trial(n));
    repo.put_version("app", "hist", make_trial("v1"));
    repo.save(dir.path());
  }
  TempDir out;
  const Repository attached = Repository::attach(dir.path());
  attached.save(out.path() / "copy");
  EXPECT_EQ(read_index(out.path() / "copy"), read_index(dir.path()));
  EXPECT_EQ(count_files(out.path() / "copy", ".pkb"), 4u);
  const Repository copy = Repository::load(out.path() / "copy");
  EXPECT_EQ(copy.trial_count(), 4u);
  EXPECT_DOUBLE_EQ(copy.get("app", "exp", "c")->inclusive(1, 0, 0), 101.0);
  EXPECT_EQ(copy.history("app", "hist"), std::vector<std::string>{"v1"});
}

TEST(RepositoryIncrementalSave, LegacyOrdinalNamesSurvive) {
  TempDir dir;
  // The layout older saves wrote: an ordinal in every snapshot name.
  fs::create_directories(dir.path() / "shard-03");
  {
    std::ofstream index(dir.path() / "index.tsv");
    for (int i = 0; i < 3; ++i) {
      const std::string name = "t" + std::to_string(i);
      const std::string rel = "shard-03/" + name + "_" + std::to_string(i) +
                              ".pkb";
      pk::io::save_trial(*make_trial(name), dir.path() / rel, "pkb");
      index << "app\texp\t" << name << '\t' << rel << '\n';
    }
  }
  const auto names = read_index(dir.path());
  const auto ids = snapshot_ids(dir.path());

  Repository attached = Repository::attach(dir.path());
  attached.put("app", "exp", make_trial("new"));
  // A copy of t1 put() back: dirty, rewritten in place.
  attached.put("app", "exp", attached.get("app", "exp", "t1"));
  attached.save(dir.path());

  const auto now = read_index(dir.path());
  for (const auto& [name, rel] : names) EXPECT_EQ(now.at(name), rel);
  EXPECT_TRUE(snapshot_ids(dir.path()).at("t0") == ids.at("t0"));
  EXPECT_FALSE(snapshot_ids(dir.path()).at("t1") == ids.at("t1"));
  EXPECT_TRUE(snapshot_ids(dir.path()).at("t2") == ids.at("t2"));
  EXPECT_EQ(count_files(dir.path(), ".pkb"), 4u);
  EXPECT_EQ(Repository::load(dir.path()).trial_count(), 4u);
}

TEST(RepositoryIncrementalSave, RePutOfALegacyNamedTrialRewritesItInPlace) {
  TempDir dir;
  fs::create_directories(dir.path() / "shard-03");
  {
    std::ofstream index(dir.path() / "index.tsv");
    for (int i = 0; i < 2; ++i) {
      const std::string name = "t" + std::to_string(i);
      const std::string rel = "shard-03/" + name + "_" + std::to_string(i) +
                              ".pkb";
      pk::io::save_trial(*make_trial(name), dir.path() / rel, "pkb");
      index << "app\texp\t" << name << '\t' << rel << '\n';
    }
  }
  const auto files = [&] {
    std::set<std::string> out;
    for (const auto& e : fs::recursive_directory_iterator(dir.path())) {
      if (e.is_regular_file()) {
        out.insert(fs::relative(e.path(), dir.path()).string());
      }
    }
    return out;
  };
  const auto names = read_index(dir.path());
  const auto before = files();

  Repository attached = Repository::attach(dir.path());
  attached.put("app", "exp", make_trial("t1", 3));
  attached.save(dir.path());

  EXPECT_EQ(files(), before);
  EXPECT_EQ(read_index(dir.path()), names);
  EXPECT_EQ(
      Repository::load(dir.path()).get("app", "exp", "t1")->thread_count(),
      3u);
}

// save() and commit() name a new snapshot alike: its stable name, or
// "-1" appended to it when another entry's file already holds that path.
TEST(RepositoryIncrementalSave, SaveAndCommitNameACollidingSnapshotAlike) {
  TempDir first;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("a"));
    repo.save(first.path());
  }
  const std::string stable = read_index(first.path()).at("a");
  ASSERT_EQ(stable.substr(stable.size() - 4), ".pkb");
  const std::string bumped = stable.substr(0, stable.size() - 4) + "-1.pkb";
  // A directory whose index already gives "a"'s stable path to "other".
  const auto occupied = [&](const fs::path& dir) {
    fs::create_directories((dir / stable).parent_path());
    pk::io::save_trial(*make_trial("other"), dir / stable, "pkb");
    std::ofstream(dir / "index.tsv") << "app\texp\tother\t" << stable
                                     << '\n';
  };
  TempDir saved;
  occupied(saved.path());
  {
    Repository attached = Repository::attach(saved.path());
    attached.put("app", "exp", make_trial("a"));
    attached.save(saved.path());
  }
  TempDir committed;
  occupied(committed.path());
  {
    Repository attached = Repository::attach(committed.path());
    std::shared_mutex guard;
    attached.commit("app", "exp", make_trial("a"), guard);
  }
  const std::map<std::string, std::string> expected = {{"a", bumped},
                                                       {"other", stable}};
  EXPECT_EQ(read_index(saved.path()), expected);
  EXPECT_EQ(read_index(committed.path()), expected);
  EXPECT_EQ(Repository::load(committed.path()).get("app", "exp", "a")
                ->thread_count(),
            2u);
}

TEST(RepositoryIncrementalSave, FailedSnapshotWriteLeavesTheOldIndex) {
  // Learn where "b" will be written: names are stable, so a scratch save
  // of the same coordinates tells us.
  TempDir probe;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("b"));
    repo.save(probe.path());
  }
  const std::string b_rel = read_index(probe.path()).at("b");

  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("a"));
    repo.save(dir.path());
  }
  std::ifstream before_is(dir.path() / "index.tsv");
  const std::string before((std::istreambuf_iterator<char>(before_is)),
                           std::istreambuf_iterator<char>());
  // A directory squatting on the snapshot's temp name makes its write
  // fail, as a full disk would.
  fs::create_directories(dir.path() / (b_rel + ".tmp"));
  Repository attached = Repository::attach(dir.path());
  attached.put("app", "exp", make_trial("b"));
  EXPECT_THROW(attached.save(dir.path()), pk::IoError);

  std::ifstream after_is(dir.path() / "index.tsv");
  const std::string after((std::istreambuf_iterator<char>(after_is)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, before);
  EXPECT_FALSE(fs::exists(dir.path() / "index.tsv.tmp"));
  EXPECT_EQ(Repository::load(dir.path()).trial_count(), 1u);
}

TEST(RepositoryIncrementalSave, FailedLineageStepLeavesTheOldIndex) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("a"));
    repo.save(dir.path());
  }
  std::ifstream before_is(dir.path() / "index.tsv");
  const std::string before((std::istreambuf_iterator<char>(before_is)),
                           std::istreambuf_iterator<char>());
  // A non-empty directory squatting on lineage.tsv makes its rename
  // fail. The index rename is the commit point, so it must not have
  // happened yet.
  fs::create_directories(dir.path() / "lineage.tsv" / "squat");
  Repository attached = Repository::attach(dir.path());
  attached.put_version("app", "exp", make_trial("v1"));
  EXPECT_THROW(attached.save(dir.path()), pk::IoError);

  std::ifstream after_is(dir.path() / "index.tsv");
  const std::string after((std::istreambuf_iterator<char>(after_is)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, before);
  EXPECT_FALSE(fs::exists(dir.path() / "index.tsv.tmp"));
  EXPECT_FALSE(fs::exists(dir.path() / "lineage.tsv.tmp"));
}

TEST(Repository, RejectsNamesThatWouldBreakTheIndex) {
  Repository repo;
  const auto expect_field = [](const std::function<void()>& op,
                               const std::string& field) {
    try {
      op();
      FAIL() << field << " with a separator accepted";
    } catch (const pk::InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  expect_field([&] { repo.put("a\tb", "exp", make_trial("t")); },
               "application");
  expect_field([&] { repo.put("app", "e\nx", make_trial("t")); },
               "experiment");
  expect_field([&] { repo.put("app", "exp", make_trial("t\r1")); }, "trial");
  expect_field([&] { repo.put_version("app", "exp", make_trial("v\t1")); },
               "trial");
  expect_field(
      [&] { repo.put_version("app", "exp", make_trial("v1"), "p\n0"); },
      "predecessor");
  EXPECT_EQ(repo.trial_count(), 0u);
  EXPECT_TRUE(repo.applications().empty());
  // Other punctuation stays legal.
  repo.put_version("app", "exp", make_trial("v 1/ok"));
  EXPECT_EQ(repo.history("app", "exp"), std::vector<std::string>{"v 1/ok"});
}

// ---- one entry lifecycle -------------------------------------------------

// A get() copy belongs to the caller and never enters the cache: under
// a budget too small for any trial, edited copies are evicted with the
// rest and a save() writes nothing. Put back, they are never evicted
// and the next save() writes them.
TEST(RepositoryCache, AGetEditReachesDiskThroughPut) {
  TempDir dir;
  {
    Repository repo;
    for (const char* n : {"a", "b", "c"}) repo.put("app", "exp", make_trial(n));
    repo.save(dir.path());
  }
  const auto ids = snapshot_ids(dir.path());
  {
    Repository attached = Repository::attach(dir.path(), 1);
    const auto a = attached.get("app", "exp", "a");
    a->set_inclusive(0, 0, 0, 42.0);
    const auto c = attached.get("app", "exp", "c");
    c->set_metadata("schedule", "static");
    (void)attached.get("app", "exp", "b");  // read, then dropped
    attached.set_cache_budget(0);
    EXPECT_EQ(attached.resident_trials(), 0u);
    EXPECT_NE(attached.view("app", "exp", "a"), a);
    attached.save(dir.path());
    EXPECT_TRUE(snapshot_ids(dir.path()) == ids);

    attached.put("app", "exp", a);
    attached.put("app", "exp", c);
    attached.set_cache_budget(0);
    EXPECT_EQ(attached.resident_trials(), 2u);  // a and c
    EXPECT_EQ(attached.view("app", "exp", "a"), a);
    attached.save(dir.path());
  }
  const Repository reattached = Repository::attach(dir.path());
  EXPECT_EQ(reattached.verified_view("app", "exp", "a")->inclusive(0, 0, 0),
            42.0);
  EXPECT_EQ(*reattached.view("app", "exp", "c")->metadata("schedule"),
            "static");
  EXPECT_TRUE(snapshot_ids(dir.path()).at("b") == ids.at("b"));
}

// get() leaves its entry as it was: the index record stays, a save()
// home rewrites nothing, and the resident trial keeps its charge.
TEST(RepositoryCache, GetLeavesTheEntryClean) {
  TempDir dir;
  {
    Repository repo;
    for (const char* n : {"a", "b"}) repo.put("app", "exp", make_trial(n));
    repo.save(dir.path());
  }
  const auto ids = snapshot_ids(dir.path());
  const Repository attached = Repository::attach(dir.path());
  const auto row = attached.record("app", "exp", "a");
  ASSERT_TRUE(row);
  (void)attached.view("app", "exp", "a");
  const std::size_t charged = attached.cached_bytes();
  ASSERT_GT(charged, 0u);

  const auto first = attached.get("app", "exp", "a");
  const auto second = attached.get("app", "exp", "a");
  EXPECT_NE(first, second);
  first->set_metadata("note", "the caller's");
  EXPECT_FALSE(second->metadata("note"));
  EXPECT_FALSE(attached.view("app", "exp", "a")->metadata("note"));
  EXPECT_EQ(attached.cached_bytes(), charged);
  const auto after = attached.record("app", "exp", "a");
  ASSERT_TRUE(after);
  EXPECT_TRUE(pk::perfdmf::same_record(*after, *row));

  attached.save(dir.path());
  EXPECT_TRUE(snapshot_ids(dir.path()) == ids);
}

// A get() copy of a trial with owned columns (a committed JSON upload,
// a legacy .pkprof entry) does not pin the resident trial once dropped.
TEST(RepositoryCache, ADroppedGetCopyOfAnOwnedTrialDoesNotPinIt) {
  TempDir dir;
  {
    Repository repo = Repository::create(dir.path());
    std::shared_mutex guard;
    auto upload = std::make_shared<Trial>(pk::io::parse_trial(
        pk::perfdmf::to_json(*make_trial("up")), "json", "up.json"));
    ASSERT_FALSE(upload->image());
    repo.commit("app", "exp", upload, guard);
    ASSERT_EQ(repo.resident_trials(), 1u);
    EXPECT_EQ(repo.get("app", "exp", "up")->name(), "up");
    repo.set_cache_budget(0);
    EXPECT_EQ(repo.resident_trials(), 0u);
    EXPECT_EQ(repo.cached_bytes(), 0u);
  }
  TempDir legacy;
  pk::io::save_trial(*make_trial("old"), legacy.path() / "old_0.pkprof");
  std::ofstream(legacy.path() / "index.tsv") << "app\texp\told\told_0.pkprof\n";
  Repository attached = Repository::attach(legacy.path());
  EXPECT_FALSE(attached.get("app", "exp", "old")->image());
  EXPECT_EQ(attached.resident_trials(), 1u);
  attached.set_cache_budget(0);
  EXPECT_EQ(attached.resident_trials(), 0u);
  EXPECT_EQ(attached.cached_bytes(), 0u);
}

// get() copies read and dropped on several threads stay evictable under
// a budget smaller than one trial, while the same threads keep loading.
TEST(RepositoryCache, DroppedGetCopiesAreEvictedUnderConcurrentLoads) {
  TempDir dir;
  {
    Repository repo;
    for (int i = 0; i < 4; ++i) {
      repo.put("app", "exp", make_trial("c" + std::to_string(i)));
    }
    repo.save(dir.path());
  }
  Repository attached = Repository::attach(dir.path(), 1);
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&attached, &failures, w] {
      for (int i = 0; i < 25; ++i) {
        const auto t =
            attached.get("app", "exp", "c" + std::to_string((w + i) % 4));
        if (t->inclusive(1, 0, 0) != 101.0) ++failures;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  attached.set_cache_budget(0);
  EXPECT_EQ(attached.resident_trials(), 0u);
  EXPECT_EQ(attached.cached_bytes(), 0u);
}

// An index row whose path names another trial's snapshot is refused by
// every read, as load() refuses it: a ParseError naming index.tsv and
// the row's line, whether the row carries a record or not.
TEST(RepositoryIndex, ARowPointingAtAnotherTrialsSnapshotFailsLocated) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("x"));
    repo.put("app", "exp", make_trial("y"));  // same shape and total
    repo.save(dir.path());
  }
  const auto paths = read_index(dir.path());
  const std::string good = index_text(dir.path());
  const std::string file = (dir.path() / "index.tsv").string();
  for (const std::size_t fields : {std::size_t{8}, std::size_t{4}}) {
    std::ofstream(dir.path() / "index.tsv", std::ios::trunc) << good;
    edit_index(dir.path(), [&](std::vector<std::string>& f) {
      f[3] = paths.at(f[2] == "x" ? "y" : "x");
      f.resize(fields);
    });
    const auto expect_located = [&](const std::function<void()>& read) {
      try {
        read();
        ADD_FAILURE() << fields << "-field row served another trial";
      } catch (const pk::ParseError& e) {
        EXPECT_EQ(e.file(), file) << e.what();
        EXPECT_EQ(e.line(), 1) << e.what();
        EXPECT_NE(std::string(e.what()).find(
                      "row names trial 'x', but its snapshot " +
                      paths.at("y") + " holds trial 'y'"),
                  std::string::npos)
            << e.what();
      }
    };
    for (const auto& read :
         std::vector<std::function<void(const Repository&)>>{
             [](const Repository& r) { (void)r.view("app", "exp", "x"); },
             [](const Repository& r) {
               (void)r.verified_view("app", "exp", "x");
             },
             [](const Repository& r) { (void)r.get("app", "exp", "x"); }}) {
      const Repository attached = Repository::attach(dir.path());
      expect_located([&] { read(attached); });
    }
    expect_located([&] { (void)Repository::load(dir.path()); });
  }
}

// A commit() rewrites index.tsv in store order; a row checked after it
// is located at the line the new index gives it.
TEST(RepositoryIndex, AMismatchAfterACommitNamesTheRowsNewLine) {
  TempDir dir;
  {
    Repository repo;
    repo.put("app", "exp", make_trial("b"));
    repo.put("app", "exp", make_trial("c"));
    repo.save(dir.path());
  }
  const auto paths = read_index(dir.path());
  Repository repo = Repository::attach(dir.path());
  std::shared_mutex guard;
  repo.commit("app", "exp", make_trial("a"), guard);  // rows: a, b, c
  fs::copy_file(dir.path() / paths.at("b"), dir.path() / paths.at("c"),
                fs::copy_options::overwrite_existing);
  try {
    (void)repo.view("app", "exp", "c");
    ADD_FAILURE() << "c served b's snapshot";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), (dir.path() / "index.tsv").string());
    EXPECT_EQ(e.line(), 3) << e.what();
  }
}

// save() into the repository's own directory records where it wrote a
// put() trial, so a later commit() keeps that trial in the index.
TEST(RepositoryIncrementalSave, ASavedPutSurvivesALaterCommit) {
  TempDir dir;
  {
    Repository repo = Repository::create(dir.path());
    repo.put("app", "exp", make_trial("saved"));
    repo.save(dir.path());
    std::shared_mutex guard;
    repo.commit("app", "exp", make_trial("committed"), guard);
  }
  const Repository reattached = Repository::attach(dir.path());
  EXPECT_EQ(reattached.trials("app", "exp"),
            (std::vector<std::string>{"committed", "saved"}));
  EXPECT_EQ(reattached.verified_view("app", "exp", "saved")->name(),
            "saved");
  EXPECT_EQ(count_files(dir.path(), ".pkb"), 2u);
}
