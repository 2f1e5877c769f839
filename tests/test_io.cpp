// Tests for the unified io::open_trial / io::parse_trial / io::save_trial
// front door: auto-detection across all six registered formats, content-
// over-extension sniffing, the candidate-listing failure diagnostics, and
// linear-time text ingest.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "io/format.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/tau_format.hpp"
#include "telemetry/telemetry.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::profile::Trial;

namespace {

Trial make_trial(const std::string& name) {
  Trial t(name);
  const auto time = t.add_metric("TIME", "usec");
  const auto main = t.add_event("main", pk::profile::kNoEvent, "PROC");
  const auto loop = t.add_event("main => loop", main, "LOOP");
  t.set_thread_count(2);
  for (std::size_t th = 0; th < 2; ++th) {
    t.set_inclusive(th, main, time, 100.0 + th);
    t.set_exclusive(th, main, time, 10.0);
    t.set_inclusive(th, loop, time, 90.0 + th);
    t.set_exclusive(th, loop, time, 90.0 + th);
    t.set_calls(th, main, 1, 1);
    t.set_calls(th, loop, 1, 0);
  }
  return t;
}

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_io_" + std::to_string(::getpid()) + "_" +
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

TEST(IoRegistry, AllSixFormatsRegistered) {
  for (const char* name :
       {"pkb", "pkprof", "benchjson", "json", "csv", "tau"}) {
    EXPECT_NE(pk::io::find_format(name), nullptr) << name;
  }
  EXPECT_EQ(pk::io::formats().size(), 6u);  // tau covers files + dirs
  EXPECT_EQ(pk::io::find_format("bogus"), nullptr);
}

TEST(IoOpen, BenchmarkJsonDetectedBeforeTrialJson) {
  TempDir dir;
  // A Google-Benchmark document: object with "context", no "threads".
  const fs::path bench = dir.path() / "run.json";
  std::ofstream(bench) << R"({
    "context": {"host_name": "ci"},
    "benchmarks": [
      {"name": "BM_A", "run_type": "iteration", "iterations": 3,
       "real_time": 2.0, "cpu_time": 1.0, "time_unit": "us"}
    ]
  })";
  const Trial from_bench = pk::io::open_trial(bench);
  EXPECT_TRUE(from_bench.find_event("BM_A").has_value());
  EXPECT_TRUE(from_bench.find_metric("CPU_TIME").has_value());

  // The trial-schema JSON (has "threads") must keep its claim even when
  // a metadata value happens to contain the word "context".
  Trial t = make_trial("json keeps claim");
  t.set_metadata("note", "\"context\" appears here");
  const fs::path file = dir.path() / "trial.json";
  pk::io::save_trial(t, file, "json");
  const Trial back = pk::io::open_trial(file);
  EXPECT_EQ(back.thread_count(), 2u);
  EXPECT_TRUE(back.find_event("main => loop").has_value());
}

TEST(IoOpen, AutoDetectsEveryWritableFormatByContent) {
  TempDir dir;
  const Trial t = make_trial("detect me");
  for (const char* format : {"pkb", "pkprof", "json", "csv"}) {
    // Deliberately extension-less: detection must work off content.
    const fs::path file = dir.path() / (std::string("trial_") + format);
    pk::io::save_trial(t, file, format);
    const Trial back = pk::io::open_trial(file);
    EXPECT_EQ(back.thread_count(), 2u) << format;
    EXPECT_TRUE(back.find_event("main => loop").has_value()) << format;
    const auto m = back.metric_id("TIME");
    EXPECT_EQ(back.exclusive(1, back.event_id("main => loop"), m), 91.0)
        << format;
  }
}

TEST(IoOpen, DetectsTauDirectoryAndSingleProfile) {
  TempDir dir;
  const Trial t = make_trial("tau trial");
  const fs::path tau_dir = dir.path() / "taudir";
  pk::perfdmf::write_tau_profiles(t, "TIME", tau_dir);

  const Trial from_dir = pk::io::open_trial(tau_dir);
  EXPECT_EQ(from_dir.thread_count(), 2u);
  EXPECT_TRUE(from_dir.find_event("main => loop").has_value());

  // A single profile.N.C.T file detects by its header line.
  const Trial one = pk::io::open_trial(tau_dir / "profile.0.0.0");
  EXPECT_EQ(one.thread_count(), 1u);
}

TEST(IoOpen, TauParentSeenOnlyInALaterThreadFileIsLinked) {
  TempDir dir;
  const fs::path tau_dir = dir.path() / "late_parent";
  fs::create_directories(tau_dir);
  // Thread 0 names "a => b" but not "a"; only thread 1 has "a".
  {
    std::ofstream os(tau_dir / "profile.0.0.0");
    os << "2 templated_functions_MULTI_TIME\n"
       << "# Name Calls Subrs Excl Incl ProfileCalls\n"
       << "\"main\" 1 1 5 10 0 GROUP=\"TAU_DEFAULT\"\n"
       << "\"a => b\" 1 0 5 5 0 GROUP=\"TAU_CALLPATH\"\n";
  }
  {
    std::ofstream os(tau_dir / "profile.0.0.1");
    os << "3 templated_functions_MULTI_TIME\n"
       << "# Name Calls Subrs Excl Incl ProfileCalls\n"
       << "\"main\" 1 1 2 9 0 GROUP=\"TAU_DEFAULT\"\n"
       << "\"a\" 1 1 4 7 0 GROUP=\"TAU_DEFAULT\"\n"
       << "\"a => b\" 1 0 3 3 0 GROUP=\"TAU_CALLPATH\"\n";
  }
  const Trial t = pk::io::open_trial(tau_dir);
  const auto a = t.event_id("a");
  const auto ab = t.event_id("a => b");
  EXPECT_EQ(t.event(ab).parent, a);
  EXPECT_LT(a, ab);  // parents precede children, as PKB requires
  EXPECT_EQ(t.event(ab).group, "TAU_CALLPATH");
  const auto m = t.metric_id("TIME");
  EXPECT_EQ(t.exclusive(0, ab, m), 5.0);
  EXPECT_EQ(t.exclusive(1, ab, m), 3.0);
  EXPECT_EQ(t.inclusive(1, a, m), 7.0);
  EXPECT_EQ(t.inclusive(0, t.event_id("main"), m), 10.0);
  EXPECT_EQ(t.calls(1, a).subcalls, 1.0);

  pk::io::save_trial(t, dir.path() / "late_parent.pkb");
  const Trial back = pk::io::open_trial(dir.path() / "late_parent.pkb");
  EXPECT_EQ(back.event(back.event_id("a => b")).parent, back.event_id("a"));
}

TEST(IoOpen, DirectoryWithoutTauProfilesIsNotClaimed) {
  TempDir dir;
  const fs::path sub = dir.path() / "not_tau";
  fs::create_directories(sub);
  std::ofstream(sub / "notes.txt") << "just some files\n";
  // A directory with no profile.N.C.T files must not dispatch to the
  // TAU reader (whose parse error would be misleading).
  try {
    (void)pk::io::open_trial(sub);
    FAIL() << "directory of non-TAU files opened";
  } catch (const pk::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unrecognized profile format"),
              std::string::npos)
        << e.what();
  }
}

TEST(IoOpen, FallsBackToExtensionWhenContentIsInconclusive) {
  TempDir dir;
  // An empty .csv has no header line to sniff, but the extension names
  // the format, whose reader then gives the format's own diagnostic.
  const fs::path file = dir.path() / "empty.csv";
  std::ofstream(file).close();
  EXPECT_THROW((void)pk::io::open_trial(file), pk::ParseError);
}

TEST(IoOpen, UnrecognizedInputListsCandidateFormats) {
  TempDir dir;
  const fs::path file = dir.path() / "mystery.dat";
  std::ofstream(file) << "no format looks like this\n";
  try {
    (void)pk::io::open_trial(file);
    FAIL() << "garbage opened";
  } catch (const pk::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mystery.dat"), std::string::npos) << what;
    for (const char* name : {"pkb", "pkprof", "json", "csv", "tau"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
  EXPECT_THROW((void)pk::io::open_trial(dir.path() / "absent.pkb"),
               pk::IoError);
}

TEST(IoOpen, ExplicitFormatNameOverridesDetection) {
  TempDir dir;
  const Trial t = make_trial("explicit");
  const fs::path file = dir.path() / "data.bin";
  pk::io::save_trial(t, file, "csv");
  const Trial back = pk::io::open_trial(file, "csv");
  EXPECT_EQ(back.thread_count(), 2u);
  EXPECT_THROW((void)pk::io::open_trial(file, "nope"),
               pk::InvalidArgumentError);
}

TEST(IoSave, PicksFormatByExtension) {
  TempDir dir;
  const Trial t = make_trial("by ext");
  for (const char* ext : {".pkb", ".pkprof", ".json", ".csv"}) {
    const fs::path file = dir.path() / (std::string("trial") + ext);
    pk::io::save_trial(t, file);
    EXPECT_EQ(pk::io::open_trial(file).thread_count(), 2u) << ext;
  }
  try {
    pk::io::save_trial(t, dir.path() / "trial.xyz");
    FAIL() << "unknown extension accepted";
  } catch (const pk::InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("pkprof"), std::string::npos)
        << e.what();
  }
  // TAU is read-only through this API (its writer needs a metric + dir).
  EXPECT_THROW(pk::io::save_trial(t, dir.path() / "x", "tau"),
               pk::InvalidArgumentError);
}

TEST(IoOpen, MislabeledExtensionStillDetectsByMagic) {
  TempDir dir;
  const Trial t = make_trial("mislabeled");
  // A PKB snapshot wearing a .csv extension: content sniffing wins.
  const fs::path file = dir.path() / "actually_pkb.csv";
  pk::io::save_trial(t, file, "pkb");
  const Trial back = pk::io::open_trial(file);
  EXPECT_EQ(back.name(), "mislabeled");
}

TEST(IoParse, BytesParseLikeTheFileTheyCameFrom) {
  TempDir dir;
  const Trial t = make_trial("bytes");
  for (const char* format : {"pkb", "pkprof", "json", "csv"}) {
    const fs::path file = dir.path() / (std::string("run.") + format);
    pk::io::save_trial(t, file, format);
    std::ifstream is(file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    // Detected from the content, named as the file would be.
    const Trial parsed = pk::io::parse_trial(bytes, "", file.string());
    const Trial opened = pk::io::open_trial(file);
    EXPECT_EQ(parsed.name(), opened.name()) << format;
    EXPECT_EQ(parsed.event_count(), opened.event_count()) << format;
    const auto m = parsed.metric_id("TIME");
    EXPECT_EQ(parsed.exclusive(1, parsed.event_id("main => loop"), m),
              opened.exclusive(1, opened.event_id("main => loop"), m))
        << format;
  }
  // A CSV body's trial takes its name from the name it was given.
  std::ostringstream csv;
  pk::perfdmf::write_csv_long(t, csv);
  EXPECT_EQ(pk::io::parse_trial(csv.str(), "csv", "upload-3").name(),
            "upload-3");
  try {
    (void)pk::io::parse_trial("no format looks like this\n", "", "upload-4");
    FAIL() << "garbage parsed";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), "upload-4");
  }
  EXPECT_THROW((void)pk::io::parse_trial("x", "nope", "upload-5"),
               pk::InvalidArgumentError);
}

namespace {

/// Writes a 64-thread trial with `events` events under `dir` as
/// <tag>.json, <tag>.csv and the TAU directory <tag>_tau.
void write_growth_trial(const fs::path& dir, std::size_t events,
                        const std::string& tag) {
  constexpr std::size_t kThreads = 64;
  Trial t("growth");
  t.set_thread_count(kThreads);
  const auto time = t.add_metric("TIME", "usec");
  const auto main = t.add_event("main");
  for (std::size_t e = 0; e < events; ++e) {
    const auto id = t.add_event(
        "main => ev" + std::to_string(e), e % 3 == 0 ? main : pk::profile::kNoEvent);
    for (std::size_t th = 0; th < kThreads; ++th) {
      t.set_inclusive(th, id, time, 1.5 * static_cast<double>(th + e));
      t.set_exclusive(th, id, time, 0.25 * static_cast<double>(th + 1));
      t.set_calls(th, id, 1.0, 0.0);
    }
  }
  pk::io::save_trial(t, dir / (tag + ".json"));
  pk::io::save_trial(t, dir / (tag + ".csv"));
  pk::perfdmf::write_tau_profiles(t, "TIME", dir / (tag + "_tau"));
}

std::string growth_suffix(const std::string& format) {
  return format == "tau" ? "_tau" : "." + format;
}

}  // namespace

// Opening a text profile costs work linear in its size: the input bytes
// each reader examines (telemetry counter "text.scanned": what every
// JSON tokenizer advanced over and every line the CSV and TAU readers
// split off) cover the input (TAU's trailing "0 aggregates" line is
// never read) and grow like it, ~4x at 4x the events, where re-scanning
// `data` from its start on every row would grow ~16x.
TEST(IoOpen, TextIngestScansGrowLinearlyInEvents) {
  TempDir dir;
  write_growth_trial(dir.path(), 500, "small");
  write_growth_trial(dir.path(), 2000, "large");
  pk::telemetry::Counter& scanned = pk::telemetry::counter("text.scanned");
  const bool was_enabled = pk::telemetry::enabled();
  pk::telemetry::set_enabled(true);
  const auto scanned_by_open = [&](const fs::path& path) {
    const std::uint64_t before = scanned.value();
    EXPECT_EQ(pk::io::open_trial(path).thread_count(), 64u);
    return static_cast<double>(scanned.value() - before);
  };
  const auto input_bytes = [](const fs::path& path) {
    if (!fs::is_directory(path)) {
      return static_cast<double>(fs::file_size(path));
    }
    std::uintmax_t bytes = 0;
    for (const auto& entry : fs::directory_iterator(path)) {
      bytes += entry.file_size();
    }
    return static_cast<double>(bytes);
  };
  for (const std::string format : {"json", "csv", "tau"}) {
    const fs::path small_path = dir.path() / ("small" + growth_suffix(format));
    const fs::path large_path = dir.path() / ("large" + growth_suffix(format));
    const double small = scanned_by_open(small_path);
    const double large = scanned_by_open(large_path);
    EXPECT_GE(small, 0.99 * input_bytes(small_path)) << format;
    EXPECT_GE(large, 0.99 * input_bytes(large_path)) << format;
    EXPECT_GT(large / small, 3.5) << format;
    EXPECT_LT(large / small, 4.5)
        << format << ": 500 events scanned " << small
        << " bytes, 2000 events " << large << " bytes";
  }
  pk::telemetry::set_enabled(was_enabled);
}
