// Tests for the PKB binary columnar snapshot format and the trials that
// borrow their columns from a PKB image: text/binary differential
// round-trips over the shipped corpora, byte-exact writes whatever order
// a trial was built in, structural corruption diagnostics, and
// copy-on-write semantics of borrowed columns.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "io/format.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/snapshot.hpp"
#include "perfdmf/tau_format.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::perfdmf::Verify;
using pk::profile::Trial;

namespace {

Trial make_trial(const std::string& name, std::size_t threads = 3) {
  Trial t(name);
  const auto time = t.add_metric("TIME", "usec");
  const auto cyc = t.add_metric("CPU_CYCLES", "count", true);
  const auto main = t.add_event("main", pk::profile::kNoEvent, "PROC");
  const auto loop = t.add_event("main => loop", main, "LOOP");
  const auto mult = t.add_event("main => loop => mult", loop, "LOOP");
  t.set_thread_count(threads);
  for (std::size_t th = 0; th < threads; ++th) {
    for (pk::profile::EventId e : {main, loop, mult}) {
      t.set_inclusive(th, e, time, 1000.0 / (e + 1) + 0.25 * th);
      t.set_exclusive(th, e, time, 100.0 / (e + 1) + 0.25 * th);
      t.set_inclusive(th, e, cyc, 1.5e9 + e);
      t.set_exclusive(th, e, cyc, 0.5e9 + e);
      t.set_calls(th, e, 1.0 + e, 2.0 * e);
    }
  }
  t.set_metadata("hostname", "altix");
  t.set_metadata("schedule", "dynamic,1");
  return t;
}

// Exact structural + value equality between two trial surfaces.
void expect_trials_equal(const Trial& a, const Trial& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.thread_count(), b.thread_count());
  ASSERT_EQ(a.event_count(), b.event_count());
  ASSERT_EQ(a.metric_count(), b.metric_count());
  EXPECT_EQ(a.all_metadata(), b.all_metadata());
  for (pk::profile::MetricId m = 0; m < a.metric_count(); ++m) {
    EXPECT_EQ(a.metric(m).name, b.metric(m).name);
    EXPECT_EQ(a.metric(m).units, b.metric(m).units);
    EXPECT_EQ(a.metric(m).derived, b.metric(m).derived);
  }
  for (pk::profile::EventId e = 0; e < a.event_count(); ++e) {
    EXPECT_EQ(a.event(e).name, b.event(e).name);
    EXPECT_EQ(a.event(e).parent, b.event(e).parent);
    EXPECT_EQ(a.event(e).group, b.event(e).group);
  }
  for (std::size_t th = 0; th < a.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < a.event_count(); ++e) {
      for (pk::profile::MetricId m = 0; m < a.metric_count(); ++m) {
        // Bit-exact, not approximate: the formats both promise exact
        // round-trips of the value cube.
        EXPECT_EQ(a.inclusive(th, e, m), b.inclusive(th, e, m));
        EXPECT_EQ(a.exclusive(th, e, m), b.exclusive(th, e, m));
      }
      EXPECT_EQ(a.calls(th, e).calls, b.calls(th, e).calls);
      EXPECT_EQ(a.calls(th, e).subcalls, b.calls(th, e).subcalls);
    }
  }
}

std::string corpus_dir(const char* frontend) {
  return std::string(PERFKNOW_SOURCE_DIR) + "/fuzz/corpus/" + frontend;
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream os(p, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Deterministic cell values for the build-order tests.
double value(std::size_t th, std::size_t e, std::size_t m) {
  return static_cast<double>(th * 1000 + e * 10 + m) + 0.5;
}

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_pkb_" + std::to_string(::getpid()) + "_" +
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

// ---- round trips -------------------------------------------------------

TEST(PkbFormat, RoundTripIsExact) {
  const Trial t = make_trial("round trip");
  const std::string bytes = pk::perfdmf::to_pkb(t);
  const Trial back = pk::perfdmf::parse_pkb(bytes);
  expect_trials_equal(t, back);
}

TEST(PkbFormat, RoundTripEmptyAndZeroThreadTrials) {
  for (auto make : {+[] { return Trial("empty"); },
                    +[] {
                      Trial t("schema only");
                      t.add_metric("TIME", "usec");
                      t.add_event("main");
                      return t;
                    }}) {
    const Trial t = make();
    const Trial back = pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(t));
    expect_trials_equal(t, back);
  }
}

// The differential test the format ships with: every committed text
// corpus input that parses becomes Trial -> PKB -> Trial, both parsed in
// memory and opened from a file, and must survive exactly.
TEST(PkbFormat, DifferentialRoundTripOverShippedCorpora) {
  std::vector<Trial> trials;
  for (const auto& entry : fs::directory_iterator(corpus_dir("tau"))) {
    try {
      trials.push_back(
          pk::perfdmf::read_tau_stream(read_file(entry.path()), "corpus"));
    } catch (const pk::Error&) {
      // Rejection corpus entries exercise the parsers, not the formats.
    }
  }
  for (const auto& entry : fs::directory_iterator(corpus_dir("csv"))) {
    try {
      trials.push_back(pk::perfdmf::read_csv_long(read_file(entry.path())));
    } catch (const pk::Error&) {
    }
  }
  for (const auto& entry : fs::directory_iterator(corpus_dir("json"))) {
    try {
      trials.push_back(pk::perfdmf::from_json(read_file(entry.path())));
    } catch (const pk::Error&) {
    }
  }
  trials.push_back(make_trial("synthetic", 8));
  ASSERT_GT(trials.size(), 3u);

  TempDir dir;
  const fs::path file = dir.path() / "corpus.pkb";
  for (const Trial& t : trials) {
    const std::string bytes = pk::perfdmf::to_pkb(t);
    expect_trials_equal(t, pk::perfdmf::parse_pkb(bytes));
    write_file(file, bytes);
    expect_trials_equal(t, pk::perfdmf::open_pkb(file, Verify::kSchema));
  }
}

TEST(PkbFormat, CommittedCorpusSeedsParse) {
  std::size_t parsed = 0;
  for (const auto& entry : fs::directory_iterator(corpus_dir("pkb"))) {
    const Trial t = pk::perfdmf::parse_pkb(read_file(entry.path()));
    const Trial again = pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(t));
    expect_trials_equal(t, again);
    ++parsed;
  }
  EXPECT_GE(parsed, 3u);
}

// ---- one layout, whatever the build order -------------------------------

TEST(PkbFormat, BuildOrderDoesNotChangeTheBytes) {
  constexpr std::size_t kThreads = 5;
  constexpr std::size_t kEvents = 37;  // crosses several capacity doublings
  const auto fill = [](Trial& t) {
    for (std::size_t th = 0; th < kThreads; ++th) {
      for (pk::profile::EventId e = 0; e < kEvents; ++e) {
        for (pk::profile::MetricId m = 0; m < 2; ++m) {
          t.set_inclusive(th, e, m, value(th, e, m));
          t.set_exclusive(th, e, m, -value(th, e, m));
        }
        t.set_calls(th, e, value(th, e, 7), value(th, e, 8));
      }
    }
  };
  const auto add_events = [](Trial& t, std::size_t from, std::size_t to) {
    for (std::size_t e = from; e < to; ++e) {
      t.add_event("ev" + std::to_string(e),
                  e == 0 ? pk::profile::kNoEvent : 0, "LOOP");
    }
  };

  Trial threads_first("order");
  threads_first.set_thread_count(kThreads);
  threads_first.add_metric("TIME", "usec");
  threads_first.add_metric("CYC");
  add_events(threads_first, 0, kEvents);
  fill(threads_first);

  Trial schema_first("order");
  schema_first.add_metric("TIME", "usec");
  schema_first.add_metric("CYC");
  add_events(schema_first, 0, kEvents);
  schema_first.set_thread_count(kThreads);
  fill(schema_first);

  // As the CSV reader builds: threads grow row by row, interleaved with
  // the events each row names, and a metric arrives late.
  Trial csv_style("order");
  csv_style.add_metric("TIME", "usec");
  for (std::size_t th = 0; th < kThreads; ++th) {
    csv_style.set_thread_count(th + 1);
    add_events(csv_style, th * kEvents / kThreads,
               (th + 1) * kEvents / kThreads);
    if (th == 2) csv_style.add_metric("CYC");
  }
  fill(csv_style);

  const std::string bytes = pk::perfdmf::to_pkb(threads_first);
  EXPECT_EQ(pk::perfdmf::to_pkb(schema_first), bytes);
  EXPECT_EQ(pk::perfdmf::to_pkb(csv_style), bytes);
  expect_trials_equal(threads_first, pk::perfdmf::parse_pkb(bytes));
}

TEST(PkbFormat, ParseThenWriteReproducesTheInput) {
  std::vector<std::string> images{pk::perfdmf::to_pkb(make_trial("again")),
                                  pk::perfdmf::to_pkb(Trial("empty"))};
  for (const auto& entry : fs::directory_iterator(corpus_dir("pkb"))) {
    images.push_back(read_file(entry.path()));
  }
  for (const std::string& bytes : images) {
    const Trial t = pk::perfdmf::parse_pkb(bytes);
    EXPECT_EQ(pk::perfdmf::to_pkb(t), bytes) << t.name();
  }
}

// ---- borrowed columns --------------------------------------------------

TEST(PkbOpen, ServesSeriesFromTheBorrowedImage) {
  const Trial t = make_trial("lazy", 5);
  const Trial view = pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(t));
  ASSERT_TRUE(view.image());  // columns point into the parsed bytes

  const auto m = view.metric_id("TIME");
  const auto e = view.event_id("main => loop");
  const auto got = view.inclusive_series(e, m).to_vector();
  const auto want = t.inclusive_series(e, m).to_vector();
  EXPECT_EQ(got, want);
  EXPECT_EQ(view.exclusive_series(e, m).to_vector(),
            t.exclusive_series(e, m).to_vector());
  EXPECT_EQ(view.mean_inclusive(e, m), t.mean_inclusive(e, m));
  EXPECT_EQ(view.main_event(), t.main_event());
  EXPECT_EQ(view.children_of(view.event_id("main")).size(), 1u);
}

TEST(PkbOpen, OpenFromFileAndBoundsChecks) {
  TempDir dir;
  const Trial t = make_trial("on disk");
  const fs::path file = dir.path() / "trial.pkb";
  pk::io::save_trial(t, file);

  const Trial view = pk::perfdmf::open_pkb(file, Verify::kSchema);
  ASSERT_TRUE(view.image());
  EXPECT_EQ(view.image()->size(), fs::file_size(file));
  expect_trials_equal(t, view);
  EXPECT_THROW((void)view.inclusive(99, 0, 0), pk::InvalidArgumentError);
  EXPECT_THROW((void)view.inclusive(0, 99, 0), pk::InvalidArgumentError);
  EXPECT_THROW((void)view.inclusive(0, 0, 99), pk::InvalidArgumentError);
  EXPECT_THROW((void)view.event(99), pk::InvalidArgumentError);
}

TEST(PkbOpen, CopiesOwnTheirColumnsOnFirstWrite) {
  const Trial t = make_trial("copied");
  const Trial view = pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(t));
  Trial copy = view;
  EXPECT_EQ(copy.image(), view.image());  // a copy shares the image
  // Metadata and name edits keep borrowing...
  copy.set_metadata("note", "edited");
  copy.set_name("renamed");
  EXPECT_EQ(copy.image(), view.image());
  // ...the first value write takes owned columns, and the original
  // never sees it.
  copy.set_inclusive(0, 0, 0, -1.0);
  EXPECT_FALSE(copy.image());
  EXPECT_TRUE(view.image());
  EXPECT_EQ(copy.inclusive(0, 0, 0), -1.0);
  EXPECT_EQ(view.inclusive(0, 0, 0), t.inclusive(0, 0, 0));
  EXPECT_EQ(copy.inclusive(2, 1, 1), t.inclusive(2, 1, 1));

  // Schema growth owns too, and keeps every value.
  Trial grown = view;
  const auto extra = grown.add_event("main => extra");
  grown.set_thread_count(view.thread_count() + 2);
  EXPECT_FALSE(grown.image());
  EXPECT_EQ(grown.inclusive(2, 1, 1), t.inclusive(2, 1, 1));
  EXPECT_EQ(grown.inclusive(4, extra, 0), 0.0);
  EXPECT_EQ(grown.calls(1, 2).calls, t.calls(1, 2).calls);
}

// ---- corruption --------------------------------------------------------

TEST(PkbCorruption, EveryTruncationIsAParseError) {
  const std::string bytes = pk::perfdmf::to_pkb(make_trial("trunc"));
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{3}, std::size_t{4}, std::size_t{8},
        std::size_t{12}, std::size_t{24}, bytes.size() / 2,
        bytes.size() - 24, bytes.size() - 8, bytes.size() - 1}) {
    EXPECT_THROW((void)pk::perfdmf::parse_pkb(bytes.substr(0, n)),
                 pk::ParseError)
        << "prefix of " << n << " bytes";
  }
  // ... and trailing garbage after the end marker is rejected too.
  EXPECT_THROW((void)pk::perfdmf::parse_pkb(bytes + "x"), pk::ParseError);
}

TEST(PkbCorruption, BadMagicAndVersion) {
  std::string bytes = pk::perfdmf::to_pkb(make_trial("magic"));
  std::string flipped = bytes;
  flipped[0] = 'Q';
  EXPECT_THROW((void)pk::perfdmf::parse_pkb(flipped), pk::ParseError);
  std::string version = bytes;
  version[4] = 9;
  EXPECT_THROW((void)pk::perfdmf::parse_pkb(version), pk::ParseError);
}

TEST(PkbCorruption, ChecksumMismatchNamesByteOffset) {
  std::string bytes = pk::perfdmf::to_pkb(make_trial("crc"));
  // Flip one byte inside the COLS payload (the cube starts well past the
  // schema; the last 24 bytes are the end marker + padding).
  bytes[bytes.size() - 32] ^= 0x01;
  try {
    (void)pk::perfdmf::parse_pkb(bytes);
    FAIL() << "corrupt checksum not detected";
  } catch (const pk::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }
}

TEST(PkbCorruption, SchemaOnlyOpenSkipsColumnsButFullOpenChecks) {
  TempDir dir;
  std::string bytes = pk::perfdmf::to_pkb(make_trial("lazy crc"));
  bytes[bytes.size() - 32] ^= 0x01;
  const fs::path file = dir.path() / "lazy.pkb";
  write_file(file, bytes);
  // A schema-only open is O(schema): the flipped column byte goes
  // unseen...
  const Trial view = pk::perfdmf::open_pkb(file, Verify::kSchema);
  EXPECT_EQ(view.name(), "lazy crc");
  // ...full verification and the in-memory parse both catch it.
  EXPECT_THROW((void)pk::perfdmf::open_pkb(file, Verify::kFull),
               pk::ParseError);
  EXPECT_THROW((void)pk::perfdmf::parse_pkb(bytes), pk::ParseError);
}

TEST(PkbCorruption, VerifyPkbColumnsChecksSchemaOnlyOpens) {
  TempDir dir;
  std::string bytes = pk::perfdmf::to_pkb(make_trial("upgrade"));
  const fs::path good = dir.path() / "good.pkb";
  write_file(good, bytes);
  EXPECT_NO_THROW(pk::perfdmf::verify_pkb_columns(
      pk::perfdmf::open_pkb(good, Verify::kSchema)));
  bytes[bytes.size() - 32] ^= 0x01;
  const fs::path bad = dir.path() / "bad.pkb";
  write_file(bad, bytes);
  const Trial view = pk::perfdmf::open_pkb(bad, Verify::kSchema);
  try {
    pk::perfdmf::verify_pkb_columns(view);
    FAIL() << "corrupt columns passed verification";
  } catch (const pk::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  // A trial that owns its columns has nothing left to check.
  Trial owned = view;
  owned.set_inclusive(0, 0, 0, 1.0);
  EXPECT_NO_THROW(pk::perfdmf::verify_pkb_columns(owned));
}

TEST(PkbCorruption, OversizedDimensionsAreRejectedBeforeAllocation) {
  std::string bytes = pk::perfdmf::to_pkb(make_trial("dims"));
  // The SCHM payload begins at offset 24 with the u64 thread count;
  // patch it far beyond kMaxThreads. The section checksum guards the
  // payload, so the patch has to recompute it (crc field at offset 12,
  // length field at offset 16) — which also proves the dimension check
  // fires on a structurally pristine file.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + 24, &huge, sizeof(huge));
  std::uint64_t payload_len = 0;
  std::memcpy(&payload_len, bytes.data() + 16, sizeof(payload_len));
  const std::uint32_t crc = pk::crc32(bytes.data() + 24, payload_len);
  std::memcpy(bytes.data() + 12, &crc, sizeof(crc));
  try {
    (void)pk::perfdmf::parse_pkb(bytes);
    FAIL() << "oversized thread count not detected";
  } catch (const pk::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("thread"), std::string::npos)
        << e.what();
  }
}

TEST(PkbCorruption, LoadErrorsNameTheFile) {
  TempDir dir;
  const fs::path file = dir.path() / "broken.pkb";
  {
    std::string bytes = pk::perfdmf::to_pkb(make_trial("named"));
    bytes[bytes.size() - 32] ^= 0x01;
    std::ofstream os(file, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)pk::io::open_trial(file);
    FAIL() << "corrupt file loaded";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), file.string());
    EXPECT_NE(std::string(e.what()).find("broken.pkb"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
        << e.what();
  }
  // The lazy open path diagnoses identically (schema sections verify).
  std::string truncated = read_file(file).substr(0, 20);
  const fs::path shortfile = dir.path() / "short.pkb";
  {
    std::ofstream os(shortfile, std::ios::binary);
    os.write(truncated.data(),
             static_cast<std::streamsize>(truncated.size()));
  }
  try {
    (void)pk::perfdmf::open_pkb(shortfile, Verify::kSchema);
    FAIL() << "truncated file opened";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), shortfile.string());
  }
}
