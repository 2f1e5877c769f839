// Tests for the PKB binary columnar snapshot format and the trials that
// borrow their columns from a PKB image: text/binary differential
// round-trips over the shipped corpora, byte-exact writes whatever order
// a trial was built in, structural corruption diagnostics, and
// copy-on-write semantics of borrowed columns.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "io/format.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/snapshot.hpp"
#include "perfdmf/tau_format.hpp"
#include "telemetry/telemetry.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
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

/// Header offset of the section tagged `tag` in a PKB image, walking
/// the section chain from the file header; npos when there is none.
std::size_t section_at(const std::string& bytes, std::string_view tag) {
  std::size_t pos = 8;
  while (pos + 16 <= bytes.size()) {
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos + 8, sizeof len);
    if (bytes.compare(pos, 4, tag) == 0) return pos;
    pos += 16 + ((len + 7) & ~std::uint64_t{7});
  }
  return std::string::npos;
}

/// Re-signs the section whose header is at `header` after an edit.
void resign(std::string& bytes, std::size_t header) {
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + header + 8, sizeof len);
  const std::uint32_t crc = pk::crc32(bytes.data() + header + 16, len);
  std::memcpy(bytes.data() + header + 4, &crc, sizeof crc);
}

/// The image as a writer without the SUMM section produced it.
std::string without_summary(const std::string& bytes) {
  const std::size_t at = section_at(bytes, "SUMM");
  if (at == std::string::npos) return bytes;
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + at + 8, sizeof len);
  return bytes.substr(0, at) + bytes.substr(at + 16 + len);
}

/// True when a and b have the same bits, NaN payload and sign included.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every value the written SUMM section holds for `t` (read back through
/// a parsed image) equals the stats:: reduction over `t`'s series, bit
/// for bit.
void expect_summary_exact(const Trial& t) {
  const Trial back = pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(t));
  ASSERT_NE(back.borrowed_summary(), nullptr) << t.name();
  for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      for (const bool exclusive : {false, true}) {
        const auto xs =
            exclusive ? t.exclusive_series(e, m) : t.inclusive_series(e, m);
        pk::profile::SeriesSummary want;
        double mean = 0.0;
        if (!xs.empty()) {
          want = {pk::stats::sum(xs), pk::stats::stddev(xs),
                  pk::stats::min(xs), pk::stats::max(xs)};
          mean = pk::stats::mean(xs);
        }
        const auto got = back.series_summary(e, m, exclusive);
        const std::string where = t.name() + " metric " + std::to_string(m) +
                                  " event " + std::to_string(e) +
                                  (exclusive ? " exclusive" : " inclusive");
        EXPECT_TRUE(same_bits(got.total, want.total)) << where;
        EXPECT_TRUE(same_bits(got.stddev, want.stddev)) << where;
        EXPECT_TRUE(same_bits(got.min, want.min)) << where;
        EXPECT_TRUE(same_bits(got.max, want.max)) << where;
        EXPECT_TRUE(same_bits(exclusive ? back.mean_exclusive(e, m)
                                        : back.mean_inclusive(e, m),
                              mean))
            << where;
        // The owned trial's cell path gives the same summary.
        const auto cells = t.series_summary(e, m, exclusive);
        EXPECT_TRUE(same_bits(cells.total, want.total)) << where;
        EXPECT_TRUE(same_bits(cells.stddev, want.stddev)) << where;
      }
    }
  }
}

/// A trial whose event e holds special-cell mix (e + shift) % 6 across
/// nine threads (two full four-row blocks and a one-row block): plain
/// values over 24 binary orders of magnitude, a NaN, signed zeros only,
/// a +inf, 1e16/1e-16 mixes that Kahan summation sums differently from
/// naive summation, and -0.0 first with -inf last.
Trial lane_trial(std::size_t events, std::size_t shift) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kThreads = 9;
  Trial t("lanes " + std::to_string(events) + " shift " +
          std::to_string(shift));
  const auto time = t.add_metric("TIME", "usec");
  const auto cyc = t.add_metric("CYC");
  for (std::size_t e = 0; e < events; ++e) {
    t.add_event("ev" + std::to_string(e));
  }
  t.set_thread_count(kThreads);
  std::uint64_t x = 977 + events * 31 + shift;
  for (pk::profile::EventId e = 0; e < events; ++e) {
    const std::size_t mix = (e + shift) % 6;
    for (std::size_t th = 0; th < kThreads; ++th) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      double v = std::ldexp(static_cast<double>(x >> 40),
                            static_cast<int>(x % 24) - 12);
      switch (mix) {
        case 1:
          if (th == (e + shift) % kThreads) v = nan;
          break;
        case 2:
          v = th % 2 == 0 ? 0.0 : -0.0;
          break;
        case 3:
          if (th == (3 * e + shift) % kThreads) v = inf;
          break;
        case 4: {
          const double mag[3] = {1e16, 1e-16, -1e16};
          v = mag[(th + e) % 3] * (th % 4 == 3 ? 3.0 : 1.0);
          break;
        }
        case 5:
          if (th == 0) v = -0.0;
          if (th == kThreads - 1) v = -inf;
          break;
        default:
          break;
      }
      t.set_inclusive(th, e, time, v);
      t.set_exclusive(th, e, time, -v);
      t.set_inclusive(th, e, cyc, v * 1e6);
      t.set_exclusive(th, e, cyc, v * 1e-6);
    }
  }
  return t;
}

/// Every trial the shipped text corpora parse into.
std::vector<Trial> corpus_trials() {
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
  return trials;
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
  std::vector<Trial> trials = corpus_trials();
  trials.push_back(make_trial("synthetic", 8));
  ASSERT_GT(trials.size(), 3u);

  TempDir dir;
  const fs::path file = dir.path() / "corpus.pkb";
  for (const Trial& t : trials) {
    const std::string bytes = pk::perfdmf::to_pkb(t);
    expect_trials_equal(t, pk::perfdmf::parse_pkb(bytes));
    write_file(file, bytes);
    expect_trials_equal(t, pk::perfdmf::open_pkb(file));
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

// What the writer produces, parse -> write reproduces byte for byte. A
// snapshot written before SUMM existed gains the section on its first
// rewrite, keeps every cell, and is a fixed point from then on.
TEST(PkbFormat, ParseThenWriteReproducesTheInput) {
  std::vector<std::string> images{pk::perfdmf::to_pkb(make_trial("again")),
                                  pk::perfdmf::to_pkb(Trial("empty"))};
  std::size_t legacy = 0;
  for (const auto& entry : fs::directory_iterator(corpus_dir("pkb"))) {
    const std::string bytes = read_file(entry.path());
    if (section_at(bytes, "SUMM") != std::string::npos) {
      images.push_back(bytes);
      continue;
    }
    ++legacy;
    const Trial old_trial = pk::perfdmf::parse_pkb(bytes);
    EXPECT_EQ(old_trial.borrowed_summary(), nullptr);
    const std::string first = pk::perfdmf::to_pkb(old_trial);
    EXPECT_NE(section_at(first, "SUMM"), std::string::npos);
    const Trial rewritten = pk::perfdmf::parse_pkb(first);
    expect_trials_equal(old_trial, rewritten);
    EXPECT_EQ(pk::perfdmf::to_pkb(rewritten), first) << entry.path();
    EXPECT_EQ(without_summary(first), bytes) << entry.path();
  }
  EXPECT_GE(legacy, 3u);
  EXPECT_GT(images.size(), 2u);  // the committed with_summary.pkb
  for (const std::string& bytes : images) {
    const Trial t = pk::perfdmf::parse_pkb(bytes);
    EXPECT_EQ(pk::perfdmf::to_pkb(t), bytes) << t.name();
  }
}

// A trial still borrowing its image copies SUMM and COLS back verbatim;
// the row walk over an owned copy must give the same bytes.
TEST(PkbFormat, BorrowingTrialWritesTheBytesOfItsOwnedCopy) {
  std::vector<Trial> sources = corpus_trials();
  sources.push_back(make_trial("verbatim"));
  sources.push_back(make_trial("one thread", 1));
  Trial renamed = pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(
      make_trial("before")));
  // Name and metadata edits keep borrowing; they land in SCHM and META.
  renamed.set_name("after");
  renamed.set_metadata("version.predecessor", "v0");
  sources.push_back(renamed);
  std::size_t compared = 0;
  for (const Trial& source : sources) {
    if (source.thread_count() == 0 || source.event_count() == 0) continue;
    const Trial borrowing =
        source.image() ? source
                       : pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(source));
    ASSERT_TRUE(borrowing.image()) << source.name();
    Trial owned = borrowing;
    const auto calls = owned.calls(0, 0);
    owned.set_calls(0, 0, calls.calls, calls.subcalls);  // copies the cells
    ASSERT_FALSE(owned.image()) << source.name();
    EXPECT_EQ(pk::perfdmf::to_pkb(borrowing), pk::perfdmf::to_pkb(owned))
        << source.name();
    ++compared;
  }
  EXPECT_GT(compared, 10u);
  EXPECT_EQ(pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(renamed)).name(),
            "after");
}

// ---- summary profile ---------------------------------------------------

TEST(PkbSummary, EqualsTheStatsReductionOverEverySeries) {
  std::vector<Trial> trials = corpus_trials();
  for (const auto& entry : fs::directory_iterator(corpus_dir("pkb"))) {
    trials.push_back(pk::perfdmf::parse_pkb(read_file(entry.path())));
  }
  trials.push_back(make_trial("synthetic", 8));
  Trial zero("zero threads");
  zero.add_metric("TIME", "usec");
  zero.add_event("main");
  trials.push_back(zero);
  // NaN and infinite cells, signed zeros, and magnitudes that make
  // Kahan summation differ from naive summation.
  Trial odd("odd cells");
  {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto time = odd.add_metric("TIME", "usec");
    for (const char* name : {"a", "b", "c", "d"}) odd.add_event(name);
    odd.set_thread_count(5);
    const double cells[4][5] = {{1e16, 1.0, -1e16, 3.5, 1e-8},
                                {0.0, -0.0, 0.0, -0.0, 0.0},
                                {1.0, nan, 2.0, 3.0, 4.0},
                                {inf, 1.0, -2.0, 4.0, 0.5}};
    for (pk::profile::EventId e = 0; e < 4; ++e) {
      for (std::size_t th = 0; th < 5; ++th) {
        odd.set_inclusive(th, e, time, cells[e][th]);
        odd.set_exclusive(th, e, time, -cells[e][th]);
      }
    }
  }
  trials.push_back(odd);
  // A larger cube whose values span nine orders of magnitude.
  Trial wide("wide");
  {
    const auto time = wide.add_metric("TIME", "usec");
    const auto cyc = wide.add_metric("CYC");
    wide.set_thread_count(64);
    std::uint64_t x = 12345;
    for (std::size_t e = 0; e < 300; ++e) {
      const auto id = wide.add_event("ev" + std::to_string(e));
      for (std::size_t th = 0; th < 64; ++th) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const double v = std::ldexp(static_cast<double>(x >> 40),
                                    static_cast<int>(x % 30) - 20);
        wide.set_inclusive(th, id, time, v * 3.0);
        wide.set_exclusive(th, id, time, v);
        wide.set_inclusive(th, id, cyc, v * 1e6);
        wide.set_exclusive(th, id, cyc, v * 7e5);
      }
    }
  }
  trials.push_back(wide);
  // Event counts below, at and past the summarizer's four-event vectors
  // (1, 2, 3: tail only; 5, 7: one vector and a tail; 2001: 500 vectors
  // and a one-event tail). Over the six shifts, every event position
  // holds every mix of special cells.
  for (const std::size_t events : {1u, 2u, 3u, 5u, 7u, 2001u}) {
    for (std::size_t shift = 0; shift < 6; ++shift) {
      trials.push_back(lane_trial(events, shift));
    }
  }
  for (const Trial& t : trials) expect_summary_exact(t);
}

TEST(PkbSummary, BorrowedSummaryServesMeansUntilTheTrialOwnsItsColumns) {
  const Trial t = make_trial("served", 4);
  std::string bytes = pk::perfdmf::to_pkb(t);
  // Plant a (checksum-valid) summary total that the columns contradict:
  // a summary-level reader sees the plant, so it really reads SUMM.
  const std::size_t summ = section_at(bytes, "SUMM");
  ASSERT_NE(summ, std::string::npos);
  const double planted = 12345.0 * 4;  // mean 12345 over four threads
  std::memcpy(bytes.data() + summ + 16, &planted, sizeof planted);
  resign(bytes, summ);
  TempDir dir;
  const fs::path file = dir.path() / "planted.pkb";
  write_file(file, bytes);
  const Trial view = pk::perfdmf::open_pkb(file);
  ASSERT_NE(view.borrowed_summary(), nullptr);
  EXPECT_EQ(view.mean_inclusive(0, 0), 12345.0);
  // The first value write owns the columns; the summary goes with the
  // image, and the means come from the cells again.
  Trial copy = view;
  copy.set_calls(0, 0, 1.0, 0.0);
  EXPECT_EQ(copy.borrowed_summary(), nullptr);
  EXPECT_EQ(copy.mean_inclusive(0, 0), t.mean_inclusive(0, 0));
}

TEST(PkbSummary, SnapshotsWithoutSummaryServeAggregatesFromTheCells) {
  TempDir dir;
  const Trial t = make_trial("legacy", 4);
  const std::string bytes = without_summary(pk::perfdmf::to_pkb(t));
  ASSERT_EQ(section_at(bytes, "SUMM"), std::string::npos);
  const fs::path file = dir.path() / "legacy.pkb";
  write_file(file, bytes);
  const Trial view = pk::perfdmf::open_pkb(file);
  EXPECT_EQ(view.borrowed_summary(), nullptr);
  expect_trials_equal(t, view);
  for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
    EXPECT_EQ(view.mean_exclusive(e, 1), t.mean_exclusive(e, 1));
    EXPECT_EQ(view.series_summary(e, 0, false).stddev,
              t.series_summary(e, 0, false).stddev);
  }
  // Without a summary, the open checks the columns.
  std::string bad = bytes;
  bad[bad.size() - 32] ^= 0x01;
  write_file(file, bad);
  try {
    (void)pk::perfdmf::open_pkb(file);
    FAIL() << "corrupt columns of a snapshot without SUMM opened";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), file.string());
    EXPECT_NE(std::string(e.what()).find("bad section checksum in 'COLS'"),
              std::string::npos)
        << e.what();
  }
}

// Each read level checksums each section once: an open checks SUMM, and
// verify_pkb_columns then checks COLS without checking SUMM again. A
// snapshot without SUMM has its columns checked by the open, and not
// again by verify_pkb_columns or parse_pkb.
TEST(PkbSummary, EachSectionIsChecksummedOncePerRead) {
  TempDir dir;
  const Trial t = make_trial("counted", 4);
  const fs::path with = dir.path() / "with.pkb";
  const fs::path without = dir.path() / "without.pkb";
  write_file(with, pk::perfdmf::to_pkb(t));
  write_file(without, without_summary(pk::perfdmf::to_pkb(t)));
  pk::telemetry::Counter& summaries =
      pk::telemetry::counter("perfdmf.snapshot.summary_checked");
  pk::telemetry::Counter& columns =
      pk::telemetry::counter("perfdmf.snapshot.columns_checked");
  const bool was_enabled = pk::telemetry::enabled();
  pk::telemetry::set_enabled(true);
  // (summary checks, column checks) made by `read`.
  const auto checks = [&](const std::function<void()>& read) {
    const std::uint64_t s0 = summaries.value();
    const std::uint64_t c0 = columns.value();
    read();
    return std::pair{summaries.value() - s0, columns.value() - c0};
  };
  using Checks = std::pair<std::uint64_t, std::uint64_t>;
  std::optional<Trial> view;
  EXPECT_EQ(checks([&] { view = pk::perfdmf::open_pkb(with); }),
            (Checks{1, 0}));
  EXPECT_EQ(checks([&] { pk::perfdmf::verify_pkb_columns(*view); }),
            (Checks{0, 1}));
  EXPECT_EQ(checks([&] {
              (void)pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(t));
            }),
            (Checks{1, 1}));
  EXPECT_EQ(checks([&] { view = pk::perfdmf::open_pkb(without); }),
            (Checks{0, 1}));
  EXPECT_EQ(checks([&] { pk::perfdmf::verify_pkb_columns(*view); }),
            (Checks{0, 0}));
  EXPECT_EQ(checks([&] {
              (void)pk::perfdmf::parse_pkb(read_file(without));
            }),
            (Checks{0, 1}));
  pk::telemetry::set_enabled(was_enabled);
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
  const auto main = view.event_id("main");
  std::size_t children = 0;
  for (pk::profile::EventId id = 0; id < view.event_count(); ++id) {
    children += view.event(id).parent == main ? 1 : 0;
  }
  EXPECT_EQ(children, 1u);
}

TEST(PkbOpen, OpenFromFileAndBoundsChecks) {
  TempDir dir;
  const Trial t = make_trial("on disk");
  const fs::path file = dir.path() / "trial.pkb";
  pk::io::save_trial(t, file);

  const Trial view = pk::perfdmf::open_pkb(file);
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

TEST(PkbCorruption, OpenSkipsColumnsButVerifyAndParseCheck) {
  TempDir dir;
  std::string bytes = pk::perfdmf::to_pkb(make_trial("lazy crc"));
  bytes[bytes.size() - 32] ^= 0x01;
  const fs::path file = dir.path() / "lazy.pkb";
  write_file(file, bytes);
  // An open does not read the cells: the flipped column byte goes
  // unseen...
  const Trial view = pk::perfdmf::open_pkb(file);
  EXPECT_EQ(view.name(), "lazy crc");
  // ...the column check and the in-memory parse both catch it.
  EXPECT_THROW(pk::perfdmf::verify_pkb_columns(view), pk::ParseError);
  EXPECT_THROW((void)pk::perfdmf::parse_pkb(bytes), pk::ParseError);
  // Rewriting the borrowing trial keeps the stored column checksum, so
  // the copy is as detectably corrupt as the original.
  EXPECT_THROW((void)pk::perfdmf::parse_pkb(pk::perfdmf::to_pkb(view)),
               pk::ParseError);
}

TEST(PkbCorruption, VerifyPkbColumnsChecksOpenedSnapshots) {
  TempDir dir;
  std::string bytes = pk::perfdmf::to_pkb(make_trial("upgrade"));
  const fs::path good = dir.path() / "good.pkb";
  write_file(good, bytes);
  EXPECT_NO_THROW(
      pk::perfdmf::verify_pkb_columns(pk::perfdmf::open_pkb(good)));
  bytes[bytes.size() - 32] ^= 0x01;
  const fs::path bad = dir.path() / "bad.pkb";
  write_file(bad, bytes);
  const Trial view = pk::perfdmf::open_pkb(bad);
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

namespace {

/// Expects `open` to throw a ParseError whose text names `file`, the
/// byte offset `offset` and `what`.
template <typename Open>
void expect_located(Open&& open, const fs::path& file, std::size_t offset,
                    const std::string& what) {
  try {
    open();
    ADD_FAILURE() << "no ParseError for " << what;
  } catch (const pk::ParseError& e) {
    const std::string text = e.what();
    EXPECT_EQ(e.file(), file.string()) << text;
    EXPECT_NE(text.find("byte offset " + std::to_string(offset)),
              std::string::npos)
        << text;
    EXPECT_NE(text.find(what), std::string::npos) << text;
  }
}

}  // namespace

TEST(PkbCorruption, BadSummaryChecksumIsLocated) {
  TempDir dir;
  std::string bytes = pk::perfdmf::to_pkb(make_trial("summ crc"));
  const std::size_t summ = section_at(bytes, "SUMM");
  ASSERT_NE(summ, std::string::npos);
  bytes[summ + 16 + 9] ^= 0x01;
  const fs::path file = dir.path() / "summ_crc.pkb";
  write_file(file, bytes);
  expect_located([&] { (void)pk::perfdmf::open_pkb(file); }, file, summ,
                 "bad section checksum in 'SUMM'");
  expect_located([&] { (void)pk::io::open_trial(file); }, file, summ,
                 "bad section checksum in 'SUMM'");
  EXPECT_THROW((void)pk::perfdmf::parse_pkb(bytes), pk::ParseError);
}

TEST(PkbCorruption, SummaryLengthMustMatchTheSchema) {
  TempDir dir;
  const std::string good = pk::perfdmf::to_pkb(make_trial("summ len"));
  const std::size_t summ = section_at(good, "SUMM");
  ASSERT_NE(summ, std::string::npos);
  // Drop the last summary value and re-sign: the section is well formed
  // but one value short.
  std::uint64_t len = 0;
  std::memcpy(&len, good.data() + summ + 8, sizeof len);
  std::string bytes = good.substr(0, summ + 16 + len - 8) +
                      good.substr(summ + 16 + len);
  len -= 8;
  std::memcpy(bytes.data() + summ + 8, &len, sizeof len);
  resign(bytes, summ);
  const fs::path file = dir.path() / "summ_len.pkb";
  write_file(file, bytes);
  expect_located([&] { (void)pk::perfdmf::open_pkb(file); }, file, summ,
                 "summary section is " + std::to_string(len) +
                     " bytes, schema requires " + std::to_string(len + 8));
}

TEST(PkbCorruption, SummaryThatDisagreesWithTheColumnsIsLocated) {
  TempDir dir;
  const Trial t = make_trial("summ lie", 3);
  std::string bytes = pk::perfdmf::to_pkb(t);
  const std::size_t summ = section_at(bytes, "SUMM");
  ASSERT_NE(summ, std::string::npos);
  // The stddev of metric 0's exclusive series of event 1, nudged and
  // re-signed: SUMM passes its checksum but no longer matches COLS.
  const std::size_t value = summ + 16 + ((1 * 3 + 1) * 4 + 1) * 8;
  double v = 0.0;
  std::memcpy(&v, bytes.data() + value, sizeof v);
  v = std::nextafter(v, 1e9);
  std::memcpy(bytes.data() + value, &v, sizeof v);
  resign(bytes, summ);
  const fs::path file = dir.path() / "summ_lie.pkb";
  write_file(file, bytes);
  // An opened trial trusts the checksummed summary...
  const Trial view = pk::perfdmf::open_pkb(file);
  EXPECT_EQ(view.series_summary(1, 0, true).stddev, v);
  // ...every check of the columns compares it with them.
  const std::string what =
      "summary disagrees with the value columns: exclusive TIME of event "
      "'main => loop' has stddev";
  expect_located([&] { (void)pk::io::open_trial(file); }, file, value, what);
  try {
    pk::perfdmf::verify_pkb_columns(view);
    FAIL() << "disagreeing summary passed verify_pkb_columns";
  } catch (const pk::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)pk::perfdmf::parse_pkb(bytes), pk::ParseError);
  // A damaged column byte is a bad checksum, not a disagreeing summary.
  std::string cols = pk::perfdmf::to_pkb(t);
  cols[cols.size() - 32] ^= 0x01;
  try {
    (void)pk::perfdmf::parse_pkb(cols);
    FAIL() << "corrupt columns parsed";
  } catch (const pk::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("bad section checksum in 'COLS'"),
              std::string::npos)
        << e.what();
  }
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
    (void)pk::perfdmf::open_pkb(shortfile);
    FAIL() << "truncated file opened";
  } catch (const pk::ParseError& e) {
    EXPECT_EQ(e.file(), shortfile.string());
  }
}
