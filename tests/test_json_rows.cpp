// The JSON reader's row fast path (perfdmf/json_format.cpp, WriterRow):
// a data row spelled exactly as write_json writes it is matched byte for
// byte; any other row goes through the general tokenizing path. These
// tests pin that the writer's own output never needs the general path,
// that a row read either way gives bit-identical trials, and that rows
// which fail still fail with the same located ParseError.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/file.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "io/format.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/limits.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/tau_format.hpp"
#include "profile/profile.hpp"
#include "telemetry/telemetry.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::profile::Trial;

namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_json_rows_" + std::to_string(::getpid()) + "_" +
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

/// Rows read by each path while `read` runs (telemetry counters
/// "perfdmf.json.rows.fast" / ".general").
struct RowPaths {
  std::uint64_t fast = 0;
  std::uint64_t general = 0;
};

RowPaths count_rows(const std::function<void()>& read) {
  auto& fast = pk::telemetry::counter("perfdmf.json.rows.fast");
  auto& general = pk::telemetry::counter("perfdmf.json.rows.general");
  const bool was_enabled = pk::telemetry::enabled();
  pk::telemetry::set_enabled(true);
  const std::uint64_t fast0 = fast.value();
  const std::uint64_t general0 = general.value();
  read();
  pk::telemetry::set_enabled(was_enabled);
  return {fast.value() - fast0, general.value() - general0};
}

/// A trial's exact bits: its PKB image.
std::string bits(const Trial& t) { return pk::perfdmf::to_pkb(t); }

Trial synthetic(const std::string& name, std::size_t threads,
                std::size_t metrics, std::size_t events) {
  Trial t(name);
  t.set_thread_count(threads);
  for (std::size_t m = 0; m < metrics; ++m) {
    t.add_metric("M" + std::to_string(m), m == 0 ? "usec" : "count");
  }
  const auto main =
      t.add_event("main", pk::profile::kNoEvent, "TAU_DEFAULT");
  for (std::size_t e = 1; e < events; ++e) {
    t.add_event("main => f" + std::to_string(e),
                e % 2 == 0 ? main : pk::profile::kNoEvent, "TAU_CALLPATH");
  }
  for (std::size_t th = 0; th < threads; ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      if ((th + e) % 5 == 3) continue;  // an all-zero row the writer omits
      const double x = static_cast<double>(th + 1) * 0.1 +
                       static_cast<double>(e) * 1e-3;
      t.set_calls(th, e, static_cast<double>(e + 1), e % 3 == 0 ? 0.5 : 0.0);
      for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
        t.set_inclusive(th, e, m, m % 2 == 0 ? x * 1e20 : x + m);
        t.set_exclusive(th, e, m, m % 3 == 0 ? -x * 1e-300 : 1000.0 * m);
      }
    }
  }
  return t;
}

Trial escaped_names() {
  Trial t = synthetic("esc \"q\" \\ \t\x01 caf\xC3\xA9", 2, 1, 1);
  t.add_event("main => \"quoted\" \\ back", 0, "G\tTAB");
  t.add_event("line\nbreak \x1f ctl", pk::profile::kNoEvent, "");
  t.set_inclusive(1, 2, 0, 3.5);
  t.set_calls(0, 1, 2.0, 0.0);
  t.set_metadata("k\"ey\n", "v\\al\tue");
  return t;
}

std::string slurp(const fs::path& p) {
  return pk::read_file_bytes(p, "test input");
}

/// Every trial the committed text corpora parse into, and the
/// synthetic shapes: 1 and 8 metrics, 0 metrics, 1 thread, and names
/// that need escapes.
std::vector<Trial> trials() {
  std::vector<Trial> out;
  const fs::path corpus = fs::path(PERFKNOW_SOURCE_DIR) / "fuzz" / "corpus";
  for (const char* fe : {"tau", "csv", "json"}) {
    for (const auto& entry : fs::directory_iterator(corpus / fe)) {
      const std::string bytes = slurp(entry.path());
      try {
        out.push_back(fe == std::string("tau")
                          ? pk::perfdmf::read_tau_stream(bytes, "corpus")
                      : fe == std::string("csv")
                          ? pk::perfdmf::read_csv_long(bytes)
                          : pk::perfdmf::from_json(bytes));
      } catch (const pk::Error&) {
        // Near-miss seeds exercise the readers, not the trials.
      }
    }
  }
  out.push_back(synthetic("one metric", 4, 1, 7));
  out.push_back(synthetic("eight metrics", 3, 8, 5));
  out.push_back(synthetic("no metrics", 3, 0, 4));
  out.push_back(synthetic("one thread", 1, 2, 6));
  out.push_back(escaped_names());
  return out;
}

// ---- rewriting a document's data rows ------------------------------------

/// The fields of one writer-layout data row, as text.
struct RowText {
  std::string thread, event, calls, subcalls, values;
};

/// What write_json puts before each row's '{', after the first row's
/// comma.
constexpr std::string_view kRowIndent = "\n    ";

/// Splits a write_json document into the text before its rows, the
/// rows, and the text after them.
void split_rows(const std::string& doc, std::string& head,
                std::vector<RowText>& rows, std::string& tail) {
  const std::size_t data = doc.find("\"data\": [");
  ASSERT_NE(data, std::string::npos);
  std::size_t pos = data + 9;
  head = doc.substr(0, pos);
  rows.clear();
  const auto field = [&](std::string_view key, std::string_view until) {
    const std::size_t at = doc.find(key, pos);
    const std::size_t from = at + key.size();
    pos = doc.find(until, from);
    return doc.substr(from, pos - from);
  };
  for (;;) {
    if (doc.compare(pos, 1, ",") == 0) ++pos;
    if (doc.compare(pos, kRowIndent.size() + 1,
                    std::string(kRowIndent) + "{") != 0) {
      break;
    }
    RowText r;
    r.thread = field("{\"thread\": ", ", ");
    r.event = field("\"event\": ", ", ");
    r.calls = field("\"calls\": ", ", ");
    r.subcalls = field("\"subcalls\": ", ", ");
    r.values = field("\"values\": ", "]}") + "]";
    pos += 2;  // the row's "]}"
    rows.push_back(std::move(r));
  }
  tail = doc.substr(pos);
}

using RowStyle = std::function<std::string(const RowText&)>;

std::string writer_row(const RowText& r) {
  return "{\"thread\": " + r.thread + ", \"event\": " + r.event +
         ", \"calls\": " + r.calls + ", \"subcalls\": " + r.subcalls +
         ", \"values\": " + r.values + "}";
}

std::string join_rows(const std::string& head,
                      const std::vector<RowText>& rows,
                      const std::string& tail, const RowStyle& style) {
  std::string out = head;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i != 0) out += ",";
    out += std::string(kRowIndent) + style(rows[i]);
  }
  return out + tail;
}

/// The layouts that differ from the writer's; each must take the
/// general path.
std::vector<std::pair<const char*, RowStyle>> other_layouts() {
  return {
      {"keys reordered",
       [](const RowText& r) {
         return "{\"values\": " + r.values + ", \"subcalls\": " + r.subcalls +
                ", \"calls\": " + r.calls + ", \"event\": " + r.event +
                ", \"thread\": " + r.thread + "}";
       }},
      {"extra whitespace",
       [](const RowText& r) {
         return "{ \"thread\" :" + r.thread + ",\t\"event\":" + r.event +
                ",\r\n \"calls\":  " + r.calls + ",\"subcalls\": " +
                r.subcalls + ", \"values\": " +
                pk::strings::replace_all(
                    pk::strings::replace_all(r.values, "[", "[ "), ", ",
                    " , ") +
                " }";
       }},
      {"an extra key",
       [](const RowText& r) {
         return "{\"thread\": " + r.thread + ", \"event\": " + r.event +
                ", \"note\": {\"values\": [[1, 2, 3]], \"n\": null}" +
                ", \"calls\": " + r.calls + ", \"subcalls\": " + r.subcalls +
                ", \"values\": " + r.values + "}";
       }},
      {"a duplicate key",
       [](const RowText& r) {
         return "{\"thread\": " + r.thread + ", \"event\": " + r.event +
                ", \"calls\": 123456, \"subcalls\": " + r.subcalls +
                ", \"values\": [], \"values\": " + r.values +
                ", \"calls\": " + r.calls + "}";
       }},
  };
}

using Spelling = std::function<std::string(const std::string&)>;

/// Respells every number of a row's text through `spell`.
RowText respell(const RowText& r, const Spelling& spell) {
  const auto numbers = [&](const std::string& s) {
    std::string out;
    std::size_t i = 0;
    while (i < s.size()) {
      const std::size_t end = s.find_first_not_of("0123456789.eE+-", i);
      const std::size_t stop = end == std::string::npos ? s.size() : end;
      if (stop == i) {
        out += s[i++];
        continue;
      }
      out += spell(s.substr(i, stop - i));
      i = stop;
    }
    return out;
  };
  return {numbers(r.thread), numbers(r.event), numbers(r.calls),
          numbers(r.subcalls), numbers(r.values)};
}

bool is_integer(const std::string& n) {
  return n.find_first_not_of("-0123456789") == std::string::npos;
}

/// Spellings the writer never emits but from_chars reads.
std::vector<std::pair<const char*, Spelling>> spellings() {
  return {
      {"1E5",
       [](const std::string& n) {
         if (!is_integer(n) || n == "0") return n;
         std::size_t zeros = 0;
         while (n[n.size() - 1 - zeros] == '0') ++zeros;
         return n.substr(0, n.size() - zeros) + "E" + std::to_string(zeros);
       }},
      {"-0", [](const std::string& n) { return n == "0" ? "-0" : n; }},
      {"1.0",
       [](const std::string& n) { return is_integer(n) ? n + ".0" : n; }},
  };
}

}  // namespace

// Every trial the writer saves reopens with all of its data rows on the
// fast path, and reads back exactly.
TEST(JsonRows, WriterOutputTakesOnlyTheFastPath) {
  TempDir dir;
  std::size_t rows = 0;
  for (const Trial& t : trials()) {
    const fs::path file = dir.path() / "trial.json";
    pk::io::save_trial(t, file, "json");
    const std::string doc = slurp(file);
    std::string head;
    std::string tail;
    std::vector<RowText> written;
    split_rows(doc, head, written, tail);
    Trial opened("unread");
    const RowPaths paths =
        count_rows([&] { opened = pk::io::open_trial(file); });
    EXPECT_EQ(paths.general, 0u) << t.name();
    EXPECT_EQ(paths.fast, written.size()) << t.name();
    EXPECT_EQ(pk::perfdmf::to_json(opened), doc) << t.name();
    rows += written.size();
  }
  EXPECT_GT(rows, 50u);
}

// The same rows in other layouts take the general path and read into a
// bit-identical trial; number spellings the writer never emits read the
// same on either path.
TEST(JsonRows, OtherLayoutsReadBitIdenticallyOnTheGeneralPath) {
  for (const Trial& t : trials()) {
    const std::string doc = pk::perfdmf::to_json(t);
    std::string head;
    std::string tail;
    std::vector<RowText> rows;
    split_rows(doc, head, rows, tail);
    ASSERT_EQ(join_rows(head, rows, tail, writer_row), doc) << t.name();
    const std::string expected = bits(pk::perfdmf::from_json(doc));
    for (const auto& [label, style] : other_layouts()) {
      const std::string variant = join_rows(head, rows, tail, style);
      Trial read("unread");
      const RowPaths paths =
          count_rows([&] { read = pk::perfdmf::from_json(variant); });
      EXPECT_EQ(paths.fast, 0u) << t.name() << ": " << label;
      EXPECT_EQ(paths.general, rows.size()) << t.name() << ": " << label;
      EXPECT_EQ(bits(read), expected) << t.name() << ": " << label;
    }
    for (const auto& [label, spell] : spellings()) {
      std::vector<RowText> spelled;
      for (const RowText& r : rows) spelled.push_back(respell(r, spell));
      const std::string writer_layout =
          join_rows(head, spelled, tail, writer_row);
      const std::string general_layout =
          join_rows(head, spelled, tail, other_layouts().front().second);
      Trial fast("unread");
      Trial general("unread");
      const RowPaths fast_paths =
          count_rows([&] { fast = pk::perfdmf::from_json(writer_layout); });
      const RowPaths general_paths = count_rows(
          [&] { general = pk::perfdmf::from_json(general_layout); });
      EXPECT_EQ(fast_paths.fast, rows.size()) << t.name() << ": " << label;
      EXPECT_EQ(general_paths.general, rows.size())
          << t.name() << ": " << label;
      EXPECT_EQ(bits(fast), bits(general)) << t.name() << ": " << label;
    }
  }
}

// A document of many chunks, which the reader parses in parallel, reads
// every row on the fast path and into the same bits on every pool. A
// row in another layout, wherever it is, is the one row the general path
// reads: the chunks before it are applied, and the rows after it take
// the fast path on the caller.
TEST(JsonRows, ChunkedDocumentsReadTheSameOnEveryPool) {
  const std::string doc =
      pk::perfdmf::to_json(synthetic("chunked", 16, 8, 300));
  ASSERT_GT(doc.size(), 8 * pk::perfdmf::kIngestChunkBytes);
  std::string head;
  std::string tail;
  std::vector<RowText> rows;
  split_rows(doc, head, rows, tail);
  pk::ThreadPool serial(0);
  pk::ThreadPool three(3);
  const std::string expected = bits(pk::perfdmf::from_json(doc, serial));
  const RowStyle other = other_layouts().front().second;
  constexpr std::size_t kNone = std::string::npos;
  for (const std::size_t odd : {kNone, std::size_t{0}, std::size_t{1},
                                rows.size() / 3, rows.size() / 2 + 1,
                                rows.size() - 1}) {
    std::string variant = head;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i != 0) variant += ",";
      variant += std::string(kRowIndent) +
                 (i == odd ? other(rows[i]) : writer_row(rows[i]));
    }
    variant += tail;
    for (pk::ThreadPool* pool : {&serial, &three, &pk::ThreadPool::shared()}) {
      Trial read("unread");
      const RowPaths paths = count_rows(
          [&] { read = pk::perfdmf::from_json(variant, *pool); });
      const std::string label = "odd row " + std::to_string(odd) + ", " +
                                std::to_string(pool->thread_count()) +
                                " workers";
      EXPECT_EQ(paths.general, odd == kNone ? 0u : 1u) << label;
      EXPECT_EQ(paths.fast, rows.size() - paths.general) << label;
      EXPECT_EQ(bits(read), expected) << label;
    }
  }
}

// Rows that are near the writer's layout but malformed (or, for `01`,
// tolerated) keep the outcome the reader gave before the fast path
// existed, recorded from that reader: the same message, line and column
// (schema errors carry no location).
TEST(JsonRows, MalformedRowsFailWithTheSameLocatedError) {
  Trial t = synthetic("malformed", 2, 2, 2);
  const std::string doc = pk::perfdmf::to_json(t);
  const auto edit = [&](std::string_view from, std::string_view to) {
    const std::size_t at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    std::string out = doc;
    return out.replace(at, from.size(), to);
  };
  // Inside the last row's first inclusive value.
  const std::size_t last_number = doc.rfind("[[") + 2;
  struct Case {
    const char* label;
    std::string doc;
    const char* outcome;
  };
  const Case cases[] = {
      {"+1", edit("\"calls\": 1,", "\"calls\": +1,"),
       "JSON: malformed number @8:42"},
      {"1.5e", edit("\"subcalls\": 0,", "\"subcalls\": 1.5e,"),
       "JSON: malformed number @9:59"},
      {"01", edit("\"event\": 1,", "\"event\": 01,"), "parses"},
      {"a 3-item pair", edit("]]}", ", 0]]}"),
       "JSON: value pair must be [inclusive, exclusive] @0:0"},
      {"\"thread\": 1.5", edit("\"thread\": 1,", "\"thread\": 1.5,"),
       "JSON: data thread out of range (must be an integer in [0, 2]) @0:0"},
      {"thread out of range", edit("\"thread\": 1,", "\"thread\": 2,"),
       "JSON: data row out of range @0:0"},
      {"truncated mid-number", doc.substr(0, last_number + 4),
       "JSON: unexpected end of JSON @11:74"},
  };
  for (const Case& c : cases) {
    std::string outcome = "parses";
    try {
      (void)pk::perfdmf::from_json(c.doc);
    } catch (const pk::ParseError& e) {
      outcome = e.message() + " @" + std::to_string(e.line()) + ":" +
                std::to_string(e.column());
    }
    EXPECT_EQ(outcome, c.outcome) << c.label;
  }
}

// -0.0 is written as -0 and reads back with its sign, on the fast path,
// also where it is a row's only value that is not +0.0; a NaN or
// infinite cell, which JSON cannot represent, is refused with its
// thread, event and metric named, and no file is left behind.
TEST(JsonRows, SignedZerosRoundTripAndNonFiniteCellsAreRefused) {
  Trial t("zeros");
  t.set_thread_count(2);
  const auto time = t.add_metric("TIME", "usec");
  const auto papi = t.add_metric("PAPI", "count");
  const auto main = t.add_event("main");
  const auto f1 = t.add_event("main => f1", main);
  t.set_inclusive(0, main, time, -0.0);  // the row's only nonzero bits
  t.set_calls(1, main, -0.0, 2.0);
  t.set_exclusive(1, main, papi, -0.0);
  t.set_inclusive(1, f1, time, 0.0);  // an all +0.0 row, left out
  TempDir dir;
  const fs::path file = dir.path() / "zeros.json";
  pk::io::save_trial(t, file, "json");
  const std::string doc = slurp(file);
  EXPECT_NE(doc.find("\"values\": [[-0, 0], [0, 0]]"), std::string::npos)
      << doc;
  EXPECT_NE(doc.find("\"calls\": -0, \"subcalls\": 2"), std::string::npos)
      << doc;
  Trial opened("unread");
  const RowPaths paths =
      count_rows([&] { opened = pk::io::open_trial(file); });
  EXPECT_EQ(paths.fast, 2u);
  EXPECT_EQ(paths.general, 0u);
  EXPECT_EQ(bits(opened), bits(t));

  struct Bad {
    double value;
    const char* spelled;
  };
  for (const Bad bad : {Bad{std::nan(""), "NaN"},
                        Bad{std::numeric_limits<double>::infinity(), "inf"},
                        Bad{-std::numeric_limits<double>::infinity(),
                            "-inf"}}) {
    Trial cell = t;
    cell.set_exclusive(1, f1, papi, bad.value);
    Trial calls = t;
    calls.set_calls(0, f1, 1.0, bad.value);
    for (const auto& [trial, where] :
         {std::pair<const Trial&, std::string>{
              cell, "thread 1, event 'main => f1', metric 'PAPI': its "
                    "exclusive value is "},
          std::pair<const Trial&, std::string>{
              calls, "thread 0, event 'main => f1': its subcalls value is "}}) {
      const fs::path out = dir.path() / "refused.json";
      try {
        pk::io::save_trial(trial, out, "json");
        ADD_FAILURE() << "a " << bad.spelled << " cell was written";
      } catch (const pk::InvalidArgumentError& e) {
        EXPECT_NE(std::string(e.what()).find(where + bad.spelled + ","),
                  std::string::npos)
            << e.what();
      }
      EXPECT_FALSE(fs::exists(out)) << bad.spelled;
    }
  }
}
