// Tests for the CSV and JSON profile-interchange formats.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/limits.hpp"
#include "perfdmf/pkb_format.hpp"
#include "profile/profile.hpp"

namespace pk = perfknow;
using pk::profile::Trial;

namespace {

Trial fixture() {
  Trial t("fixture");
  t.set_thread_count(2);
  const auto time = t.add_metric("TIME", "usec");
  const auto fp = t.add_metric("FP_OPS");
  const auto main = t.add_event("main", pk::profile::kNoEvent, "PROC");
  const auto loop = t.add_event("main => loop, with \"quotes\"", main,
                                "LOOP");
  for (std::size_t th = 0; th < 2; ++th) {
    t.set_inclusive(th, main, time, 100.5 + static_cast<double>(th));
    t.set_exclusive(th, main, time, 10.25);
    t.set_inclusive(th, main, fp, 1e6);
    t.set_inclusive(th, loop, time, 90.0);
    t.set_exclusive(th, loop, time, 90.0);
    t.set_calls(th, main, 1, 3);
    t.set_calls(th, loop, 3, 0);
  }
  t.set_metadata("schedule", "dynamic,1");
  t.set_metadata("note", "line1\nline2\ttab");
  return t;
}

}  // namespace

TEST(CsvLong, RoundTripValuesAndCallpath) {
  const Trial t = fixture();
  std::stringstream ss;
  pk::perfdmf::write_csv_long(t, ss);
  const Trial back = pk::perfdmf::read_csv_long(ss.str());

  EXPECT_EQ(back.thread_count(), 2u);
  EXPECT_EQ(back.event_count(), 2u);
  EXPECT_EQ(back.metric_count(), 2u);
  const auto time = back.metric_id("TIME");
  const auto loop = back.event_id("main => loop, with \"quotes\"");
  EXPECT_DOUBLE_EQ(back.exclusive(1, loop, time), 90.0);
  EXPECT_DOUBLE_EQ(back.inclusive(1, back.event_id("main"), time), 101.5);
  EXPECT_DOUBLE_EQ(back.calls(0, loop).calls, 3.0);
  // Parent reconstructed from the " => " prefix.
  EXPECT_EQ(back.event(loop).parent, back.event_id("main"));
}

TEST(CsvLong, RejectsMalformedInput) {
  EXPECT_THROW(pk::perfdmf::read_csv_long(""), pk::ParseError);
  EXPECT_THROW(pk::perfdmf::read_csv_long("a,b,c\n"), pk::ParseError);
  EXPECT_THROW(pk::perfdmf::read_csv_long(
                   "event,thread,metric,inclusive,exclusive,calls,subcalls\n"
                   "main,0,TIME,1\n"),
               pk::ParseError);
  EXPECT_THROW(pk::perfdmf::read_csv_long(
                   "event,thread,metric,inclusive,exclusive,calls,subcalls\n"
                   "\"unterminated,0,TIME,1,1,1,0\n"),
               pk::ParseError);
}

TEST(JsonFormat, RoundTripExact) {
  const Trial t = fixture();
  const auto text = pk::perfdmf::to_json(t);
  const Trial back = pk::perfdmf::from_json(text);

  EXPECT_EQ(back.name(), "fixture");
  EXPECT_EQ(back.thread_count(), t.thread_count());
  EXPECT_EQ(back.metric_count(), t.metric_count());
  EXPECT_EQ(back.event_count(), t.event_count());
  EXPECT_EQ(*back.metadata("schedule"), "dynamic,1");
  EXPECT_EQ(*back.metadata("note"), "line1\nline2\ttab");
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
        EXPECT_DOUBLE_EQ(back.inclusive(th, e, m), t.inclusive(th, e, m));
        EXPECT_DOUBLE_EQ(back.exclusive(th, e, m), t.exclusive(th, e, m));
      }
      EXPECT_DOUBLE_EQ(back.calls(th, e).calls, t.calls(th, e).calls);
      EXPECT_EQ(back.event(e).parent, t.event(e).parent);
      EXPECT_EQ(back.event(e).group, t.event(e).group);
    }
  }
}

TEST(JsonFormat, ParserHandlesEscapesAndWhitespace) {
  const auto t = pk::perfdmf::from_json(R"({
    "name": "uA\t\"x\"",
    "threads": 1,
    "metadata": {},
    "metrics": [{"name": "M", "units": "count", "derived": false}],
    "events": [{"name": "e", "parent": -1, "group": ""}],
    "data": [
      {"thread": 0, "event": 0, "calls": 2.5e2, "subcalls": 0,
       "values": [[1.5, -0.25]]}
    ]
  })");
  EXPECT_EQ(t.name(), "uA\t\"x\"");
  EXPECT_DOUBLE_EQ(t.calls(0, 0).calls, 250.0);
  EXPECT_DOUBLE_EQ(t.exclusive(0, 0, 0), -0.25);
}

TEST(JsonFormat, RejectsMalformedDocuments) {
  EXPECT_THROW(pk::perfdmf::from_json("{"), pk::ParseError);
  EXPECT_THROW(pk::perfdmf::from_json("[1, 2,]"), pk::ParseError);
  EXPECT_THROW(pk::perfdmf::from_json("{\"name\": }"), pk::ParseError);
  EXPECT_THROW(pk::perfdmf::from_json("{\"a\": 1} trailing"),
               pk::ParseError);
  EXPECT_THROW(pk::perfdmf::from_json("nope"), pk::ParseError);
  // Schema violations.
  EXPECT_THROW(pk::perfdmf::from_json("{\"threads\": 1}"), pk::ParseError);
  EXPECT_THROW(pk::perfdmf::from_json(R"({
    "name": "x", "threads": 1, "metrics": [], "events": [],
    "data": [{"thread": 0, "event": 5, "calls": 0, "subcalls": 0,
              "values": []}]
  })"),
               pk::ParseError);
}

TEST(JsonFormat, SparseZeroRowsOmittedButReadBack) {
  Trial t("sparse");
  t.set_thread_count(3);
  t.add_metric("M");
  const auto e = t.add_event("ev");
  t.set_exclusive(1, e, 0, 7.0);  // threads 0 and 2 stay all-zero
  const auto text = pk::perfdmf::to_json(t);
  // Only one data row serialized.
  EXPECT_EQ(text.find("\"thread\": 0"), std::string::npos);
  const Trial back = pk::perfdmf::from_json(text);
  EXPECT_DOUBLE_EQ(back.exclusive(0, e, 0), 0.0);
  EXPECT_DOUBLE_EQ(back.exclusive(1, e, 0), 7.0);
  EXPECT_DOUBLE_EQ(back.exclusive(2, e, 0), 0.0);
}

TEST(JsonFormat, ByteOrderMarkIsSkipped) {
  const Trial t = fixture();
  const Trial back =
      pk::perfdmf::from_json("\xEF\xBB\xBF" + pk::perfdmf::to_json(t));
  EXPECT_EQ(back.name(), "fixture");
  EXPECT_EQ(pk::perfdmf::to_json(back), pk::perfdmf::to_json(t));
}

TEST(JsonFormat, SchemaErrorsAreJsonParseErrors) {
  const auto message_of = [](const std::string& doc) -> std::string {
    try {
      (void)pk::perfdmf::from_json(doc);
    } catch (const pk::ParseError& e) {
      return e.what();
    }
    return "(no error)";
  };
  const std::string missing = message_of(R"({
    "name": "x", "threads": 1, "events": [], "data": []
  })");
  EXPECT_EQ(missing.rfind("JSON:", 0), 0u) << missing;
  EXPECT_NE(missing.find("'metrics'"), std::string::npos) << missing;
  const std::string wrong_type = message_of(R"({
    "name": "x", "threads": "one", "metrics": [], "events": [], "data": []
  })");
  EXPECT_EQ(wrong_type.rfind("JSON:", 0), 0u) << wrong_type;
  // Syntax errors keep their location under the same prefix.
  const std::string syntax = message_of("{\"name\": }");
  EXPECT_EQ(syntax.rfind("JSON:", 0), 0u) << syntax;
  EXPECT_NE(syntax.find("line 1"), std::string::npos) << syntax;
}

TEST(JsonFormat, ReExportIsByteIdentical) {
  const std::string first = pk::perfdmf::to_json(fixture());
  EXPECT_EQ(pk::perfdmf::to_json(pk::perfdmf::from_json(first)), first);
}

// Inputs large enough to be parsed in chunks on the shared pool read
// into the same bits as a serial read (a pool without workers), and
// quoted names and CRLF lines, whose fields are unescaped into a copy,
// still come back whole.
TEST(CsvLong, ChunkedInputsReadTheSameOnEveryPool) {
  Trial t("chunked");
  t.set_thread_count(24);
  const auto time = t.add_metric("TIME", "usec");
  const auto fp = t.add_metric("FP, \"OPS\"");
  t.add_event("main");
  for (int e = 1; e < 300; ++e) {
    t.add_event(e % 7 == 0 ? "main => \"loop\", " + std::to_string(e)
                           : "main => f" + std::to_string(e),
                0);
  }
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      t.set_inclusive(th, e, time, static_cast<double>(th * 3 + e) / 7.0);
      t.set_exclusive(th, e, fp, static_cast<double>(e) / 11.0);
      t.set_calls(th, e, static_cast<double>(e % 4), 2.0);
    }
  }
  std::ostringstream csv;
  pk::perfdmf::write_csv_long(t, csv);
  ASSERT_GT(csv.str().size(), 4 * pk::perfdmf::kIngestChunkBytes);
  const std::string json = pk::perfdmf::to_json(t);
  pk::ThreadPool serial(0);
  const Trial csv_serial = pk::perfdmf::read_csv_long(csv.str(), serial);
  const Trial json_serial = pk::perfdmf::from_json(json, serial);
  EXPECT_EQ(csv_serial.event_count(), t.event_count());
  EXPECT_EQ(csv_serial.event(7).name, t.event(7).name);
  EXPECT_EQ(csv_serial.metric(1).name, t.metric(1).name);
  EXPECT_EQ(pk::perfdmf::to_pkb(pk::perfdmf::read_csv_long(csv.str())),
            pk::perfdmf::to_pkb(csv_serial));
  std::string crlf;
  for (const char c : csv.str()) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  EXPECT_EQ(pk::perfdmf::to_pkb(pk::perfdmf::read_csv_long(crlf)),
            pk::perfdmf::to_pkb(csv_serial));
  EXPECT_EQ(pk::perfdmf::to_pkb(pk::perfdmf::from_json(json)),
            pk::perfdmf::to_pkb(json_serial));
  EXPECT_EQ(pk::perfdmf::to_json(json_serial), json);
}
