// Outcome parity for the text profile readers (TAU, JSON, CSV).
//
// Every file of fuzz/corpus/{tau,json,csv} and every tau_/json_/csv_
// regression reproducer, plus the targeted cases below, must give
// exactly the outcome recorded in tests/golden/ingest_parity.txt: either
// a summary of the trial (shape, schema, metadata and per-metric cell
// sums) or the full ParseError text with its line, column and excerpt.
// The golden was recorded from the line-at-a-time readers the buffer
// readers replaced, so any drift in values, event order, parent links or
// diagnostics fails here. Regenerate with PERFKNOW_REGEN_GOLDEN=1 only
// for an intentional behaviour change, and review the diff like code.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "io/format.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/limits.hpp"
#include "perfdmf/tau_format.hpp"
#include "profile/profile.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::profile::Trial;

namespace {

// ---- the readers under test -------------------------------------------

Trial read_tau(const std::string& bytes) {
  return pk::perfdmf::read_tau_stream(bytes, "tau_stream");
}
Trial read_csv(const std::string& bytes) {
  return pk::perfdmf::read_csv_long(bytes);
}
Trial read_json(const std::string& bytes) {
  return pk::perfdmf::from_json(bytes);
}

// ---- outcome rendering ----------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One line per fact, every string JSON-quoted so hostile bytes stay on
/// their line.
std::string summarize(const Trial& t) {
  std::ostringstream os;
  os << "trial " << pk::json::quote(t.name())
     << " threads=" << t.thread_count() << "\n";
  for (const auto& [k, v] : t.all_metadata()) {
    os << "meta " << pk::json::quote(k) << "=" << pk::json::quote(v)
       << "\n";
  }
  for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
    double incl = 0.0;
    double excl = 0.0;
    double weighted = 0.0;
    for (std::size_t th = 0; th < t.thread_count(); ++th) {
      for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
        incl += t.inclusive(th, e, m);
        excl += t.exclusive(th, e, m);
        weighted += (t.inclusive(th, e, m) + 3.0 * t.exclusive(th, e, m)) *
                    static_cast<double>((th + 1) * 131 + e + 1);
      }
    }
    const auto& metric = t.metric(m);
    os << "metric " << m << " " << pk::json::quote(metric.name)
       << " units=" << pk::json::quote(metric.units)
       << " derived=" << metric.derived << " incl=" << num(incl)
       << " excl=" << num(excl) << " weighted=" << num(weighted) << "\n";
  }
  double calls = 0.0;
  double subcalls = 0.0;
  double weighted = 0.0;
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      const auto ci = t.calls(th, e);
      calls += ci.calls;
      subcalls += ci.subcalls;
      weighted += (ci.calls + 3.0 * ci.subcalls) *
                  static_cast<double>((th + 1) * 131 + e + 1);
    }
  }
  os << "calls=" << num(calls) << " subcalls=" << num(subcalls)
     << " weighted=" << num(weighted) << "\n";
  for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
    const auto& ev = t.event(e);
    os << "event " << e << " " << pk::json::quote(ev.name) << " parent="
       << (ev.parent == pk::profile::kNoEvent
               ? std::string("-1")
               : std::to_string(ev.parent))
       << " group=" << pk::json::quote(ev.group) << "\n";
  }
  return os.str();
}

/// The outcome of one read: a trial summary or the error, with `dir`
/// (a temp directory) blanked out of error texts.
std::string outcome(const std::function<Trial()>& read,
                    const std::string& dir = "") {
  try {
    return summarize(read());
  } catch (const pk::ParseError& e) {
    std::string what = e.what();
    if (!dir.empty()) what = pk::strings::replace_all(what, dir, "<dir>");
    return "ParseError " + pk::json::quote(what) + "\n";
  } catch (const pk::Error& e) {
    std::string what = e.what();
    if (!dir.empty()) what = pk::strings::replace_all(what, dir, "<dir>");
    return "Error " + pk::json::quote(what) + "\n";
  }
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::vector<fs::path> sorted_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

using Reader = Trial (*)(const std::string&);

struct Case {
  const char* label;
  Reader read;
  std::string input;
};

const std::string kJsonHead =
    R"({"name":"t","threads":2,"metrics":[{"name":"TIME","units":"usec"}],)"
    R"("events":[{"name":"main","parent":-1},{"name":"main => f","parent":0}],)";

std::string json_with_data(const std::string& rows) {
  return kJsonHead + "\"data\":[" + rows + "]}";
}

const char* const kCsvHeader =
    "event,thread,metric,inclusive,exclusive,calls,subcalls\n";

std::string csv(const std::string& rows) { return kCsvHeader + rows; }

std::string tau(const std::string& rows, int n,
                const std::string& tag = "templated_functions_MULTI_TIME") {
  return std::to_string(n) + " " + tag +
         "\n# Name Calls Subrs Excl Incl ProfileCalls\n" + rows;
}

std::vector<Case> targeted_cases() {
  std::vector<Case> c;
  // ---- JSON ------------------------------------------------------------
  c.push_back({"json data before metrics and events", read_json,
               R"({"data":[{"thread":1,"event":1,"calls":2,"subcalls":1,)"
               R"("values":[[5,3]]},{"values":[[1.5,0.5]],"subcalls":0,)"
               R"("calls":1,"event":0,"thread":0}],"events":[{"name":"main",)"
               R"("parent":-1,"group":"G"},{"name":"main => f","parent":0}],)"
               R"("metrics":[{"name":"TIME","units":"usec"}],"threads":2,)"
               R"("metadata":{"k":"v"},"name":"late"})"});
  c.push_back({"json duplicate keys resolve to the last", read_json,
               R"({"name":"first","threads":1,"threads":2,"name":"second",)"
               R"("metrics":[{"name":"A","name":"B","units":"u","units":"v",)"
               R"("derived":true,"derived":false}],"events":[{"name":"x",)"
               R"("parent":-1,"group":"g1","group":"g2"}],"data":[],"data":[)"
               R"({"thread":1,"thread":0,"event":0,"calls":1,"calls":7,)"
               R"("subcalls":2,"values":[[9,9]],"values":[[1,2]]}],)"
               R"("metadata":{"k":"1","k":"2"}})"});
  c.push_back({"json invalid first duplicate is ignored", read_json,
               R"({"data":5,"name":7,"threads":"x","metrics":{},"events":1,)"
               R"("name":"ok","threads":1,"metrics":[],"events":[],"data":[]})"});
  c.push_back({"json member after data widens the schema", read_json,
               R"({"name":"t","threads":1,"metrics":[{"name":"T"}],)"
               R"("events":[{"name":"e","parent":-1}],"data":[{"thread":1,)"
               R"("event":0,"calls":1,"subcalls":0,"values":[[4,2]]}],)"
               R"("threads":2})"});
  c.push_back({"json member after data narrows the schema", read_json,
               R"({"name":"t","threads":1,"metrics":[{"name":"T"}],)"
               R"("events":[{"name":"e","parent":-1}],"data":[{"thread":0,)"
               R"("event":0,"calls":1,"subcalls":0,"values":[[4,2]]}],)"
               R"("metrics":[{"name":"T"},{"name":"U"}]})"});
  c.push_back({"json schema error before data fixed after it", read_json,
               R"({"name":5,"threads":1,"metrics":[],"events":[],"data":[],)"
               R"("name":"fixed"})"});
  c.push_back({"json data row error then a syntax error", read_json,
               R"({"name":"t","threads":1,"metrics":[],"events":[],)"
               R"("data":[{"thread":3},{"thread":0,"x":[1 2]}]})"});
  c.push_back({"json BOM", read_json,
               "\xEF\xBB\xBF" + json_with_data(
                   R"({"thread":0,"event":0,"calls":1,"subcalls":0,"values":[[2,1]]})")});
  c.push_back({"json BOM then syntax error", read_json,
               "\xEF\xBB\xBF{\n  \"name\": }"});
  c.push_back({"json syntax error after a schema error", read_json,
               R"({"name":5,"threads":1,"metrics":[],"events":[],"data":[],})"});
  c.push_back({"json syntax error inside an unknown member", read_json,
               "{\"name\":\"t\",\"threads\":1,\"metrics\":[],\"events\":[],"
               "\"data\":[],\n\"junk\":[1,2,]}"});
  c.push_back({"json trailing characters", read_json,
               R"({"name":"t","threads":1,"metrics":[],"events":[],"data":[]} x)"});
  c.push_back({"json root array", read_json, "[1, 2]"});
  c.push_back({"json root string", read_json, "\"t\""});
  c.push_back({"json empty", read_json, ""});
  c.push_back({"json whitespace only", read_json, " \n\t "});
  c.push_back({"json missing name", read_json, R"({"threads":1})"});
  c.push_back({"json name not a string", read_json,
               R"({"name":["t"],"threads":1})"});
  c.push_back({"json missing threads", read_json, R"({"name":"t"})"});
  c.push_back({"json fractional threads", read_json,
               R"({"name":"t","threads":1.5})"});
  c.push_back({"json metrics not an array", read_json,
               R"({"name":"t","threads":1,"metrics":{},"events":[]})"});
  c.push_back({"json missing events", read_json,
               R"({"name":"t","threads":1,"metrics":[]})"});
  c.push_back({"json too many cells", read_json,
               R"({"name":"t","threads":1048576,"metrics":[{"name":"a"},)"
               R"({"name":"b"},{"name":"c"},{"name":"d"}],"events":[{},{},{},)"
               R"({},{},{},{},{},{},{},{},{},{},{},{},{},{},{}]})"});
  c.push_back({"json missing data after schema", read_json,
               R"({"name":"t","threads":1,"metrics":[{"name":"m"}],)"
               R"("events":[{"name":"e","parent":-1}]})"});
  c.push_back({"json bad metric before missing data", read_json,
               R"({"name":"t","threads":1,"metrics":[5],"events":[]})"});
  c.push_back({"json metric name, units and derived all bad", read_json,
               R"({"name":"t","threads":1,"metrics":[{"name":1,"units":2,)"
               R"("derived":3}],"events":[],"data":[]})"});
  c.push_back({"json metric units and derived bad", read_json,
               R"({"name":"t","threads":1,"metrics":[{"name":"m","units":2,)"
               R"("derived":3}],"events":[],"data":[]})"});
  c.push_back({"json metric missing name with bad units", read_json,
               R"({"name":"t","threads":1,"metrics":[{"units":3}],)"
               R"("events":[],"data":[]})"});
  c.push_back({"json metric derived not boolean", read_json,
               R"({"name":"t","threads":1,"metrics":[{"name":"m",)"
               R"("derived":1}],"events":[],"data":[]})"});
  c.push_back({"json metric defaults and duplicate names", read_json,
               R"({"name":"t","threads":1,"metrics":[{"name":"m"},)"
               R"({"name":"m","units":"x","derived":true},{"name":"n",)"
               R"("derived":true}],"events":[],"data":[]})"});
  c.push_back({"json event name and group bad", read_json,
               R"({"name":"t","threads":1,"metrics":[],"events":[{"parent":-1,)"
               R"("name":1,"group":2}],"data":[]})"});
  c.push_back({"json event missing parent", read_json,
               R"({"name":"t","threads":1,"metrics":[],"events":[{"name":"a"}],)"
               R"("data":[]})"});
  c.push_back({"json event parent not earlier", read_json,
               R"({"name":"t","threads":1,"metrics":[],"events":[{"name":"a",)"
               R"("parent":1},{"name":"b","parent":-1}],"data":[]})"});
  c.push_back({"json event parent fractional", read_json,
               R"({"name":"t","threads":1,"metrics":[],"events":[{"name":"a",)"
               R"("parent":-1},{"name":"b","parent":0.5}],"data":[]})"});
  c.push_back({"json event parent negative fraction and duplicates", read_json,
               R"({"name":"t","threads":1,"metrics":[],"events":[{"name":"a",)"
               R"("parent":-0.5},{"name":"a","parent":0,"group":"x"},)"
               R"({"name":"b","parent":1}],"data":[]})"});
  c.push_back({"json event not an object", read_json,
               R"({"name":"t","threads":1,"metrics":[],"events":[[]],"data":[]})"});
  c.push_back({"json data not an array", read_json,
               kJsonHead + R"("data":{}})"});
  c.push_back({"json data row not an object", read_json, json_with_data("5")});
  c.push_back({"json data row missing thread", read_json,
               json_with_data(R"({"event":0})")});
  c.push_back({"json data thread equal to count", read_json,
               json_with_data(R"({"thread":2,"event":0,"calls":1,"subcalls":0,)"
                              R"("values":[[1,1]]})")});
  c.push_back({"json data event out of range", read_json,
               json_with_data(R"({"thread":0,"event":3})")});
  c.push_back({"json data calls and subcalls missing", read_json,
               json_with_data(R"({"thread":0,"event":0,"values":[[1,1]]})")});
  c.push_back({"json data calls and subcalls bad", read_json,
               json_with_data(R"({"thread":0,"event":0,"calls":"x",)"
                              R"("subcalls":"y","values":[[1,1]]})")});
  c.push_back({"json data values missing", read_json,
               json_with_data(R"({"thread":0,"event":0,"calls":1,"subcalls":0})")});
  c.push_back({"json data values not an array", read_json,
               json_with_data(R"({"thread":0,"event":0,"calls":1,"subcalls":0,)"
                              R"("values":{}})")});
  c.push_back({"json data values width", read_json,
               json_with_data(R"({"thread":0,"event":0,"calls":1,"subcalls":0,)"
                              R"("values":[[1,2],[3,4]]})")});
  c.push_back({"json data value pair not an array", read_json,
               json_with_data(R"({"thread":0,"event":0,"calls":1,"subcalls":0,)"
                              R"("values":[5]})")});
  c.push_back({"json data value pair of three", read_json,
               json_with_data(R"({"thread":0,"event":0,"calls":1,"subcalls":0,)"
                              R"("values":[[1,2,"x"]]})")});
  c.push_back({"json data exclusive not a number", read_json,
               json_with_data(R"({"thread":0,"event":0,"calls":1,"subcalls":0,)"
                              R"("values":[[1,"x"]]})")});
  c.push_back({"json data inclusive not a number", read_json,
               json_with_data(R"({"thread":0,"event":0,"calls":1,"subcalls":0,)"
                              R"("values":[[null,2]]})")});
  c.push_back({"json data rows overwrite and skip unknown members", read_json,
               json_with_data(
                   R"({"thread":0,"event":1,"calls":1,"subcalls":0,"note":{"a":[1,{"b":2}]},)"
                   R"("values":[[4,3]]},{"thread":1,"event":1,"calls":-2,"subcalls":1e2,)"
                   R"("values":[[-0,1E+3]]},{"thread":0,"event":1,"calls":5,)"
                   R"("subcalls":0.25,"values":[[1e-5,0.1]]})")});
  c.push_back({"json escaped keys and names", read_json,
               "{\"na\\u006de\":\"caf\\u00e9 \\\"q\\\" \\\\ \\/\",\"threads\":1,"
               "\"metadata\":{\"k\\n\":\"\\u20ac\\t\"},\"metrics\":[{\"name\":"
               "\"T\\u0049ME\"}],\"events\":[{\"name\":\"a\\r\\nb\",\"parent\":-1,"
               "\"group\":\"\\b\\f\"}],\"data\":[{\"\\u0074hread\":0,\"event\":0,"
               "\"calls\":1,\"subcalls\":0,\"values\":[[3,2]]}]}"});
  c.push_back({"json metadata value not a string", read_json,
               R"({"name":"t","threads":1,"metadata":{"a":"1","b":2},)"
               R"("metrics":[],"events":[],"data":[]})"});
  c.push_back({"json metadata not an object", read_json,
               R"({"name":"t","threads":1,"metadata":[],"metrics":[],)"
               R"("events":[],"data":[]})"});
  c.push_back({"json malformed number", read_json,
               R"({"name":"t","threads":1.2.3})"});
  c.push_back({"json out-of-range number", read_json,
               json_with_data(R"({"thread":0,"event":0,"calls":1e999})")});
  c.push_back({"json plus-signed number", read_json,
               R"({"name":"t","threads":+1})"});
  c.push_back({"json bad escape", read_json, R"({"name":"a\qb"})"});
  c.push_back({"json bad unicode escape", read_json, R"({"name":"a\u12G4"})"});
  c.push_back({"json truncated unicode escape", read_json, R"({"name":"a\u12)"});
  c.push_back({"json unterminated string", read_json, "{\"name\":\"abc"});
  c.push_back({"json unterminated object", read_json, "{\"name\":\"t\",  "});
  c.push_back({"json missing colon", read_json, "{\"name\" \"t\"}"});
  c.push_back({"json missing comma in object", read_json,
               "{\"name\":\"t\"\n \"threads\":1}"});
  c.push_back({"json missing comma in array", read_json,
               "{\"name\":\"t\",\"metrics\":[1 2]}"});
  c.push_back({"json bad keyword", read_json, "{\"name\":tru}"});
  c.push_back({"json key not a string", read_json, "{name:1}"});
  c.push_back({"json nested too deeply", read_json,
               "{\"x\":" + std::string(96, '[') + std::string(96, ']') + "}"});
  c.push_back({"json nested just deep enough", read_json,
               "{\"x\":" + std::string(95, '[') + std::string(95, ']') +
                   ",\"name\":\"deep\",\"threads\":0,\"metrics\":[],"
                   "\"events\":[],\"data\":[]}"});
  c.push_back({"json unterminated nested arrays", read_json,
               "{\"x\":[[[1,\r\n2"});
  // ---- CSV ---------------------------------------------------------------
  c.push_back({"csv CRLF", read_csv,
               "event,thread,metric,inclusive,exclusive,calls,subcalls\r\n"
               "main,0,TIME,10,4,1,1\r\nmain => f,0,TIME,6,6,2,0\r\n"
               "main,1,TIME,12,5,1,1\r\n"});
  c.push_back({"csv quoted fields with commas and quotes", read_csv,
               csv("\"a,b\",0,TIME,1,1,1,0\n\"say \"\"hi\"\"\",0,TIME,2,2,1,0\n"
                   "main,0,\"M,1\",3,3,1,0\nx\"y,z\"w,0,TIME,4,4,1,0\n"
                   "\"a,b\" => c,0,TIME,5,5,1,0\n\"\",0,TIME,6,6,1,0\n")});
  c.push_back({"csv carriage returns inside and outside quotes", read_csv,
               csv("a\rb,0,TIME,1,1,1,0\n\"c\rd\",0,TIME,2,2,1,0\n"
                   "e,0\r,TIME,3,3,1,0\n")});
  c.push_back({"csv BOM", read_csv,
               "\xEF\xBB\xBF" + csv("main,0,TIME,1,1,1,0\n")});
  c.push_back({"csv blank and whitespace lines", read_csv,
               csv("\nmain,0,TIME,1,1,1,0\n   \n\t\r\n\r\nmain,1,TIME,2,2,1,0\n\n")});
  c.push_back({"csv no trailing newline", read_csv,
               csv("main,0,TIME,1,1,1,0\nmain,1,TIME,2,2,1,0")});
  c.push_back({"csv callpath parents", read_csv,
               csv("main => f,0,TIME,1,1,1,0\nmain,0,TIME,5,4,1,1\n"
                   "main => g,0,TIME,2,2,1,0\nmain => g => h,0,TIME,1,1,1,0\n"
                   "main => f,1,TIME,1,1,1,0\n")});
  c.push_back({"csv alternating metrics and events", read_csv,
               csv("a,0,TIME,1,1,1,0\na,0,PAPI,2,2,1,0\nb,0,TIME,3,3,1,0\n"
                   "b,0,PAPI,4,4,1,0\na,1,TIME,5,5,1,0\na,1,PAPI,6,6,1,0\n"
                   "a,1,PAPI,7,7,2,1\n")});
  c.push_back({"csv padded numeric fields", read_csv,
               csv("main, 1 ,TIME, 5 ,\t4,1 , 2\n")});
  c.push_back({"csv header only", read_csv, kCsvHeader});
  c.push_back({"csv header without newline", read_csv,
               "event,thread,metric,inclusive,exclusive,calls,subcalls"});
  c.push_back({"csv empty", read_csv, ""});
  c.push_back({"csv wrong header", read_csv, "event,thread,metric\nmain,0,T\n"});
  c.push_back({"csv header with trailing space", read_csv,
               "event,thread,metric,inclusive,exclusive,calls,subcalls \n"});
  c.push_back({"csv too many fields", read_csv,
               csv("main,0,TIME,1,1,1,0\nmain,0,TIME,1,1,1,0,9\n")});
  c.push_back({"csv too few fields", read_csv, csv("main,0,TIME\n")});
  c.push_back({"csv unterminated quote", read_csv,
               csv("main,0,TIME,1,1,1,0\n\"main,0,TIME,1,1,1,0\n")});
  c.push_back({"csv thread not an integer", read_csv,
               csv("main,1.5,TIME,1,1,1,0\n")});
  c.push_back({"csv thread too large", read_csv,
               csv("main,1048577,TIME,1,1,1,0\n")});
  c.push_back({"csv inclusive not a number", read_csv,
               csv("main,0,TIME,abc,1,1,0\n")});
  c.push_back({"csv exclusive not a number", read_csv,
               csv("main,0,TIME,1,\"x,y\",1,0\n")});
  c.push_back({"csv calls and subcalls not numbers", read_csv,
               csv("main,0,TIME,1,1,c,s\n")});
  c.push_back({"csv too many cells", read_csv,
               csv("a,0,M1,1,1,1,0\nb,0,M2,1,1,1,0\nc,0,M3,1,1,1,0\n"
                   "d,0,M4,1,1,1,0\ne,0,M5,1,1,1,0\nf,0,M6,1,1,1,0\n"
                   "g,0,M7,1,1,1,0\nh,0,M8,1,1,1,0\ni,1048576,M1,1,1,1,0\n")});
  // ---- TAU ---------------------------------------------------------------
  c.push_back({"tau CRLF", read_tau,
               "2 templated_functions_MULTI_TIME\r\n# Name Calls\r\n"
               "\"main\" 1 1 5 10 0 GROUP=\"TAU_DEFAULT\"\r\n"
               "\"main => f\" 1 0 5 5 0 GROUP=\"TAU_CALLPATH\"\r\n"});
  c.push_back({"tau BOM", read_tau,
               "\xEF\xBB\xBF" + tau("\"main\" 1 0 5 10 0\n", 1)});
  c.push_back({"tau callpath rows out of order", read_tau,
               tau("\"main => a => b\" 1 0 1 1 0 GROUP=\"C\"\n"
                   "\"main\" 1 1 5 10 0 GROUP=\"TAU_DEFAULT\"\n"
                   "\"zz\" 2 0 3 3 0\n\"main => a\" 1 1 2 3 0\n"
                   "\"x => y\" 1 0 1 1 0\n",
                   5)});
  c.push_back({"tau duplicate rows", read_tau,
               tau("\"main\" 1 1 5 10 0\n\"f\" 1 0 1 1 0\n"
                   "\"main\" 2 2 6 12 0 GROUP=\"LATE\"\n",
                   3)});
  c.push_back({"tau group tokens", read_tau,
               tau("\"a\" 1 0 1 1 0 GROUP=\"A|B\"\n"
                   "\"b\" 1 0 1 1 0 GROUP=\"X\" GROUP=\"Y\"\n"
                   "\"c\" 1 0 1 1 0 GROUP=\"open\n\"d\" 1 0 1 1 GROUP=\"\"\n"
                   "\"e\" 1 0 1 1 0 junk GROUP=\n",
                   5)});
  c.push_back({"tau extra sections ignored", read_tau,
               tau("\"main\" 1 0 5 10 0\n", 1) +
                   "0 aggregates\n1 userevents\n\"x\" garbage\n"});
  c.push_back({"tau plain header", read_tau,
               tau("\"main\" 1 0 5 10 0\n", 1, "templated_functions")});
  c.push_back({"tau empty metric name", read_tau,
               tau("\"main\" 1 0 5 10 0\n", 1, "templated_functions_MULTI_")});
  c.push_back({"tau zero functions", read_tau, tau("", 0)});
  c.push_back({"tau header only", read_tau, "0 templated_functions_MULTI_T"});
  c.push_back({"tau empty", read_tau, ""});
  c.push_back({"tau blank first line", read_tau, "\n"});
  c.push_back({"tau header with one token", read_tau, "3\n"});
  c.push_back({"tau bad count", read_tau, "x templated_functions\n"});
  c.push_back({"tau negative count", read_tau, "-1 templated_functions\n"});
  c.push_back({"tau bad tag", read_tau, "1 functions_MULTI_TIME\n"});
  c.push_back({"tau truncated", read_tau, tau("\"main\" 1 0 5 10 0\n", 3)});
  c.push_back({"tau truncated after header", read_tau, "2 templated_functions"});
  c.push_back({"tau unquoted name", read_tau, tau(" \"main\" 1 0 5 10 0\n", 1)});
  c.push_back({"tau empty function line", read_tau, tau("\n", 1)});
  c.push_back({"tau unterminated name", read_tau, tau("\"main 1 0 5 10 0\n", 1)});
  c.push_back({"tau too few fields", read_tau, tau("\"main\" 1 0 5\n", 1)});
  c.push_back({"tau bad number", read_tau, tau("\"main\" 1 0 5 1x0 0\n", 1)});
  c.push_back({"tau tab separated", read_tau,
               tau("\"main\"\t1\t0\t5\t10\t0\tGROUP=\"T\"\n", 1)});
  c.push_back({"tau name with quotes cut at second quote", read_tau,
               tau("\"ma\"in\" 1 0 5 10 0\n", 1)});
  return c;
}

// ---- TAU directories (the multi-file reader) ---------------------------

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_parity_" + std::to_string(::getpid()) + "_" +
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

struct TauDirCase {
  const char* label;
  std::vector<std::pair<std::string, std::string>> files;
};

std::vector<TauDirCase> tau_dir_cases() {
  std::vector<TauDirCase> c;
  c.push_back({"tau dir late parent in a later thread file",
               {{"profile.0.0.0", tau("\"main\" 1 1 5 10 0\n"
                                      "\"a => b\" 1 0 5 5 0 GROUP=\"CP\"\n",
                                      2)},
                {"profile.0.0.1", tau("\"main\" 1 1 2 9 0\n"
                                      "\"a\" 1 1 4 7 0\n"
                                      "\"a => b\" 1 0 3 3 0 GROUP=\"CP\"\n",
                                      3)}}});
  c.push_back({"tau dir late parent chain across three files",
               {{"profile.0.0.0", tau("\"x => y => z\" 1 0 1 1 0\n"
                                      "\"main\" 1 0 9 9 0\n",
                                      2)},
                {"profile.0.0.1", tau("\"x => y\" 1 1 2 3 0\n"
                                      "\"x => y => z\" 1 0 1 1 0\n",
                                      2)},
                {"profile.1.0.0", tau("\"main\" 1 0 9 9 0\n\"x\" 1 1 1 4 0\n"
                                      "\"x => y\" 1 1 2 3 0\n",
                                      3)}}});
  c.push_back({"tau dir same rows in the same order",
               {{"profile.0.0.0", tau("\"main\" 1 2 1 10 0\n\"main => a\" 1 0 4 4 0\n"
                                      "\"main => b\" 1 0 5 5 0\n",
                                      3)},
                {"profile.0.0.1", tau("\"main\" 1 2 2 11 0\n\"main => a\" 1 0 4 4 0\n"
                                      "\"main => b\" 1 0 5 5 0\n",
                                      3)},
                {"profile.0.0.2", tau("\"main\" 1 2 3 12 0\n\"main => a\" 1 0 4 4 0\n"
                                      "\"main => b\" 1 0 5 5 0\n",
                                      3)}}});
  c.push_back({"tau dir reordered, subset and new rows",
               {{"profile.0.0.0", tau("\"main\" 1 2 1 10 0\n\"main => a\" 1 0 4 4 0\n",
                                      2)},
                {"profile.0.0.1", tau("\"main => a\" 1 0 4 4 0\n\"main\" 1 2 2 11 0\n",
                                      2)},
                {"profile.0.0.2", tau("\"main\" 1 2 3 12 0\n"
                                      "\"main => c => d\" 1 0 1 1 0\n"
                                      "\"main => c\" 1 1 2 3 0\n\"q\" 1 0 1 1 0\n",
                                      4)},
                {"profile.0.0.10", tau("\"main\" 1 0 1 1 0\n", 1)}}});
  c.push_back({"tau dir metric mismatch",
               {{"profile.0.0.0", tau("\"main\" 1 0 1 1 0\n", 1)},
                {"profile.0.0.1",
                 tau("\"main\" 1 0 1 1 0\n", 1, "templated_functions_MULTI_P")}}});
  c.push_back({"tau dir parse error beats metric mismatch",
               {{"profile.0.0.0", tau("\"main\" 1 0 1 1 0\n", 1)},
                {"profile.0.0.1", tau("\"main\" 1 0 1 1 0\n\"f\" 1 x 1 1 0\n", 2,
                                      "templated_functions_MULTI_P")}}});
  c.push_back({"tau dir non-profile files ignored",
               {{"profile.0.0.0", tau("\"main\" 1 0 1 1 0\n", 1)},
                {"profile.x.0.0", "garbage"},
                {"notes.txt", "garbage"}}});
  return c;
}

std::string render_all() {
  std::ostringstream os;
  const fs::path corpus = fs::path(PERFKNOW_SOURCE_DIR) / "fuzz" / "corpus";
  const std::pair<const char*, Reader> readers[] = {
      {"csv", read_csv}, {"json", read_json}, {"tau", read_tau}};
  for (const auto& [fe, read] : readers) {
    for (const auto& file : sorted_files(corpus / fe)) {
      const std::string bytes = slurp(file);
      os << "== corpus/" << fe << "/" << file.filename().string() << "\n"
         << outcome([&, r = read] { return r(bytes); });
    }
  }
  for (const auto& file : sorted_files(corpus / "regressions")) {
    const std::string fname = file.filename().string();
    for (const auto& [fe, read] : readers) {
      if (fname.rfind(std::string(fe) + "_", 0) != 0) continue;
      const std::string bytes = slurp(file);
      os << "== regressions/" << fname << "\n"
         << outcome([&, r = read] { return r(bytes); });
    }
  }
  for (const Case& c : targeted_cases()) {
    os << "== " << c.label << "\n"
       << outcome([&] { return c.read(c.input); });
  }
  for (const TauDirCase& c : tau_dir_cases()) {
    TempDir tmp;
    const fs::path dir = tmp.path() / "run";
    fs::create_directories(dir);
    for (const auto& [name, text] : c.files) {
      std::ofstream(dir / name, std::ios::binary) << text;
    }
    os << "== " << c.label << "\n"
       << outcome([&] { return pk::io::open_trial(dir); },
                  tmp.path().string());
  }
  return os.str();
}

// ---- chunked reads ----------------------------------------------------
//
// Inputs of more than one chunk are parsed in chunks on a pool and
// applied in order. These inputs span several chunks; an error is
// planted in the first and the last row of each chunk, by an edit that
// keeps every byte offset (so the chunks stay where they were), and the
// outcome must be the serial read's.

/// 400 events x 32 threads, values with 17 significant digits.
Trial chunked_trial() {
  Trial t("chunked");
  t.set_thread_count(32);
  const auto m = t.add_metric("TIME", "usec");
  t.add_event("main");
  for (int e = 1; e < 400; ++e) {
    t.add_event("main => f" + std::to_string(e), 0, "G");
  }
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      t.set_inclusive(th, e, m, static_cast<double>(th * 7 + e + 10) / 3.0);
      t.set_exclusive(th, e, m, static_cast<double>(th + e + 1) / 9.0);
      t.set_calls(th, e, static_cast<double>(e % 5 + 1), 1.0);
    }
  }
  return t;
}

/// The outcome of reading `read` serially (a pool without workers), on
/// a pool with three workers and on the shared pool; all three must
/// agree, and the serial one is returned.
std::string same_outcome_on_every_pool(
    const std::function<Trial(pk::ThreadPool&)>& read,
    const std::string& label, const std::string& dir = "") {
  pk::ThreadPool serial(0);
  pk::ThreadPool three(3);
  const std::string want = outcome([&] { return read(serial); }, dir);
  EXPECT_EQ(outcome([&] { return read(three); }, dir), want) << label;
  EXPECT_EQ(outcome([&] { return read(pk::ThreadPool::shared()); }, dir),
            want)
      << label;
  return want;
}

/// The line of byte `pos` of `text`, from 1.
int line_of(const std::string& text, std::size_t pos) {
  return 1 + static_cast<int>(
                 std::count(text.begin(), text.begin() + pos, '\n'));
}

/// Where the line holding byte `pos` starts.
std::size_t line_start(const std::string& text, std::size_t pos) {
  const std::size_t nl = text.rfind('\n', pos - 1);
  return nl == std::string::npos ? 0 : nl + 1;
}

/// Replaces the byte at `at` (or the `from` found from `at`) in place.
std::string edit_at(std::string text, std::size_t at, std::string_view from,
                    std::string_view to) {
  const std::size_t pos = text.find(from, at);
  EXPECT_NE(pos, std::string::npos) << from;
  EXPECT_EQ(from.size(), to.size());
  return text.replace(pos, from.size(), to);
}

/// The line of the ParseError `read` throws, or 0.
int error_line(const std::function<Trial()>& read) {
  try {
    (void)read();
  } catch (const pk::ParseError& e) {
    return e.line();
  }
  return 0;
}

}  // namespace

TEST(IngestParity, CsvErrorAtEveryChunkPositionIsTheSerialOne) {
  std::ostringstream os;
  pk::perfdmf::write_csv_long(chunked_trial(), os);
  const std::string doc = os.str();
  ASSERT_GT(doc.size(), 4 * pk::perfdmf::kIngestChunkBytes);
  // The reader's chunk bounds: whole lines from every
  // kIngestChunkBytes-th byte after the header.
  std::vector<std::size_t> bounds{doc.find('\n') + 1};
  while (doc.size() - bounds.back() > pk::perfdmf::kIngestChunkBytes) {
    bounds.push_back(
        doc.find('\n', bounds.back() + pk::perfdmf::kIngestChunkBytes) + 1);
  }
  bounds.push_back(doc.size());
  ASSERT_GE(bounds.size(), 6u);
  std::vector<std::size_t> rows;  // first and last row of each chunk
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    rows.push_back(bounds[c]);
    rows.push_back(line_start(doc, bounds[c + 1] - 1));
  }
  const auto read = [](const std::string& text) {
    return [&text](pk::ThreadPool& pool) {
      return pk::perfdmf::read_csv_long(text, pool);
    };
  };
  for (const std::size_t row : rows) {
    const std::string label =
        "row at line " + std::to_string(line_of(doc, row));
    // The inclusive value, the fourth field, is not a number.
    const std::size_t third_comma =
        doc.find(',', doc.find(',', doc.find(',', row) + 1) + 1);
    std::string not_number = doc;
    not_number[third_comma + 1] = 'x';
    same_outcome_on_every_pool(read(not_number), label + ": not a number");
    EXPECT_EQ(error_line([&] {
                return pk::perfdmf::read_csv_long(not_number);
              }),
              line_of(doc, row))
        << label;
    // Six fields.
    std::string six = doc;
    six[third_comma] = ';';
    same_outcome_on_every_pool(read(six), label + ": six fields");
  }
  // Two errors in neighbouring chunks: the earlier one is reported.
  for (std::size_t c = 1; c + 1 < bounds.size(); ++c) {
    std::string two = doc;
    two[bounds[c] + 1] = '"';                    // unterminated quote
    two[line_start(doc, bounds[c] - 1) + 1] = '"';
    same_outcome_on_every_pool(read(two), "two errors at chunk " +
                                              std::to_string(c));
    EXPECT_EQ(error_line([&] { return pk::perfdmf::read_csv_long(two); }),
              line_of(doc, bounds[c] - 1));
  }
  EXPECT_EQ(same_outcome_on_every_pool(read(doc), "clean"),
            outcome([&] { return pk::perfdmf::read_csv_long(doc); }));
}

TEST(IngestParity, JsonErrorAtEveryChunkPositionIsTheSerialOne) {
  const std::string doc = pk::perfdmf::to_json(chunked_trial());
  ASSERT_GT(doc.size(), 4 * pk::perfdmf::kIngestChunkBytes);
  // The reader's chunk starts: the first row, then the row after each
  // kIngestChunkBytes-th byte.
  const std::string next_row = ",\n    {\"thread\": ";
  std::vector<std::size_t> starts{doc.find("{\"thread\": ")};
  for (std::size_t at = starts.back() + pk::perfdmf::kIngestChunkBytes;
       at < doc.size(); at = starts.back() + pk::perfdmf::kIngestChunkBytes) {
    const std::size_t sep = doc.find(next_row, at);
    if (sep == std::string::npos) break;
    starts.push_back(sep + 6);
  }
  ASSERT_GE(starts.size(), 6u);
  std::vector<std::size_t> rows;  // first and last row of each chunk
  for (std::size_t c = 0; c < starts.size(); ++c) {
    rows.push_back(starts[c]);
    const std::size_t end =
        c + 1 < starts.size() ? starts[c + 1] - 6 : doc.rfind("]]}") + 3;
    rows.push_back(doc.rfind("\n    {", end - 1) + 5);
  }
  const auto read = [](const std::string& text) {
    return [&text](pk::ThreadPool& pool) {
      return pk::perfdmf::from_json(text, pool);
    };
  };
  for (const std::size_t row : rows) {
    const std::string label =
        "row at line " + std::to_string(line_of(doc, row));
    // A syntax error: the calls value is not a JSON value.
    std::string syntax = doc;
    syntax[doc.find("\"calls\": ", row) + 9] = 'x';
    same_outcome_on_every_pool(read(syntax), label + ": syntax");
    EXPECT_EQ(error_line([&] { return pk::perfdmf::from_json(syntax); }),
              line_of(doc, row))
        << label;
    // A valid row in another layout: read by the general path, and the
    // rows after it by the serial fast path.
    const std::string layout =
        edit_at(doc, row, ", \"event\": ", ",\"event\":  ");
    same_outcome_on_every_pool(read(layout), label + ": other layout");
    // A schema error: the event is out of range.
    std::string range = doc;
    range[doc.find("\"event\": ", row) + 9] = '-';
    same_outcome_on_every_pool(read(range), label + ": out of range");
  }
  for (std::size_t c = 1; c < starts.size(); ++c) {
    std::string two = doc;
    two[doc.find("\"calls\": ", starts[c]) + 9] = 'x';
    two[doc.find("\"calls\": ", doc.rfind("\n    {", starts[c] - 7)) + 9] =
        'x';
    same_outcome_on_every_pool(read(two), "two errors at chunk " +
                                              std::to_string(c));
    EXPECT_EQ(error_line([&] { return pk::perfdmf::from_json(two); }),
              line_of(doc, starts[c]) - 1);
  }
  same_outcome_on_every_pool(read(doc), "clean");
}

TEST(IngestParity, TauErrorInEveryFilePositionIsTheSerialOne) {
  const Trial trial = chunked_trial();
  TempDir tmp;
  const fs::path dir = tmp.path() / "run";
  pk::perfdmf::write_tau_profiles(trial, "TIME", dir);
  const auto read = [&](pk::ThreadPool& pool) {
    return pk::perfdmf::read_tau_profiles(dir, pool);
  };
  const std::string clean = same_outcome_on_every_pool(read, "clean");
  // First, second, a window's edge and the last file; first and last row.
  for (const int file : {0, 1, 3, 4, 5, 31}) {
    const fs::path path = dir / ("profile." + std::to_string(file) + ".0.0");
    const std::string original = slurp(path);
    const std::size_t first_row = original.find("\n\"") + 1;
    const std::size_t last_row = original.rfind("\n\"") + 1;
    for (const std::size_t row : {first_row, last_row}) {
      std::string bad = original;
      // The Excl value, the third number after the name.
      std::size_t at = bad.find("\" ", row) + 2;
      at = bad.find(' ', bad.find(' ', at) + 1) + 1;
      bad[at] = 'x';
      std::ofstream(path, std::ios::binary) << bad;
      const std::string got = same_outcome_on_every_pool(
          read, "file " + std::to_string(file) + " row at line " +
                    std::to_string(line_of(original, row)),
          tmp.path().string());
      EXPECT_NE(got.find("profile." + std::to_string(file) + ".0.0:" +
                         std::to_string(line_of(original, row))),
                std::string::npos)
          << got;
    }
    // A metric that differs from the first file's.
    std::ofstream(path, std::ios::binary)
        << pk::strings::replace_all(original, "MULTI_TIME", "MULTI_TOME");
    same_outcome_on_every_pool(read, "file " + std::to_string(file) +
                                         ": metric mismatch",
                               tmp.path().string());
    std::ofstream(path, std::ios::binary) << original;
  }
  // Errors in neighbouring files, which the pool parses at once: the
  // earlier file's is reported, whether it is a parse error or the
  // metric check the apply makes.
  const auto bad_excl = [](const std::string& text) {
    std::string bad = text;
    std::size_t at = bad.find("\" ", bad.find("\n\"") + 1) + 2;
    at = bad.find(' ', bad.find(' ', at) + 1) + 1;
    bad[at] = 'x';
    return bad;
  };
  for (const int file : {1, 3, 4}) {
    const fs::path path = dir / ("profile." + std::to_string(file) + ".0.0");
    const fs::path next =
        dir / ("profile." + std::to_string(file + 1) + ".0.0");
    const std::string original = slurp(path);
    const std::string original_next = slurp(next);
    std::ofstream(next, std::ios::binary) << bad_excl(original_next);
    for (const bool mismatch : {false, true}) {
      std::ofstream(path, std::ios::binary)
          << (mismatch ? pk::strings::replace_all(original, "MULTI_TIME",
                                                  "MULTI_TOME")
                       : bad_excl(original));
      const std::string got = same_outcome_on_every_pool(
          read, "files " + std::to_string(file) + " and " +
                    std::to_string(file + 1),
          tmp.path().string());
      EXPECT_NE(got.find(mismatch ? "metric mismatch" : "not a number"),
                std::string::npos)
          << got;
      EXPECT_NE(got.find("profile." + std::to_string(file) + ".0.0"),
                std::string::npos)
          << got;
    }
    std::ofstream(path, std::ios::binary) << original;
    std::ofstream(next, std::ios::binary) << original_next;
  }
  EXPECT_EQ(same_outcome_on_every_pool(read, "restored"), clean);
}

TEST(IngestParity, EveryReaderMatchesTheRecordedOutcomes) {
  const fs::path golden = fs::path(PERFKNOW_SOURCE_DIR) / "tests" /
                          "golden" / "ingest_parity.txt";
  const std::string actual = render_all();
  if (std::getenv("PERFKNOW_REGEN_GOLDEN") != nullptr) {
    std::ofstream(golden, std::ios::binary) << actual;
    return;
  }
  std::ifstream is(golden, std::ios::binary);
  ASSERT_TRUE(is.is_open()) << "missing golden file " << golden;
  std::ostringstream expected;
  expected << is.rdbuf();
  // Compare case by case so a failure names the case that drifted.
  std::istringstream a(actual);
  std::istringstream e(expected.str());
  std::string la;
  std::string le;
  std::string label;
  int line = 0;
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_e = static_cast<bool>(std::getline(e, le));
    if (!more_a && !more_e) break;
    ++line;
    if (more_e && le.rfind("== ", 0) == 0) label = le;
    ASSERT_EQ(more_a, more_e) << "outcome count differs near " << label;
    ASSERT_EQ(la, le) << "line " << line << " of " << label;
  }
}
