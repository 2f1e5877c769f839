#include "perfdmf/json_format.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "perfdmf/limits.hpp"

namespace perfknow::perfdmf {

namespace {

// ---------------------------------------------------------------------
// Checked access to the parsed document. Every schema violation is a
// ParseError whose text starts with "JSON:", like a syntax error.
// ---------------------------------------------------------------------

using json::Value;

const Value& expect(const Value& v, Value::Kind kind, const char* what) {
  if (v.kind != kind) throw ParseError(std::string("JSON: expected ") + what);
  return v;
}

const std::vector<Value>& as_array(const Value& v) {
  return expect(v, Value::Kind::kArray, "array").items;
}
double as_number(const Value& v) {
  return expect(v, Value::Kind::kNumber, "number").number;
}
const std::string& as_string(const Value& v) {
  return expect(v, Value::Kind::kString, "string").text;
}

/// Object member, or nullptr when absent. A duplicated key resolves to
/// its last occurrence, as in a key -> value map.
const Value* find(const Value& obj, const std::string& key) {
  const auto& members = expect(obj, Value::Kind::kObject, "object").members;
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

/// Required object member; throws with the key named.
const Value& at(const Value& obj, const std::string& key) {
  const Value* v = find(obj, key);
  if (v == nullptr) throw ParseError("JSON: missing key '" + key + "'");
  return *v;
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

void write_number(std::ostream& os, double v) {
  if (std::floor(v) == v && std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
  }
}

}  // namespace

void write_json(const profile::TrialView& trial, std::ostream& os) {
  os << "{\n  \"name\": ";
  os << json::quote(trial.name());
  os << ",\n  \"threads\": " << trial.thread_count();
  os << ",\n  \"metadata\": {";
  bool first = true;
  for (const auto& [k, v] : trial.all_metadata()) {
    if (!first) os << ", ";
    first = false;
    os << json::quote(k) << ": " << json::quote(v);
  }
  os << "},\n  \"metrics\": [";
  for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
    if (m != 0) os << ", ";
    const auto& metric = trial.metric(m);
    os << "{\"name\": " << json::quote(metric.name)
       << ", \"units\": " << json::quote(metric.units)
       << ", \"derived\": " << (metric.derived ? "true" : "false") << "}";
  }
  os << "],\n  \"events\": [";
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    if (e != 0) os << ", ";
    const auto& ev = trial.event(e);
    os << "{\"name\": " << json::quote(ev.name) << ", \"parent\": "
       << (ev.parent == profile::kNoEvent
               ? -1
               : static_cast<long long>(ev.parent));
    os << ", \"group\": " << json::quote(ev.group) << "}";
  }
  os << "],\n  \"data\": [";
  bool first_row = true;
  for (std::size_t th = 0; th < trial.thread_count(); ++th) {
    for (profile::EventId e = 0; e < trial.event_count(); ++e) {
      const auto ci = trial.calls(th, e);
      bool all_zero = ci.calls == 0.0 && ci.subcalls == 0.0;
      for (profile::MetricId m = 0; all_zero && m < trial.metric_count();
           ++m) {
        if (trial.inclusive(th, e, m) != 0.0 ||
            trial.exclusive(th, e, m) != 0.0) {
          all_zero = false;
        }
      }
      if (all_zero) continue;
      if (!first_row) os << ",";
      first_row = false;
      os << "\n    {\"thread\": " << th << ", \"event\": " << e
         << ", \"calls\": ";
      write_number(os, ci.calls);
      os << ", \"subcalls\": ";
      write_number(os, ci.subcalls);
      os << ", \"values\": [";
      for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
        if (m != 0) os << ", ";
        os << "[";
        write_number(os, trial.inclusive(th, e, m));
        os << ", ";
        write_number(os, trial.exclusive(th, e, m));
        os << "]";
      }
      os << "]}";
    }
  }
  os << "\n  ]\n}\n";
}

std::string to_json(const profile::TrialView& trial) {
  std::ostringstream ss;
  write_json(trial, ss);
  return ss.str();
}

profile::Trial from_json(const std::string& text) {
  // Tolerate a UTF-8 BOM before the document.
  const bool bom = text.compare(0, 3, "\xEF\xBB\xBF") == 0;
  Value root;
  try {
    root = bom ? json::parse(text.substr(3)) : json::parse(text);
  } catch (const ParseError& e) {
    throw ParseError("JSON: " + e.message(), e.line(), e.column(),
                     e.excerpt());
  }

  profile::Trial trial(as_string(at(root, "name")));
  // Dimension-like numbers come from untrusted input: funnel every one
  // through checked_index so "threads": -1 / 1e18 / NaN becomes a
  // ParseError instead of a UB float cast or an unbounded allocation
  // (both found by fuzzing).
  const std::size_t threads = checked_index(
      as_number(at(root, "threads")), kMaxThreads, "JSON: thread count");
  const auto& metrics = as_array(at(root, "metrics"));
  const auto& events = as_array(at(root, "events"));
  check_cells(threads, events.size(), metrics.size());
  trial.set_thread_count(threads);
  if (const Value* md = find(root, "metadata")) {
    for (const auto& [k, v] : expect(*md, Value::Kind::kObject, "object")
                                  .members) {
      trial.set_metadata(k, as_string(v));
    }
  }
  for (const auto& m : metrics) {
    const Value* derived = find(m, "derived");
    const Value* units = find(m, "units");
    trial.add_metric(
        as_string(at(m, "name")),
        units != nullptr ? as_string(*units) : "count",
        derived != nullptr &&
            expect(*derived, Value::Kind::kBool, "boolean").boolean);
  }
  for (const auto& e : events) {
    const double parent_num = as_number(at(e, "parent"));
    profile::EventId parent = profile::kNoEvent;
    if (parent_num >= 0.0) {
      const std::size_t p = checked_index(parent_num, events.size(),
                                          "JSON: event parent");
      if (p >= trial.event_count()) {
        throw ParseError("JSON: event parent must refer to an earlier event");
      }
      parent = static_cast<profile::EventId>(p);
    }
    const Value* group = find(e, "group");
    trial.add_event(as_string(at(e, "name")), parent,
                    group != nullptr ? as_string(*group) : "");
  }
  for (const auto& row : as_array(at(root, "data"))) {
    const auto th = checked_index(as_number(at(row, "thread")),
                                  trial.thread_count(), "JSON: data thread");
    const auto e = static_cast<profile::EventId>(
        checked_index(as_number(at(row, "event")), trial.event_count(),
                      "JSON: data event"));
    if (e >= trial.event_count() || th >= trial.thread_count()) {
      throw ParseError("JSON: data row out of range");
    }
    trial.set_calls(th, e, as_number(at(row, "calls")),
                    as_number(at(row, "subcalls")));
    const auto& values = as_array(at(row, "values"));
    if (values.size() != trial.metric_count()) {
      throw ParseError("JSON: values width does not match metric count");
    }
    for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
      const auto& pair = as_array(values[m]);
      if (pair.size() != 2) {
        throw ParseError("JSON: value pair must be [inclusive, exclusive]");
      }
      trial.set_inclusive(th, e, m, as_number(pair[0]));
      trial.set_exclusive(th, e, m, as_number(pair[1]));
    }
  }
  return trial;
}

profile::Trial read_json(std::istream& is) {
  std::ostringstream ss;
  ss << is.rdbuf();
  return from_json(ss.str());
}

}  // namespace perfknow::perfdmf
