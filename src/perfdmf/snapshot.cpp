#include "perfdmf/snapshot.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace perfknow::perfdmf {

namespace {

// Names and metadata values may contain anything except newline/tab once
// escaped. We escape backslash, tab and newline.
std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case '\\': out += '\\'; break;
        case 't': out += '\t'; break;
        case 'n': out += '\n'; break;
        default: out += s[i];
      }
    } else {
      out += s[i];
    }
  }
  return out;
}

}  // namespace

void write_snapshot(const profile::Trial& trial, std::ostream& os) {
  os << "PKPROF\t1\n";
  os << "trial\t" << escape(trial.name()) << '\n';
  for (const auto& [k, v] : trial.all_metadata()) {
    os << "meta\t" << escape(k) << '\t' << escape(v) << '\n';
  }
  os << "threads\t" << trial.thread_count() << '\n';
  for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
    const auto& metric = trial.metric(m);
    os << "metric\t" << escape(metric.name) << '\t' << escape(metric.units)
       << '\t' << (metric.derived ? 1 : 0) << '\n';
  }
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const auto& ev = trial.event(e);
    const long long parent =
        ev.parent == profile::kNoEvent ? -1 : static_cast<long long>(ev.parent);
    os << "event\t" << parent << '\t' << escape(ev.group) << '\t'
       << escape(ev.name) << '\n';
  }
  os.precision(17);
  for (std::size_t t = 0; t < trial.thread_count(); ++t) {
    for (profile::EventId e = 0; e < trial.event_count(); ++e) {
      const auto ci = trial.calls(t, e);
      os << "d\t" << t << '\t' << e << '\t' << ci.calls << '\t'
         << ci.subcalls;
      for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
        os << '\t' << trial.inclusive(t, e, m) << '\t'
           << trial.exclusive(t, e, m);
      }
      os << '\n';
    }
  }
  os << "end\n";
}

profile::Trial read_snapshot(std::istream& is) {
  profile::Trial trial;
  std::string line;
  int lineno = 0;
  bool saw_header = false;
  bool saw_end = false;

  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto fields = strings::split(line, '\t');
    const std::string& tag = fields[0];

    if (!saw_header) {
      if (tag != "PKPROF" || fields.size() < 2 || fields[1] != "1") {
        throw ParseError("not a PKPROF version 1 snapshot", lineno);
      }
      saw_header = true;
      continue;
    }

    if (tag == "trial") {
      if (fields.size() < 2) throw ParseError("trial: missing name", lineno);
      trial.set_name(unescape(fields[1]));
    } else if (tag == "meta") {
      if (fields.size() < 3) throw ParseError("meta: need key+value", lineno);
      trial.set_metadata(unescape(fields[1]), unescape(fields[2]));
    } else if (tag == "threads") {
      if (fields.size() < 2) throw ParseError("threads: missing count", lineno);
      trial.set_thread_count(
          static_cast<std::size_t>(strings::parse_int(fields[1])));
    } else if (tag == "metric") {
      if (fields.size() < 4) throw ParseError("metric: bad field count", lineno);
      trial.add_metric(unescape(fields[1]), unescape(fields[2]),
                       strings::parse_int(fields[3]) != 0);
    } else if (tag == "event") {
      if (fields.size() < 4) throw ParseError("event: bad field count", lineno);
      const long long parent = strings::parse_int(fields[1]);
      trial.add_event(unescape(fields[3]),
                      parent < 0 ? profile::kNoEvent
                                 : static_cast<profile::EventId>(parent),
                      unescape(fields[2]));
    } else if (tag == "d") {
      const std::size_t expected = 5 + 2 * trial.metric_count();
      if (fields.size() != expected) {
        throw ParseError("data row: expected " + std::to_string(expected) +
                             " fields, got " + std::to_string(fields.size()),
                         lineno);
      }
      const auto t = static_cast<std::size_t>(strings::parse_int(fields[1]));
      const auto e =
          static_cast<profile::EventId>(strings::parse_int(fields[2]));
      trial.set_calls(t, e, strings::parse_double(fields[3]),
                      strings::parse_double(fields[4]));
      for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
        trial.set_inclusive(t, e, m,
                            strings::parse_double(fields[5 + 2 * m]));
        trial.set_exclusive(t, e, m,
                            strings::parse_double(fields[6 + 2 * m]));
      }
    } else if (tag == "end") {
      saw_end = true;
      break;
    } else {
      throw ParseError("unknown record tag '" + tag + "'", lineno);
    }
  }
  if (!saw_header) throw ParseError("empty snapshot", lineno);
  if (!saw_end) throw ParseError("truncated snapshot: missing 'end'", lineno);
  return trial;
}

std::string to_csv(const profile::Trial& trial, const std::string& metric) {
  const auto m = trial.metric_id(metric);
  std::ostringstream os;
  os << "event";
  for (std::size_t t = 0; t < trial.thread_count(); ++t) {
    os << ",thread" << t;
  }
  os << '\n';
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    std::string name = trial.event(e).name;
    // Quote commas out of event names ("a, b" is legal in callpaths).
    if (name.find(',') != std::string::npos) {
      name = "\"" + name + "\"";
    }
    os << name;
    os.precision(17);
    for (std::size_t t = 0; t < trial.thread_count(); ++t) {
      os << ',' << trial.exclusive(t, e, m);
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace perfknow::perfdmf
