#include "perfdmf/csv_format.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "perfdmf/limits.hpp"

namespace perfknow::perfdmf {

namespace {

std::string csv_quote(const std::string& s) {
  if (s.find(',') == std::string::npos &&
      s.find('"') == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  return out + "\"";
}

/// Splits one CSV line honoring RFC-4180 quoting.
std::vector<std::string> csv_split(const std::string& line, int lineno) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c != '\r') {
      cur += c;
    }
  }
  if (quoted) {
    throw ParseError("unterminated quoted CSV field", lineno);
  }
  fields.push_back(std::move(cur));
  return fields;
}

constexpr const char* kHeader =
    "event,thread,metric,inclusive,exclusive,calls,subcalls";


/// Ingests one non-empty CSV data row into the trial.
void read_csv_row(profile::Trial& trial, const std::string& line,
                  int lineno) {
  const auto f = csv_split(line, lineno);
  if (f.size() != 7) {
    throw ParseError("CSV row: expected 7 fields, got " +
                         std::to_string(f.size()),
                     lineno);
  }
  // The thread index is untrusted: "-1" used to wrap through size_t and
  // either explode the thread count or surface as InvalidArgumentError
  // from Trial internals (found by fuzzing). Bound it and re-check the
  // total trial shape before growing anything.
  const long long raw_thread = strings::parse_int(f[1]);
  if (raw_thread < 0 ||
      raw_thread > static_cast<long long>(kMaxThreads)) {
    throw ParseError("CSV row: thread index out of range (must be in "
                     "[0, " + std::to_string(kMaxThreads) + "])",
                     lineno);
  }
  const auto thread = static_cast<std::size_t>(raw_thread);
  const std::size_t new_threads =
      std::max(trial.thread_count(), thread + 1);
  const std::size_t new_events =
      trial.event_count() + (trial.find_event(f[0]) ? 0 : 1);
  const std::size_t new_metrics =
      trial.metric_count() + (trial.find_metric(f[2]) ? 0 : 1);
  check_cells(new_threads, new_events, new_metrics, lineno);
  if (thread >= trial.thread_count()) {
    trial.set_thread_count(thread + 1);
  }
  // Callpath parents from "a => b" naming, as in the TAU reader.
  profile::EventId parent = profile::kNoEvent;
  const auto pos = f[0].rfind(" => ");
  if (pos != std::string::npos) {
    if (const auto p = trial.find_event(f[0].substr(0, pos))) {
      parent = *p;
    }
  }
  const auto event = trial.add_event(f[0], parent);
  const auto metric = trial.add_metric(f[2]);
  trial.set_inclusive(thread, event, metric, strings::parse_double(f[3]));
  trial.set_exclusive(thread, event, metric, strings::parse_double(f[4]));
  trial.set_calls(thread, event, strings::parse_double(f[5]),
                  strings::parse_double(f[6]));
}

}  // namespace

void write_csv_long(const profile::Trial& trial, std::ostream& os) {
  os << kHeader << '\n';
  os.precision(17);
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const std::string name = csv_quote(trial.event(e).name);
    for (std::size_t th = 0; th < trial.thread_count(); ++th) {
      const auto ci = trial.calls(th, e);
      for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
        os << name << ',' << th << ',' << csv_quote(trial.metric(m).name)
           << ',' << trial.inclusive(th, e, m) << ','
           << trial.exclusive(th, e, m) << ',' << ci.calls << ','
           << ci.subcalls << '\n';
      }
    }
  }
}

profile::Trial read_csv_long(std::istream& is) {
  std::string line;
  int lineno = 0;
  if (!std::getline(is, line)) {
    throw ParseError("empty CSV", 1);
  }
  ++lineno;
  // Tolerate a UTF-8 BOM and trailing \r.
  if (line.size() >= 3 && line.compare(0, 3, "\xEF\xBB\xBF") == 0) {
    line = line.substr(3);
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  if (line != kHeader) {
    throw ParseError("unexpected CSV header (expected '" +
                         std::string(kHeader) + "')",
                     lineno);
  }

  profile::Trial trial("csv_import");
  while (std::getline(is, line)) {
    ++lineno;
    if (strings::trim(line).empty()) continue;
    try {
      read_csv_row(trial, line, lineno);
    } catch (const ParseError& e) {
      // Field-level parses (parse_int/parse_double) throw without a
      // location; attach the row's line number before propagating.
      if (e.line() == 0) throw ParseError(e.message(), lineno);
      throw;
    }
  }
  trial.set_metadata("source_format", "CSV");
  return trial;
}

}  // namespace perfknow::perfdmf
