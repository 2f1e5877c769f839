#include "perfdmf/csv_format.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

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

/// Splits one CSV line honoring RFC-4180 quoting into `fields`: views
/// of `line`, or of `scratch` when the line has quotes or carriage
/// returns to take out.
void csv_split(std::string_view line, int lineno,
               std::vector<std::string_view>& fields,
               std::string& scratch) {
  fields.clear();
  if (line.find('"') == std::string_view::npos &&
      line.find('\r') == std::string_view::npos) {
    std::size_t start = 0;
    for (std::size_t comma = line.find(','); comma != std::string_view::npos;
         comma = line.find(',', start)) {
      fields.push_back(line.substr(start, comma - start));
      start = comma + 1;
    }
    fields.push_back(line.substr(start));
    return;
  }
  // Unescape into scratch, recording where each field ends; the views
  // are taken once scratch has stopped growing.
  scratch.clear();
  std::vector<std::size_t> ends;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          scratch += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        scratch += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      ends.push_back(scratch.size());
    } else if (c != '\r') {
      scratch += c;
    }
  }
  if (quoted) {
    throw ParseError("unterminated quoted CSV field", lineno);
  }
  ends.push_back(scratch.size());
  std::size_t start = 0;
  for (const std::size_t end : ends) {
    fields.push_back(std::string_view(scratch).substr(start, end - start));
    start = end;
  }
}

constexpr std::string_view kHeader =
    "event,thread,metric,inclusive,exclusive,calls,subcalls";

/// Ingests the data rows into one trial. The event and metric of the
/// previous row are remembered, so a run of rows naming the same ones
/// resolves each name once, not once per cell.
class RowReader {
 public:
  explicit RowReader(profile::Trial& trial) : trial_(trial) {}

  /// Ingests one non-empty CSV data row.
  void read(std::string_view line, int lineno) {
    csv_split(line, lineno, f_, scratch_);
    if (f_.size() != 7) {
      throw ParseError("CSV row: expected 7 fields, got " +
                           std::to_string(f_.size()),
                       lineno);
    }
    // The thread index is untrusted: "-1" used to wrap through size_t
    // and either explode the thread count or surface as
    // InvalidArgumentError from Trial internals (found by fuzzing).
    // Bound it and re-check the total trial shape before growing
    // anything.
    const long long raw_thread = strings::parse_int(f_[1]);
    if (raw_thread < 0 ||
        raw_thread > static_cast<long long>(kMaxThreads)) {
      throw ParseError("CSV row: thread index out of range (must be in "
                       "[0, " + std::to_string(kMaxThreads) + "])",
                       lineno);
    }
    const auto thread = static_cast<std::size_t>(raw_thread);
    if (event_ == profile::kNoEvent || trial_.event(event_).name != f_[0]) {
      event_ = trial_.find_event(f_[0]).value_or(profile::kNoEvent);
    }
    if (metric_ == kNoMetric || trial_.metric(metric_).name != f_[2]) {
      metric_ = trial_.find_metric(f_[2]).value_or(kNoMetric);
    }
    check_cells(std::max(trial_.thread_count(), thread + 1),
                trial_.event_count() + (event_ == profile::kNoEvent ? 1 : 0),
                trial_.metric_count() + (metric_ == kNoMetric ? 1 : 0),
                lineno);
    if (thread >= trial_.thread_count()) {
      trial_.set_thread_count(thread + 1);
    }
    if (event_ == profile::kNoEvent) {
      // Callpath parents from "a => b" naming, as in the TAU reader.
      profile::EventId parent = profile::kNoEvent;
      const auto pos = f_[0].rfind(" => ");
      if (pos != std::string_view::npos) {
        parent = trial_.find_event(f_[0].substr(0, pos))
                     .value_or(profile::kNoEvent);
      }
      event_ = trial_.add_event(std::string(f_[0]), parent);
    }
    if (metric_ == kNoMetric) metric_ = trial_.add_metric(std::string(f_[2]));
    trial_.set_inclusive(thread, event_, metric_,
                         strings::parse_double(f_[3]));
    trial_.set_exclusive(thread, event_, metric_,
                         strings::parse_double(f_[4]));
    // subcalls is parsed before calls, as the reader always has.
    const double subcalls = strings::parse_double(f_[6]);
    trial_.set_calls(thread, event_, strings::parse_double(f_[5]),
                     subcalls);
  }

 private:
  static constexpr profile::MetricId kNoMetric =
      static_cast<profile::MetricId>(-1);

  profile::Trial& trial_;
  profile::EventId event_ = profile::kNoEvent;
  profile::MetricId metric_ = kNoMetric;
  std::vector<std::string_view> f_;
  std::string scratch_;
};

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

profile::Trial read_csv_long(std::string_view text) {
  std::size_t pos = 0;
  std::string_view line;
  int lineno = 0;
  if (!strings::next_line(text, pos, line)) {
    throw ParseError("empty CSV", 1);
  }
  ++lineno;
  // Tolerate a UTF-8 BOM and trailing \r.
  if (strings::starts_with(line, "\xEF\xBB\xBF")) line.remove_prefix(3);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line != kHeader) {
    throw ParseError("unexpected CSV header (expected '" +
                         std::string(kHeader) + "')",
                     lineno);
  }

  profile::Trial trial("csv_import");
  RowReader rows(trial);
  while (strings::next_line(text, pos, line)) {
    ++lineno;
    if (strings::trim(line).empty()) continue;
    try {
      rows.read(line, lineno);
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
