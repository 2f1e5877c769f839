#include "perfdmf/csv_format.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "perfdmf/limits.hpp"
#include "telemetry/telemetry.hpp"

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
/// returns to take out. `ends` is working space for the latter.
void csv_split(std::string_view line, int lineno,
               std::vector<std::string_view>& fields, std::string& scratch,
               std::vector<std::size_t>& ends) {
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
  ends.clear();
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

/// One data row, read without the trial. The names view the input, or
/// a chunk's store of unquoted names when the row had quotes.
struct CsvRow {
  std::string_view event;
  std::string_view metric;
  std::size_t thread = 0;
  double inclusive = 0.0;
  double exclusive = 0.0;
  double calls = 0.0;
  double subcalls = 0.0;
  int line = 0;  ///< within its chunk, from 1
};

/// Splits a non-empty data row into `f` and reads its names and thread:
/// the checks that come before the trial's.
void split_row(std::string_view line, int lineno,
               std::vector<std::string_view>& f, std::string& scratch,
               std::vector<std::size_t>& ends, CsvRow& row) {
  csv_split(line, lineno, f, scratch, ends);
  if (f.size() != 7) {
    throw ParseError("CSV row: expected 7 fields, got " +
                         std::to_string(f.size()),
                     lineno);
  }
  // The thread index is untrusted: "-1" used to wrap through size_t and
  // either explode the thread count or surface as InvalidArgumentError
  // from Trial internals (found by fuzzing). Bound it here; the trial
  // shape is re-checked before anything grows.
  const long long raw_thread = strings::parse_int(f[1]);
  if (raw_thread < 0 || raw_thread > static_cast<long long>(kMaxThreads)) {
    throw ParseError("CSV row: thread index out of range (must be in "
                     "[0, " + std::to_string(kMaxThreads) + "])",
                     lineno);
  }
  row.event = f[0];
  row.metric = f[2];
  row.thread = static_cast<std::size_t>(raw_thread);
}

/// Reads the four numbers of a split row, in the order the reader always
/// has: subcalls before calls.
void read_numbers(const std::vector<std::string_view>& f, CsvRow& row) {
  row.inclusive = strings::parse_double(f[3]);
  row.exclusive = strings::parse_double(f[4]);
  row.subcalls = strings::parse_double(f[6]);
  row.calls = strings::parse_double(f[5]);
}

/// Ingests the data rows into one trial. The event and metric of the
/// previous row are remembered, so a run of rows naming the same ones
/// resolves each name once, not once per cell.
class RowReader {
 public:
  explicit RowReader(profile::Trial& trial) : trial_(trial) {}

  /// Ingests one non-empty data row, checked in the reader's order:
  /// split, then the trial's shape, then the numbers.
  void read(std::string_view line, int lineno) {
    CsvRow row;
    split_row(line, lineno, f_, scratch_, ends_, row);
    resolve(row, lineno);
    read_numbers(f_, row);
    store(row);
  }
  /// Ingests a row that split_row and read_numbers have already read.
  void apply(const CsvRow& row, int lineno) {
    resolve(row, lineno);
    store(row);
  }

 private:
  static constexpr profile::MetricId kNoMetric =
      static_cast<profile::MetricId>(-1);

  /// Finds or adds the row's event and metric, and grows the thread
  /// count, once the shape they make has passed check_cells.
  void resolve(const CsvRow& row, int lineno) {
    if (event_ == profile::kNoEvent ||
        trial_.event(event_).name != row.event) {
      event_ = trial_.find_event(row.event).value_or(profile::kNoEvent);
    }
    if (metric_ == kNoMetric || trial_.metric(metric_).name != row.metric) {
      metric_ = trial_.find_metric(row.metric).value_or(kNoMetric);
    }
    // A row that grows nothing leaves the shape, which passed when it
    // was reached, as it is.
    if (row.thread >= trial_.thread_count() ||
        event_ == profile::kNoEvent || metric_ == kNoMetric) {
      check_cells(std::max(trial_.thread_count(), row.thread + 1),
                  trial_.event_count() +
                      (event_ == profile::kNoEvent ? 1 : 0),
                  trial_.metric_count() + (metric_ == kNoMetric ? 1 : 0),
                  lineno);
    }
    if (row.thread >= trial_.thread_count()) {
      trial_.set_thread_count(row.thread + 1);
    }
    if (event_ == profile::kNoEvent) {
      // Callpath parents from "a => b" naming, as in the TAU reader.
      profile::EventId parent = profile::kNoEvent;
      const auto pos = row.event.rfind(" => ");
      if (pos != std::string_view::npos) {
        parent = trial_.find_event(row.event.substr(0, pos))
                     .value_or(profile::kNoEvent);
      }
      event_ = trial_.add_event(std::string(row.event), parent);
    }
    if (metric_ == kNoMetric) {
      metric_ = trial_.add_metric(std::string(row.metric));
    }
  }
  void store(const CsvRow& row) {
    trial_.set_inclusive(row.thread, event_, metric_, row.inclusive);
    trial_.set_exclusive(row.thread, event_, metric_, row.exclusive);
    trial_.set_calls(row.thread, event_, row.calls, row.subcalls);
  }

  profile::Trial& trial_;
  profile::EventId event_ = profile::kNoEvent;
  profile::MetricId metric_ = kNoMetric;
  std::vector<std::string_view> f_;
  std::string scratch_;
  std::vector<std::size_t> ends_;
};

/// The rows of one chunk of whole lines, split and read on the pool.
/// Reading stops at the first row that fails; the caller reads that row
/// again in the serial order, which throws the serial reader's error.
struct CsvChunk {
  std::vector<CsvRow> rows;
  /// The names of the rows split through the scratch buffer (quoted
  /// fields, CRLF lines), back to back; `moved` holds each such row's
  /// index and the offset of its event name here, its metric following.
  std::string unquoted;
  std::vector<std::pair<std::size_t, std::size_t>> moved;
  int lines = 0;
  int failed_line = 0;  ///< within the chunk; 0 when every row was read
  std::string_view failed;
  // split_row's working space, kept from one chunk to the next.
  std::vector<std::string_view> f;
  std::string scratch;
  std::vector<std::size_t> ends;

  void parse(std::string_view text, std::size_t begin, std::size_t end) {
    static telemetry::Counter& scanned = telemetry::counter("text.scanned");
    rows.clear();
    unquoted.clear();
    moved.clear();
    lines = 0;
    failed_line = 0;
    // The lines strings::next_line yields: the last may lack its '\n'.
    std::size_t pos = begin;
    while (pos < end) {
      const std::size_t nl = text.find('\n', pos);
      const std::size_t stop = nl == std::string_view::npos ? end : nl;
      const std::string_view line = text.substr(pos, stop - pos);
      pos = stop + 1;
      ++lines;
      if (strings::trim(line).empty()) continue;
      CsvRow& row = rows.emplace_back();
      row.line = lines;
      try {
        split_row(line, lines, f, scratch, ends, row);
        read_numbers(f, row);
      } catch (const ParseError&) {
        rows.pop_back();
        failed_line = lines;
        failed = line;
        break;
      }
      if (row.event.data() < line.data() ||
          row.event.data() >= line.data() + line.size()) {
        moved.emplace_back(rows.size() - 1, unquoted.size());
        unquoted += row.event;
        unquoted += row.metric;
      }
    }
    // `unquoted` no longer grows, so views into it stay valid.
    for (const auto& [i, at] : moved) {
      CsvRow& row = rows[i];
      row.event = std::string_view(unquoted).substr(at, row.event.size());
      row.metric = std::string_view(unquoted).substr(at + row.event.size(),
                                                     row.metric.size());
    }
    scanned.add(std::min(pos, end) - begin);
  }
};

}  // namespace

void write_csv_long(const profile::Trial& trial, std::ostream& os) {
  std::vector<std::string> metrics;
  for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
    metrics.push_back(csv_quote(trial.metric(m).name));
  }
  std::string out(kHeader);
  out += '\n';
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const std::string name = csv_quote(trial.event(e).name);
    for (std::size_t th = 0; th < trial.thread_count(); ++th) {
      const auto ci = trial.calls(th, e);
      for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
        out += name;
        out += ',';
        strings::append_int(out, th);
        out += ',';
        out += metrics[m];
        out += ',';
        strings::append_g17(out, trial.inclusive(th, e, m));
        out += ',';
        strings::append_g17(out, trial.exclusive(th, e, m));
        out += ',';
        strings::append_g17(out, ci.calls);
        out += ',';
        strings::append_g17(out, ci.subcalls);
        out += '\n';
      }
      strings::write_block(os, out);
    }
  }
  strings::write_block(os, out, /*last=*/true);
}

profile::Trial read_csv_long(std::string_view text, ThreadPool& pool) {
  std::size_t pos = 0;
  std::string_view line;
  if (!strings::next_line(text, pos, line)) {
    throw ParseError("empty CSV", 1);
  }
  // Tolerate a UTF-8 BOM and trailing \r.
  if (strings::starts_with(line, "\xEF\xBB\xBF")) line.remove_prefix(3);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line != kHeader) {
    throw ParseError("unexpected CSV header (expected '" +
                         std::string(kHeader) + "')",
                     1);
  }

  // The data lines split into chunks of whole lines, each read into
  // slot c % window on the pool and applied here in file order.
  std::vector<std::size_t> bounds{std::min(pos, text.size())};
  while (text.size() - bounds.back() > kIngestChunkBytes) {
    const std::size_t nl = text.find('\n', bounds.back() + kIngestChunkBytes);
    if (nl == std::string_view::npos || nl + 1 == text.size()) break;
    bounds.push_back(nl + 1);
  }
  bounds.push_back(text.size());
  const std::size_t row_capacity =
      std::min(text.size(), kIngestChunkBytes) / 32;
  const std::size_t window =
      ingest_window(pool, row_capacity * sizeof(CsvRow));
  std::vector<CsvChunk> slots(window);
  for (CsvChunk& chunk : slots) chunk.rows.reserve(row_capacity);

  profile::Trial trial("csv_import");
  RowReader rows(trial);
  int lineno = 1;  // the line before the chunk being applied
  pool.ordered_for(
      bounds.size() - 1, window,
      [&](std::size_t c) {
        slots[c % window].parse(text, bounds[c], bounds[c + 1]);
      },
      [&](std::size_t c) {
        const CsvChunk& chunk = slots[c % window];
        for (const CsvRow& row : chunk.rows) {
          rows.apply(row, lineno + row.line);
        }
        if (chunk.failed_line != 0) {
          const int failed = lineno + chunk.failed_line;
          try {
            rows.read(chunk.failed, failed);
          } catch (const ParseError& e) {
            // Field-level parses (parse_int/parse_double) throw without
            // a location; attach the row's line number.
            if (e.line() == 0) throw ParseError(e.message(), failed);
            throw;
          }
        }
        lineno += chunk.lines;
        return true;
      });
  trial.set_metadata("source_format", "CSV");
  return trial;
}

}  // namespace perfknow::perfdmf
