#include "perfdmf/json_format.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "perfdmf/limits.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::perfdmf {

namespace {

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

void append_number(std::string& out, double v) {
  if (std::floor(v) == v && std::abs(v) < 1e15) {
    if (v == 0.0 && std::signbit(v)) out += '-';  // -0.0 reads back as -0.0
    strings::append_int(out, static_cast<long long>(v));
  } else {
    strings::append_g17(out, v);
  }
}

/// True for +0.0 only: a row of such cells is left out, and reads back
/// as the same bits.
bool positive_zero(double v) { return std::bit_cast<std::uint64_t>(v) == 0; }

/// JSON has no NaN or infinity: refuses cell `field` (of `metric`, when
/// not empty) of thread `th` and event `e`.
[[noreturn]] void refuse_non_finite(const profile::Trial& trial,
                                    std::size_t th, profile::EventId e,
                                    std::string_view metric,
                                    const char* field, double v) {
  std::string where = "thread " + std::to_string(th) + ", event '" +
                      trial.event(e).name + "'";
  if (!metric.empty()) where += ", metric '" + std::string(metric) + "'";
  throw InvalidArgumentError(
      "JSON: cannot write " + where + ": its " + field + " value is " +
      (std::isnan(v) ? "NaN" : v > 0 ? "inf" : "-inf") +
      ", which JSON cannot represent");
}

}  // namespace

void write_json(const profile::Trial& trial, std::ostream& os) {
  std::string out = "{\n  \"name\": ";
  out += json::quote(trial.name());
  out += ",\n  \"threads\": ";
  strings::append_int(out, trial.thread_count());
  out += ",\n  \"metadata\": {";
  bool first = true;
  for (const auto& [k, v] : trial.all_metadata()) {
    if (!first) out += ", ";
    first = false;
    out += json::quote(k);
    out += ": ";
    out += json::quote(v);
  }
  out += "},\n  \"metrics\": [";
  for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
    if (m != 0) out += ", ";
    const auto& metric = trial.metric(m);
    out += "{\"name\": ";
    out += json::quote(metric.name);
    out += ", \"units\": ";
    out += json::quote(metric.units);
    out += ", \"derived\": ";
    out += metric.derived ? "true}" : "false}";
  }
  out += "],\n  \"events\": [";
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    if (e != 0) out += ", ";
    const auto& ev = trial.event(e);
    out += "{\"name\": ";
    out += json::quote(ev.name);
    out += ", \"parent\": ";
    strings::append_int(out, ev.parent == profile::kNoEvent
                                 ? -1
                                 : static_cast<long long>(ev.parent));
    out += ", \"group\": ";
    out += json::quote(ev.group);
    out += '}';
    strings::write_block(os, out);
  }
  out += "],\n  \"data\": [";
  bool first_row = true;
  for (std::size_t th = 0; th < trial.thread_count(); ++th) {
    for (profile::EventId e = 0; e < trial.event_count(); ++e) {
      const auto ci = trial.calls(th, e);
      bool all_zero = positive_zero(ci.calls) && positive_zero(ci.subcalls);
      for (profile::MetricId m = 0; all_zero && m < trial.metric_count();
           ++m) {
        all_zero = positive_zero(trial.inclusive(th, e, m)) &&
                   positive_zero(trial.exclusive(th, e, m));
      }
      if (all_zero) continue;
      const auto cell = [&](double v, std::string_view metric,
                            const char* field) {
        if (!std::isfinite(v)) {
          refuse_non_finite(trial, th, e, metric, field, v);
        }
        append_number(out, v);
      };
      if (!first_row) out += ',';
      first_row = false;
      out += "\n    {\"thread\": ";
      strings::append_int(out, th);
      out += ", \"event\": ";
      strings::append_int(out, e);
      out += ", \"calls\": ";
      cell(ci.calls, {}, "calls");
      out += ", \"subcalls\": ";
      cell(ci.subcalls, {}, "subcalls");
      out += ", \"values\": [";
      for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
        const std::string& metric = trial.metric(m).name;
        if (m != 0) out += ", ";
        out += '[';
        cell(trial.inclusive(th, e, m), metric, "inclusive");
        out += ", ";
        cell(trial.exclusive(th, e, m), metric, "exclusive");
        out += ']';
      }
      out += "]}";
      strings::write_block(os, out);
    }
  }
  out += "\n  ]\n}\n";
  strings::write_block(os, out, /*last=*/true);
}

std::string to_json(const profile::Trial& trial) {
  std::ostringstream ss;
  write_json(trial, ss);
  return ss.str();
}

namespace {

// ---------------------------------------------------------------------
// Reader. One pass tokenizes the whole document, recording where the
// value of each top-level member starts. When it reaches `data` it
// reads the schema from the members recorded so far and streams the
// rows straight into the trial's columns; no DOM of the trial is ever
// built. A schema error met there is held back until the rest of the
// document has been tokenized, so a syntax error anywhere is reported
// first. If `data` is absent, or a member after it changes what the
// schema reads (members may come in any order, and a duplicated key
// resolves to its last occurrence), the schema and `data` are read
// again from the final offsets. Every schema violation is a ParseError
// whose text starts with "JSON:", like a syntax error, and carries no
// location; the tokenizer's syntax errors always carry one. A data row
// spelled as write_json writes it is matched byte for byte instead of
// tokenized key by key (WriterRow); every other row, and every row that
// would fail, is tokenized.
// ---------------------------------------------------------------------

using Token = json::Tokenizer::Token;

/// Offset of a member that is not present.
constexpr std::size_t kAbsent = std::string_view::npos;

[[noreturn]] void expected(const char* what) {
  throw ParseError(std::string("JSON: expected ") + what);
}

std::size_t require(std::size_t offset, const char* key) {
  if (offset == kAbsent) {
    throw ParseError(std::string("JSON: missing key '") + key + "'");
  }
  return offset;
}

/// Reads the members of the object whose kBeginObject `t` just returned.
/// offsets[i] receives where the value of keys[i] starts, or kAbsent; a
/// duplicated key resolves to its last occurrence, as in a key -> value
/// map.
void scan_members(json::Tokenizer& t,
                  std::initializer_list<std::string_view> keys,
                  std::size_t* offsets) {
  std::fill_n(offsets, keys.size(), kAbsent);
  for (Token tok = t.next(); tok != Token::kEndObject; tok = t.next()) {
    std::size_t* slot = nullptr;
    std::size_t i = 0;
    for (const std::string_view key : keys) {
      if (t.text() == key) slot = offsets + i;
      ++i;
    }
    const Token value = t.next();
    if (slot != nullptr) *slot = t.token_start();
    t.skip(value);
  }
}

/// Typed reads of the values at recorded offsets of a validated document.
class Document {
 public:
  explicit Document(std::string_view text) : text_(text) {}

  [[nodiscard]] json::Tokenizer at(std::size_t offset) const {
    return json::Tokenizer(text_, offset);
  }
  [[nodiscard]] std::string string_at(std::size_t offset) const {
    auto t = at(offset);
    if (t.next() != Token::kString) expected("string");
    return std::string(t.text());
  }
  [[nodiscard]] double number_at(std::size_t offset) const {
    auto t = at(offset);
    if (t.next() != Token::kNumber) expected("number");
    return t.number();
  }
  [[nodiscard]] bool boolean_at(std::size_t offset) const {
    auto t = at(offset);
    const Token tok = t.next();
    if (tok != Token::kTrue && tok != Token::kFalse) expected("boolean");
    return tok == Token::kTrue;
  }
  /// Where each element of the array at `offset` starts.
  [[nodiscard]] std::vector<std::size_t> elements_at(
      std::size_t offset) const {
    auto t = at(offset);
    if (t.next() != Token::kBeginArray) expected("array");
    std::vector<std::size_t> out;
    for (Token tok = t.next(); tok != Token::kEndArray; tok = t.next()) {
      out.push_back(t.token_start());
      t.skip(tok);
    }
    return out;
  }
  /// scan_members over the object at `offset`.
  void members_at(std::size_t offset,
                  std::initializer_list<std::string_view> keys,
                  std::size_t* offsets) const {
    auto t = at(offset);
    if (t.next() != Token::kBeginObject) expected("object");
    scan_members(t, keys, offsets);
  }

 private:
  std::string_view text_;
};

/// A scalar member of a data row; kind kEnd when the row lacks it.
struct Scalar {
  Token kind = Token::kEnd;
  double value = 0.0;

  double number(const char* key) const {
    if (kind == Token::kEnd) {
      throw ParseError(std::string("JSON: missing key '") + key + "'");
    }
    if (kind != Token::kNumber) expected("number");
    return value;
  }
};

/// One element of a row's "values": its first two items, and how many
/// items it has (when it is an array at all).
struct ValuePair {
  bool array = false;
  std::size_t size = 0;
  Scalar item[2];
};

/// The row fast path: reads data rows spelled exactly as write_json
/// writes them, each number over the tokenizer's extent and through its
/// from_chars call (json::number_end, json::parse_number), so every
/// value is the one the general path reads. A row is read into width()
/// doubles (thread, event, calls, subcalls, then each metric's inclusive
/// and exclusive) and stored only after it has passed the general
/// path's checks (thread and event in range, one [inclusive, exclusive]
/// pair per metric). A row that differs from the writer's layout or
/// fails a check is left unread, with nothing of it stored: the general
/// path then reads it and yields the same values or the same error.
/// Reading touches only the text, so chunks of rows can be read on
/// several threads at once.
class WriterRow {
 public:
  WriterRow(std::string_view text, const profile::Trial& trial)
      : text_(text),
        threads_(trial.thread_count()),
        events_(trial.event_count()),
        width_(4 + 2 * trial.metric_count()) {}

  [[nodiscard]] std::size_t width() const { return width_; }

  /// Reads the row whose '{' is at `open` into out[0, width()). Returns
  /// the offset just past it, or kAbsent when it was not read.
  std::size_t read(std::size_t open, double* out) const {
    std::size_t pos = open;
    if (!(literal(pos, "{\"thread\": ") && number(pos, out[0]) &&
          literal(pos, ", \"event\": ") && number(pos, out[1]) &&
          literal(pos, ", \"calls\": ") && number(pos, out[2]) &&
          literal(pos, ", \"subcalls\": ") && number(pos, out[3]) &&
          literal(pos, ", \"values\": ["))) {
      return kAbsent;
    }
    for (std::size_t i = 4; i < width_; i += 2) {
      if (i != 4 && !literal(pos, ", ")) return kAbsent;
      if (!(literal(pos, "[") && number(pos, out[i]) && literal(pos, ", ") &&
            number(pos, out[i + 1]) && literal(pos, "]"))) {
        return kAbsent;
      }
    }
    if (!literal(pos, "]}") || !in_range(out[0], threads_) ||
        !in_range(out[1], events_)) {
      return kAbsent;
    }
    return pos;
  }
  /// Where the row after one that ended at `end` starts, when
  /// write_json's separator follows it; kAbsent otherwise.
  [[nodiscard]] std::size_t next(std::size_t end) const {
    return text_.compare(end, kSeparator.size(), kSeparator) == 0
               ? end + kSeparator.size()
               : kAbsent;
  }

  /// What separates one row of write_json's from the next.
  static constexpr std::string_view kSeparator = ",\n    ";

 private:
  template <std::size_t N>
  bool literal(std::size_t& pos, const char (&lit)[N]) const {
    constexpr std::size_t n = N - 1;
    if (text_.size() - pos < n || std::memcmp(text_.data() + pos, lit, n)) {
      return false;
    }
    pos += n;
    return true;
  }
  bool number(std::size_t& pos, double& out) const {
    const std::size_t end = json::number_end(text_, pos);
    if (end == pos ||
        !json::parse_number(text_.substr(pos, end - pos), out)) {
      return false;
    }
    pos = end;
    return true;
  }
  /// What the general path accepts: checked_index, then below `count`.
  static bool in_range(double v, std::size_t count) {
    return is_index(v, count) && static_cast<std::size_t>(v) < count;
  }

  std::string_view text_;
  std::size_t threads_;
  std::size_t events_;
  std::size_t width_;
};

/// Stores a row that WriterRow read.
void store_row(profile::Trial& trial, const double* row) {
  const auto th = static_cast<std::size_t>(row[0]);
  const auto e = static_cast<profile::EventId>(row[1]);
  trial.set_calls(th, e, row[2], row[3]);
  for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
    trial.set_inclusive(th, e, m, row[4 + 2 * m]);
    trial.set_exclusive(th, e, m, row[5 + 2 * m]);
  }
}

/// A run of writer-layout rows: from the row at `begin`, every row that
/// WriterRow reads, up to the first it does not or the row at `stop`.
struct RowRun {
  std::vector<double> rows;  ///< width() doubles per row
  std::size_t end = kAbsent;  ///< just past the last row read
  bool joined = false;        ///< the run reached the row at `stop`

  void read(const WriterRow& reader, std::size_t begin, std::size_t stop) {
    const std::size_t w = reader.width();
    rows.clear();
    end = kAbsent;
    joined = false;
    for (std::size_t at = begin; at != kAbsent; at = reader.next(end)) {
      if (at >= stop) {
        joined = at == stop;
        return;
      }
      rows.resize(rows.size() + w);
      const std::size_t row_end =
          reader.read(at, rows.data() + rows.size() - w);
      if (row_end == kAbsent) {
        rows.resize(rows.size() - w);
        return;
      }
      end = row_end;
    }
  }
};

/// Reads the run of writer-layout rows that starts at `open`, the first
/// row of `data`, in chunks on `pool`. A raw newline cannot occur in a
/// JSON string, so a chunk starts at the '{' after ",\n    " + the
/// first key. The chunks are applied in order while each run joins the
/// next one end to end; the first run that stops short of its chunk's
/// end is the last applied, and later chunks are dropped. Returns the
/// offset past the last row applied, or kAbsent when none was; `rows`
/// counts the rows applied.
std::size_t read_first_run(std::string_view text, std::size_t open,
                           const WriterRow& reader, profile::Trial& trial,
                           ThreadPool& pool, std::uint64_t& rows) {
  static constexpr std::string_view kNextRow = ",\n    {\"thread\": ";
  std::vector<std::size_t> starts{open};
  for (std::size_t at = open + kIngestChunkBytes; at < text.size();
       at = starts.back() + kIngestChunkBytes) {
    const std::size_t sep = text.find(kNextRow, at);
    if (sep == std::string_view::npos) break;
    starts.push_back(sep + WriterRow::kSeparator.size());
  }
  const std::size_t cell_capacity =
      std::min(text.size() - open, kIngestChunkBytes) / 64 * reader.width();
  const std::size_t window =
      ingest_window(pool, cell_capacity * sizeof(double));
  std::vector<RowRun> slots(window);
  for (RowRun& run : slots) run.rows.reserve(cell_capacity);
  std::size_t end = kAbsent;
  pool.ordered_for(
      starts.size(), window,
      [&](std::size_t c) {
        slots[c % window].read(
            reader, starts[c], c + 1 < starts.size() ? starts[c + 1] : kAbsent);
      },
      [&](std::size_t c) {
        const RowRun& run = slots[c % window];
        if (run.end == kAbsent) return false;
        for (std::size_t i = 0; i < run.rows.size(); i += reader.width()) {
          store_row(trial, run.rows.data() + i);
        }
        rows += run.rows.size() / reader.width();
        end = run.end;
        return run.joined;
      });
  return end;
}

/// Streams the rows of the `data` array of `text`, whose first token `t`
/// just returned, into the trial's columns. The run of writer-layout
/// rows from the first row is read in parallel chunks (read_first_run);
/// after it, a row in the writer's layout takes WriterRow on this thread
/// and any other row takes the general path below.
void read_data(std::string_view text, json::Tokenizer& t, Token first,
               profile::Trial& trial, ThreadPool& pool) {
  if (first != Token::kBeginArray) expected("array");
  // Counted so tests can check which path the rows took.
  static telemetry::Counter& fast_rows =
      telemetry::counter("perfdmf.json.rows.fast");
  static telemetry::Counter& general_rows =
      telemetry::counter("perfdmf.json.rows.general");
  std::uint64_t fast = 0;
  std::uint64_t general = 0;
  const WriterRow reader(text, trial);
  std::vector<double> cells(reader.width());
  // Stores the run of writer-layout rows from the row at `open`; returns
  // the offset past its last row, or kAbsent when it has none.
  const auto read_run = [&](std::size_t open) {
    std::size_t end = kAbsent;
    for (std::size_t at = open; at != kAbsent; at = reader.next(end)) {
      const std::size_t row_end = reader.read(at, cells.data());
      if (row_end == kAbsent) break;
      store_row(trial, cells.data());
      ++fast;
      end = row_end;
    }
    return end;
  };
  std::vector<ValuePair> pairs;
  bool first_row = true;
  for (Token row = t.next(); row != Token::kEndArray; row = t.next()) {
    if (row != Token::kBeginObject) expected("object");
    const std::size_t end =
        first_row ? read_first_run(text, t.token_start(), reader, trial,
                                   pool, fast)
                  : read_run(t.token_start());
    first_row = false;
    if (end != kAbsent) {
      t.resume_after(end);
      continue;
    }
    ++general;
    Scalar thread;
    Scalar event;
    Scalar calls;
    Scalar subcalls;
    Token values = Token::kEnd;
    for (Token tok = t.next(); tok != Token::kEndObject; tok = t.next()) {
      const std::string_view name = t.text();
      Scalar* scalar = name == "thread"     ? &thread
                       : name == "event"    ? &event
                       : name == "calls"    ? &calls
                       : name == "subcalls" ? &subcalls
                                            : nullptr;
      const bool is_values = scalar == nullptr && name == "values";
      const Token value = t.next();
      if (scalar != nullptr) {
        *scalar = Scalar{value, t.number()};
        t.skip(value);
      } else if (is_values) {
        values = value;
        pairs.clear();
        if (value != Token::kBeginArray) {
          t.skip(value);
          continue;
        }
        for (Token el = t.next(); el != Token::kEndArray; el = t.next()) {
          ValuePair& p = pairs.emplace_back();
          p.array = el == Token::kBeginArray;
          if (!p.array) {
            t.skip(el);
            continue;
          }
          for (Token it = t.next(); it != Token::kEndArray; it = t.next()) {
            if (p.size < 2) p.item[p.size] = Scalar{it, t.number()};
            ++p.size;
            t.skip(it);
          }
        }
      } else {
        t.skip(value);
      }
    }

    const auto th = checked_index(thread.number("thread"),
                                  trial.thread_count(), "JSON: data thread");
    const auto e = static_cast<profile::EventId>(checked_index(
        event.number("event"), trial.event_count(), "JSON: data event"));
    if (e >= trial.event_count() || th >= trial.thread_count()) {
      throw ParseError("JSON: data row out of range");
    }
    // "subcalls" is checked before "calls", as the reader always has.
    const double sub = subcalls.number("subcalls");
    trial.set_calls(th, e, calls.number("calls"), sub);
    if (values == Token::kEnd) {
      throw ParseError("JSON: missing key 'values'");
    }
    if (values != Token::kBeginArray) expected("array");
    if (pairs.size() != trial.metric_count()) {
      throw ParseError("JSON: values width does not match metric count");
    }
    for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
      const ValuePair& pair = pairs[m];
      if (!pair.array) expected("array");
      if (pair.size != 2) {
        throw ParseError("JSON: value pair must be [inclusive, exclusive]");
      }
      trial.set_inclusive(th, e, m, pair.item[0].number("inclusive"));
      trial.set_exclusive(th, e, m, pair.item[1].number("exclusive"));
    }
  }
  fast_rows.add(fast);
  general_rows.add(general);
}

enum Member { kName, kThreads, kMetadata, kMetrics, kEvents, kData, kMembers };
using Members = std::array<std::size_t, kMembers>;

/// The trial's schema, read from the top-level members at `root`.
profile::Trial read_schema(const Document& doc, const Members& root) {
  profile::Trial trial(doc.string_at(require(root[kName], "name")));
  // Dimension-like numbers come from untrusted input: funnel every one
  // through checked_index so "threads": -1 / 1e18 / NaN becomes a
  // ParseError instead of a UB float cast or an unbounded allocation
  // (both found by fuzzing).
  const std::size_t threads =
      checked_index(doc.number_at(require(root[kThreads], "threads")),
                    kMaxThreads, "JSON: thread count");
  const auto metrics = doc.elements_at(require(root[kMetrics], "metrics"));
  const auto events = doc.elements_at(require(root[kEvents], "events"));
  check_cells(threads, events.size(), metrics.size());
  trial.set_thread_count(threads);
  trial.reserve_events(events.size());
  if (root[kMetadata] != kAbsent) {
    auto t = doc.at(root[kMetadata]);
    if (t.next() != Token::kBeginObject) expected("object");
    for (Token tok = t.next(); tok != Token::kEndObject; tok = t.next()) {
      std::string key(t.text());
      if (t.next() != Token::kString) expected("string");
      trial.set_metadata(key, std::string(t.text()));
    }
  }
  // Within a metric or event, members are checked right to left, as the
  // reader always has.
  for (const std::size_t m : metrics) {
    std::size_t at[3];
    doc.members_at(m, {"name", "units", "derived"}, at);
    const bool derived = at[2] != kAbsent && doc.boolean_at(at[2]);
    std::string units = at[1] != kAbsent ? doc.string_at(at[1]) : "count";
    trial.add_metric(doc.string_at(require(at[0], "name")), std::move(units),
                     derived);
  }
  for (const std::size_t e : events) {
    std::size_t at[3];
    doc.members_at(e, {"name", "parent", "group"}, at);
    const double parent_num = doc.number_at(require(at[1], "parent"));
    profile::EventId parent = profile::kNoEvent;
    if (parent_num >= 0.0) {
      const std::size_t p = checked_index(parent_num, events.size(),
                                          "JSON: event parent");
      if (p >= trial.event_count()) {
        throw ParseError("JSON: event parent must refer to an earlier event");
      }
      parent = static_cast<profile::EventId>(p);
    }
    std::string group = at[2] != kAbsent ? doc.string_at(at[2]) : "";
    trial.add_event(doc.string_at(require(at[0], "name")), parent,
                    std::move(group));
  }
  return trial;
}

}  // namespace

profile::Trial from_json(std::string_view text, ThreadPool& pool) {
  // Tolerate a UTF-8 BOM before the document.
  if (text.substr(0, 3) == "\xEF\xBB\xBF") text.remove_prefix(3);
  const Document doc(text);

  Members root;
  root.fill(kAbsent);
  // What reading the schema and `data` at the offsets `read_at` gave.
  Members read_at;
  read_at.fill(kAbsent);
  std::optional<profile::Trial> trial;
  std::optional<ParseError> schema_error;
  bool object = false;
  try {
    json::Tokenizer t(text);
    const Token first = t.next();
    object = first == Token::kBeginObject;
    if (!object) t.skip(first);
    for (Token tok = object ? t.next() : Token::kEndObject;
         tok != Token::kEndObject; tok = t.next()) {
      static constexpr std::string_view kKeys[kMembers] = {
          "name", "threads", "metadata", "metrics", "events", "data"};
      const auto key = static_cast<std::size_t>(
          std::find(std::begin(kKeys), std::end(kKeys), t.text()) -
          std::begin(kKeys));
      const Token value = t.next();
      if (key == kMembers) {
        t.skip(value);
        continue;
      }
      root[key] = t.token_start();
      if (key != kData) {
        t.skip(value);
        continue;
      }
      read_at = root;
      trial.reset();
      schema_error.reset();
      try {
        profile::Trial read = read_schema(doc, root);
        read_data(text, t, value, read, pool);
        trial = std::move(read);
      } catch (const ParseError& e) {
        if (e.line() != 0) throw;  // a syntax error inside `data`
        schema_error = e;
        t.skip_to(1);  // still check the rest of `data`
      }
    }
    (void)t.next();  // kEnd: nothing but whitespace may follow
  } catch (const ParseError& e) {
    throw ParseError("JSON: " + e.message(), e.line(), e.column(),
                     e.excerpt());
  }
  if (!object) expected("object");
  if (root[kData] != kAbsent && root == read_at) {
    if (schema_error) throw *schema_error;
    return std::move(*trial);
  }
  profile::Trial read = read_schema(doc, root);
  auto t = doc.at(require(root[kData], "data"));
  read_data(text, t, t.next(), read, pool);
  return read;
}

}  // namespace perfknow::perfdmf
