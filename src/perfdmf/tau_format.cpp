#include "perfdmf/tau_format.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/file.hpp"
#include "common/strings.hpp"
#include "perfdmf/limits.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::perfdmf {

namespace {

// One function line of a TAU profile; the strings are views of the
// profile's bytes.
struct TauFunctionRow {
  std::string_view name;
  std::string_view group;
  double calls = 0.0;
  double subrs = 0.0;
  double excl = 0.0;
  double incl = 0.0;
};

struct TauFile {
  std::string metric;
  std::vector<TauFunctionRow> rows;
};

// The next whitespace-separated token of `s` from `pos`; empty at the end.
std::string_view next_token(std::string_view s, std::size_t& pos) {
  while (pos < s.size() && strings::is_space(s[pos])) ++pos;
  const std::size_t start = pos;
  while (pos < s.size() && !strings::is_space(s[pos])) ++pos;
  return s.substr(start, pos - start);
}

// Parses one `"name" calls subrs excl incl profcalls GROUP="..."` line.
TauFunctionRow parse_function_line(std::string_view line, int lineno) {
  if (line.empty() || line.front() != '"') {
    throw ParseError("TAU function line must start with a quoted name",
                     lineno);
  }
  const std::size_t close = line.find('"', 1);
  if (close == std::string_view::npos) {
    throw ParseError("unterminated function name", lineno);
  }
  TauFunctionRow row;
  row.name = line.substr(1, close - 1);
  const std::string_view rest = line.substr(close + 1);
  std::size_t pos = 0;
  std::string_view numbers[4];
  for (auto& field : numbers) {
    field = next_token(rest, pos);
    if (field.empty()) {
      throw ParseError("TAU function line: too few numeric fields", lineno);
    }
  }
  row.calls = strings::parse_double(numbers[0]);
  row.subrs = strings::parse_double(numbers[1]);
  row.excl = strings::parse_double(numbers[2]);
  row.incl = strings::parse_double(numbers[3]);
  for (std::string_view field = next_token(rest, pos); !field.empty();
       field = next_token(rest, pos)) {
    if (strings::starts_with(field, "GROUP=\"")) {
      std::string_view g = field.substr(7);
      if (!g.empty() && g.back() == '"') g.remove_suffix(1);
      row.group = g;
    }
  }
  return row;
}

// Parses one TAU profile held in `text` into `tf`, whose rows then view
// `text`. Messages carry only line numbers; file-based callers attach
// the path via ParseError::with_file.
void parse_tau_source(std::string_view text, TauFile& tf) {
  tf.rows.clear();
  std::size_t pos = 0;
  std::string_view line;
  int lineno = 0;
  if (!strings::next_line(text, pos, line)) {
    throw ParseError("empty TAU profile", 1);
  }
  ++lineno;
  // Tolerate a UTF-8 BOM on the first line.
  if (strings::starts_with(line, "\xEF\xBB\xBF")) line.remove_prefix(3);
  const auto header = strings::split_whitespace(line);
  if (header.size() < 2) {
    throw ParseError("bad TAU header", lineno);
  }
  long long nfuncs = 0;
  try {
    nfuncs = strings::parse_int(header[0]);
  } catch (const ParseError& e) {
    throw ParseError("bad TAU header: " + e.message(), lineno);
  }
  if (nfuncs < 0) {
    throw ParseError("negative function count in TAU header", lineno);
  }
  const std::string& tag = header[1];
  constexpr std::string_view kMulti = "templated_functions_MULTI_";
  if (strings::starts_with(tag, kMulti)) {
    tf.metric = tag.substr(kMulti.size());
  } else if (tag == "templated_functions") {
    tf.metric = "TIME";
  } else {
    throw ParseError("unrecognized TAU header tag '" + tag + "'", lineno);
  }

  // The line after the header is the column comment ("# Name Calls ...").
  if (strings::next_line(text, pos, line)) ++lineno;

  for (long long i = 0; i < nfuncs; ++i) {
    if (!strings::next_line(text, pos, line)) {
      throw ParseError("truncated TAU profile", lineno);
    }
    ++lineno;
    try {
      tf.rows.push_back(parse_function_line(line, lineno));
    } catch (const ParseError& e) {
      // Numeric field parses throw without a location; attach the line.
      if (e.line() == 0) throw ParseError(e.message(), lineno);
      throw;
    }
  }
  // Remaining sections (aggregates, userevents) are ignored.
}

// The `a` of a callpath event `a => b`, when the trial has it.
std::optional<profile::EventId> callpath_parent(const profile::Trial& trial,
                                                std::string_view name) {
  const std::size_t pos = name.rfind(" => ");
  if (pos == std::string_view::npos) return std::nullopt;
  return trial.find_event(name.substr(0, pos));
}

// Adds one parsed per-thread file's rows to the trial at `flat_thread`.
// `ids` holds the event id of each row of the previous file: a row named
// like the previous file's row at the same index reuses that id, so
// thread files with one layout resolve each name once. Events new to
// the trial are added parent-first (shortest name first, ties in file
// order) so callpath links resolve.
void fill_trial_from(profile::Trial& trial, const TauFile& tf,
                     std::size_t flat_thread, profile::MetricId metric_id,
                     std::vector<profile::EventId>& ids) {
  const std::size_t cached = std::min(ids.size(), tf.rows.size());
  ids.resize(tf.rows.size());
  std::vector<std::size_t> fresh;
  for (std::size_t i = 0; i < tf.rows.size(); ++i) {
    const std::string_view name = tf.rows[i].name;
    if (i < cached && trial.event(ids[i]).name == name) continue;
    if (const auto e = trial.find_event(name)) {
      ids[i] = *e;
    } else {
      fresh.push_back(i);
    }
  }
  std::stable_sort(fresh.begin(), fresh.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tf.rows[a].name.size() < tf.rows[b].name.size();
                   });
  for (const std::size_t i : fresh) {
    const TauFunctionRow& row = tf.rows[i];
    ids[i] = trial.add_event(
        std::string(row.name),
        callpath_parent(trial, row.name).value_or(profile::kNoEvent),
        std::string(row.group));
  }
  for (std::size_t i = 0; i < tf.rows.size(); ++i) {
    const TauFunctionRow& row = tf.rows[i];
    trial.set_calls(flat_thread, ids[i], row.calls, row.subrs);
    trial.set_inclusive(flat_thread, ids[i], metric_id, row.incl);
    trial.set_exclusive(flat_thread, ids[i], metric_id, row.excl);
  }
}

// True when an `a => b` event was added before any file had `a`: its
// parent only appeared in a later thread's file.
bool has_late_parent(const profile::Trial& trial) {
  for (const auto& ev : trial.events()) {
    if (ev.parent == profile::kNoEvent && callpath_parent(trial, ev.name)) {
      return true;
    }
  }
  return false;
}

// Copies `in` with every `a => b` linked to `a`. Parents must keep lower
// ids than their children (PKB requires it), so each late parent is
// added just ahead of its first child.
profile::Trial relink_late_parents(const profile::Trial& in) {
  profile::Trial out(in.name());
  out.set_thread_count(in.thread_count());
  for (const auto& m : in.metrics()) {
    out.add_metric(m.name, m.units, m.derived);
  }
  std::vector<profile::EventId> id(in.event_count(), profile::kNoEvent);
  const std::function<profile::EventId(profile::EventId)> add =
      [&](profile::EventId e) {
        if (id[e] == profile::kNoEvent) {
          const auto& ev = in.event(e);
          const auto parent = callpath_parent(in, ev.name);
          id[e] = out.add_event(ev.name,
                                parent ? add(*parent) : profile::kNoEvent,
                                ev.group);
        }
        return id[e];
      };
  for (profile::EventId e = 0; e < in.event_count(); ++e) add(e);
  for (std::size_t t = 0; t < in.thread_count(); ++t) {
    for (profile::EventId e = 0; e < in.event_count(); ++e) {
      const auto ci = in.calls(t, e);
      out.set_calls(t, id[e], ci.calls, ci.subcalls);
      for (profile::MetricId m = 0; m < in.metric_count(); ++m) {
        out.set_inclusive(t, id[e], m, in.inclusive(t, e, m));
        out.set_exclusive(t, id[e], m, in.exclusive(t, e, m));
      }
    }
  }
  return out;
}

}  // namespace

profile::Trial read_tau_profiles(const std::filesystem::path& dir,
                                 ThreadPool& pool) {
  std::vector<std::tuple<int, int, int, std::filesystem::path>> files;
  if (!std::filesystem::is_directory(dir)) {
    throw IoError("not a directory: " + dir.string());
  }
  std::uintmax_t largest = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string fname = entry.path().filename().string();
    if (!strings::starts_with(fname, "profile.")) continue;
    const auto parts = strings::split(fname, '.');
    if (parts.size() != 4) continue;
    try {
      files.emplace_back(static_cast<int>(strings::parse_int(parts[1])),
                         static_cast<int>(strings::parse_int(parts[2])),
                         static_cast<int>(strings::parse_int(parts[3])),
                         entry.path());
    } catch (const ParseError&) {
      continue;  // not a profile file after all
    }
    std::error_code ec;
    const std::uintmax_t size = entry.file_size(ec);
    if (!ec) largest = std::max(largest, size);
  }
  if (files.empty()) {
    throw IoError("no TAU profile files (profile.N.C.T) in " + dir.string());
  }
  std::sort(files.begin(), files.end());

  profile::Trial trial(dir.filename().string());
  trial.set_thread_count(files.size());
  profile::MetricId metric_id = 0;

  // File i is read and parsed into slot i % window on the pool, then
  // added to the trial as flat thread i on this thread, in file order.
  struct Slot {
    std::string bytes;
    TauFile tf;
  };
  const std::size_t row_capacity = largest / 32;
  const std::size_t window = ingest_window(
      pool, largest + row_capacity * sizeof(TauFunctionRow));
  std::vector<Slot> slots(window);
  for (Slot& slot : slots) {
    slot.bytes.reserve(largest);
    slot.tf.rows.reserve(row_capacity);
  }
  std::vector<profile::EventId> ids;
  pool.ordered_for(
      files.size(), window,
      [&](std::size_t i) {
        const std::filesystem::path& path = std::get<3>(files[i]);
        Slot& slot = slots[i % window];
        read_file_bytes(path, slot.bytes, "cannot open TAU profile");
        try {
          parse_tau_source(slot.bytes, slot.tf);
        } catch (const ParseError& e) {
          throw e.with_file(path.string());
        }
      },
      [&](std::size_t i) {
        const TauFile& tf = slots[i % window].tf;
        if (i == 0) {
          trial.reserve_events(tf.rows.size());
          metric_id = trial.add_metric(tf.metric,
                                       tf.metric == "TIME" ? "usec" : "count");
        } else if (trial.metric(metric_id).name != tf.metric) {
          throw ParseError("metric mismatch across TAU files: '" +
                           trial.metric(metric_id).name + "' vs '" +
                           tf.metric + "' in " +
                           std::get<3>(files[i]).string());
        }
        fill_trial_from(trial, tf, i, metric_id, ids);
        return true;
      });
  if (has_late_parent(trial)) trial = relink_late_parents(trial);
  trial.set_metadata("source_format", "TAU");
  return trial;
}

profile::Trial read_tau_stream(std::string_view text,
                               const std::string& name) {
  TauFile tf;
  parse_tau_source(text, tf);
  profile::Trial trial(name);
  trial.set_thread_count(1);
  trial.reserve_events(tf.rows.size());
  const auto metric_id = trial.add_metric(
      tf.metric, tf.metric == "TIME" ? "usec" : "count");
  std::vector<profile::EventId> ids;
  fill_trial_from(trial, tf, 0, metric_id, ids);
  trial.set_metadata("source_format", "TAU");
  return trial;
}

void write_tau_profiles(const profile::Trial& trial,
                        const std::string& metric,
                        const std::filesystem::path& dir) {
  static const telemetry::SpanSite site("io.write.tau");
  telemetry::ScopedSpan span(site);
  const auto m = trial.metric_id(metric);
  std::filesystem::create_directories(dir);
  std::string out;
  for (std::size_t t = 0; t < trial.thread_count(); ++t) {
    const auto path = dir / ("profile." + std::to_string(t) + ".0.0");
    std::ofstream os(path);
    if (!os) {
      throw IoError("cannot write TAU profile: " + path.string());
    }
    strings::append_int(out, trial.event_count());
    out += " templated_functions_MULTI_";
    out += metric;
    out += "\n# Name Calls Subrs Excl Incl ProfileCalls\n";
    for (profile::EventId e = 0; e < trial.event_count(); ++e) {
      const auto ci = trial.calls(t, e);
      const auto& ev = trial.event(e);
      out += '"';
      out += ev.name;
      out += "\" ";
      strings::append_g17(out, ci.calls);
      out += ' ';
      strings::append_g17(out, ci.subcalls);
      out += ' ';
      strings::append_g17(out, trial.exclusive(t, e, m));
      out += ' ';
      strings::append_g17(out, trial.inclusive(t, e, m));
      out += " 0 GROUP=\"";
      out += ev.group.empty() ? std::string_view("TAU_DEFAULT")
                              : std::string_view(ev.group);
      out += "\"\n";
      strings::write_block(os, out);
    }
    out += "0 aggregates\n";
    strings::write_block(os, out, /*last=*/true);
    if (!os) {
      throw IoError("write failed: " + path.string());
    }
  }
}

}  // namespace perfknow::perfdmf
