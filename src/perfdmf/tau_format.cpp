#include "perfdmf/tau_format.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace perfknow::perfdmf {

namespace {

struct TauFunctionRow {
  std::string name;
  std::string group;
  double calls = 0.0;
  double subrs = 0.0;
  double excl = 0.0;
  double incl = 0.0;
};

struct TauFile {
  int node = 0;
  int context = 0;
  int thread = 0;
  std::string metric;
  std::vector<TauFunctionRow> rows;
};

// Parses one `"name" calls subrs excl incl profcalls GROUP="..."` line.
TauFunctionRow parse_function_line(const std::string& line, int lineno) {
  if (line.empty() || line.front() != '"') {
    throw ParseError("TAU function line must start with a quoted name",
                     lineno);
  }
  const std::size_t close = line.find('"', 1);
  if (close == std::string::npos) {
    throw ParseError("unterminated function name", lineno);
  }
  TauFunctionRow row;
  row.name = line.substr(1, close - 1);
  const auto rest = strings::split_whitespace(line.substr(close + 1));
  if (rest.size() < 4) {
    throw ParseError("TAU function line: too few numeric fields", lineno);
  }
  row.calls = strings::parse_double(rest[0]);
  row.subrs = strings::parse_double(rest[1]);
  row.excl = strings::parse_double(rest[2]);
  row.incl = strings::parse_double(rest[3]);
  for (std::size_t i = 4; i < rest.size(); ++i) {
    if (strings::starts_with(rest[i], "GROUP=\"")) {
      std::string g = rest[i].substr(7);
      if (!g.empty() && g.back() == '"') g.pop_back();
      row.group = g;
    }
  }
  return row;
}

// Parses one TAU profile from a stream. Messages carry only line numbers;
// file-based callers attach the path via ParseError::with_file.
TauFile parse_tau_source(std::istream& is, int node, int context,
                         int thread) {
  TauFile tf;
  tf.node = node;
  tf.context = context;
  tf.thread = thread;

  std::string line;
  int lineno = 0;
  if (!std::getline(is, line)) {
    throw ParseError("empty TAU profile", 1);
  }
  ++lineno;
  // Tolerate a UTF-8 BOM on the first line.
  if (line.size() >= 3 && line.compare(0, 3, "\xEF\xBB\xBF") == 0) {
    line = line.substr(3);
  }
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
  if (std::getline(is, line)) ++lineno;

  for (long long i = 0; i < nfuncs; ++i) {
    if (!std::getline(is, line)) {
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
  return tf;
}

TauFile parse_tau_file(const std::filesystem::path& file, int node,
                       int context, int thread) {
  std::ifstream is(file);
  if (!is) {
    throw IoError("cannot open TAU profile: " + file.string());
  }
  try {
    return parse_tau_source(is, node, context, thread);
  } catch (const ParseError& e) {
    throw e.with_file(file.string());
  }
}

// Adds one parsed per-thread file's rows to the trial at `flat_thread`,
// creating callpath parents first so links resolve.
void fill_trial_from(profile::Trial& trial, const TauFile& tf,
                     std::size_t flat_thread, profile::MetricId metric_id) {
  std::vector<TauFunctionRow> rows = tf.rows;
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TauFunctionRow& a, const TauFunctionRow& b) {
                     return a.name.size() < b.name.size();
                   });
  for (const auto& row : rows) {
    profile::EventId parent = profile::kNoEvent;
    const std::size_t pos = row.name.rfind(" => ");
    if (pos != std::string::npos) {
      if (const auto p = trial.find_event(row.name.substr(0, pos))) {
        parent = *p;
      }
    }
    const auto e = trial.add_event(row.name, parent, row.group);
    trial.set_calls(flat_thread, e, row.calls, row.subrs);
    trial.set_inclusive(flat_thread, e, metric_id, row.incl);
    trial.set_exclusive(flat_thread, e, metric_id, row.excl);
  }
}

}  // namespace

profile::Trial read_tau_profiles(const std::filesystem::path& dir) {
  std::vector<std::tuple<int, int, int, std::filesystem::path>> files;
  if (!std::filesystem::is_directory(dir)) {
    throw IoError("not a directory: " + dir.string());
  }
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
  }
  if (files.empty()) {
    throw IoError("no TAU profile files (profile.N.C.T) in " + dir.string());
  }
  std::sort(files.begin(), files.end());

  profile::Trial trial(dir.filename().string());
  trial.set_thread_count(files.size());
  profile::MetricId metric_id = 0;
  bool first = true;

  std::size_t flat_thread = 0;
  for (const auto& [node, context, thread, path] : files) {
    const TauFile tf = parse_tau_file(path, node, context, thread);
    if (first) {
      metric_id = trial.add_metric(tf.metric,
                                   tf.metric == "TIME" ? "usec" : "count");
      first = false;
    } else if (trial.metric(metric_id).name != tf.metric) {
      throw ParseError("metric mismatch across TAU files: '" +
                       trial.metric(metric_id).name + "' vs '" + tf.metric +
                       "' in " + path.string());
    }
    fill_trial_from(trial, tf, flat_thread, metric_id);
    ++flat_thread;
  }
  trial.set_metadata("source_format", "TAU");
  return trial;
}

profile::Trial read_tau_stream(std::istream& is, const std::string& name) {
  const TauFile tf = parse_tau_source(is, 0, 0, 0);
  profile::Trial trial(name);
  trial.set_thread_count(1);
  const auto metric_id = trial.add_metric(
      tf.metric, tf.metric == "TIME" ? "usec" : "count");
  fill_trial_from(trial, tf, 0, metric_id);
  trial.set_metadata("source_format", "TAU");
  return trial;
}

void write_tau_profiles(const profile::Trial& trial,
                        const std::string& metric,
                        const std::filesystem::path& dir) {
  const auto m = trial.metric_id(metric);
  std::filesystem::create_directories(dir);
  for (std::size_t t = 0; t < trial.thread_count(); ++t) {
    const auto path = dir / ("profile." + std::to_string(t) + ".0.0");
    std::ofstream os(path);
    if (!os) {
      throw IoError("cannot write TAU profile: " + path.string());
    }
    os << trial.event_count() << " templated_functions_MULTI_" << metric
       << '\n';
    os << "# Name Calls Subrs Excl Incl ProfileCalls\n";
    os.precision(17);
    for (profile::EventId e = 0; e < trial.event_count(); ++e) {
      const auto ci = trial.calls(t, e);
      const auto& ev = trial.event(e);
      os << '"' << ev.name << "\" " << ci.calls << ' ' << ci.subcalls << ' '
         << trial.exclusive(t, e, m) << ' ' << trial.inclusive(t, e, m)
         << " 0 GROUP=\"" << (ev.group.empty() ? "TAU_DEFAULT" : ev.group)
         << "\"\n";
    }
    os << "0 aggregates\n";
    if (!os) {
      throw IoError("write failed: " + path.string());
    }
  }
}

}  // namespace perfknow::perfdmf
