#include "perfdmf/index_format.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "profile/profile.hpp"

namespace perfknow::perfdmf {

namespace {

/// Calls `row(fields, lineno)` for every non-blank line of `text`, after
/// checking it has four tab-separated fields, or `wide` when non-zero.
template <typename Row>
void for_each_row(std::string_view text, const char* table,
                  std::size_t wide, Row&& row) {
  int lineno = 0;
  std::size_t pos = 0;
  std::string_view line;
  while (strings::next_line(text, pos, line)) {
    ++lineno;
    if (strings::trim(line).empty()) continue;
    auto fields = strings::split(line, '\t');
    if (fields.size() != 4 && (wide == 0 || fields.size() != wide)) {
      throw ParseError(std::string("repository ") + table +
                           ": expected 4 fields" +
                           (wide == 0 ? ""
                                      : ", or 8 with the trial's shape and "
                                        "total"),
                       lineno);
    }
    row(fields, lineno);
  }
}

std::size_t parse_count(const std::string& field, const char* what,
                        int lineno) {
  std::size_t value = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw ParseError("repository index: " + std::string(what) + " '" +
                         field + "' is not a non-negative integer",
                     lineno);
  }
  return value;
}

std::optional<double> parse_total(const std::string& field, int lineno) {
  if (field == "-") return std::nullopt;
  double value = 0.0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw ParseError("repository index: total '" + field +
                         "' is not a number or '-'",
                     lineno);
  }
  return value;
}

}  // namespace

bool same_record(const TrialRecord& a, const TrialRecord& b) {
  if (a.threads != b.threads || a.events != b.events ||
      a.metrics != b.metrics || a.total.has_value() != b.total.has_value()) {
    return false;
  }
  if (!a.total) return true;
  const double x = *a.total;
  const double y = *b.total;
  if (std::isnan(x) && std::isnan(y)) {
    return std::signbit(x) == std::signbit(y);
  }
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

double total_time(const profile::Trial& trial) {
  const auto m = trial.metric_id(
      trial.find_metric("TIME") ? "TIME" : trial.metric(0).name);
  return trial.mean_inclusive(trial.main_event(), m);
}

TrialRecord record_of(const profile::Trial& trial) {
  TrialRecord r{trial.thread_count(), trial.event_count(),
                trial.metric_count(), std::nullopt};
  if (r.metrics > 0 && r.events > 0) r.total = total_time(trial);
  return r;
}

std::vector<IndexRow> parse_index(std::string_view text) {
  std::vector<IndexRow> rows;
  for_each_row(text, "index", 8, [&](std::vector<std::string>& f,
                                     int lineno) {
    const std::filesystem::path rel(f[3]);
    const bool escapes =
        rel.empty() || rel.has_root_path() ||
        std::any_of(rel.begin(), rel.end(),
                    [](const std::filesystem::path& part) {
                      return part == "..";
                    });
    if (escapes) {
      throw ParseError("repository index: snapshot path '" + f[3] +
                           "' is not inside the repository",
                       lineno);
    }
    std::optional<TrialRecord> record;
    if (f.size() == 8) {
      record = TrialRecord{parse_count(f[4], "thread count", lineno),
                           parse_count(f[5], "event count", lineno),
                           parse_count(f[6], "metric count", lineno),
                           parse_total(f[7], lineno)};
    }
    rows.push_back(IndexRow{std::move(f[0]), std::move(f[1]),
                            std::move(f[2]), std::move(f[3]), record,
                            lineno});
  });
  return rows;
}

std::string total_field(const std::optional<double>& total) {
  if (!total) return "-";
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, *total);
  return std::string(buf, end.ptr);
}

void append_index_row(std::string& out, const std::string& application,
                      const std::string& experiment, const std::string& trial,
                      const std::string& path,
                      const std::optional<TrialRecord>& record) {
  out.append(application).append(1, '\t').append(experiment);
  out.append(1, '\t').append(trial).append(1, '\t').append(path);
  if (record) {
    for (const std::size_t n : {record->threads, record->events,
                                record->metrics}) {
      out.append(1, '\t').append(std::to_string(n));
    }
    out.append(1, '\t').append(total_field(record->total));
  }
  out.append(1, '\n');
}

std::vector<LineageRow> parse_lineage(std::string_view text) {
  std::vector<LineageRow> rows;
  for_each_row(text, "lineage", 0, [&](std::vector<std::string>& f, int) {
    rows.push_back(LineageRow{std::move(f[0]), std::move(f[1]),
                              std::move(f[2]), std::move(f[3])});
  });
  return rows;
}

}  // namespace perfknow::perfdmf
