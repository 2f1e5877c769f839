// The repository's two text tables, index.tsv and lineage.tsv
// (repository.hpp), parsed from their bytes.
//
// Both are untrusted input: a repository directory may come from
// anywhere, and the index decides which files a load reads and a save
// writes. Every row is four tab-separated fields; an index row may
// carry four more, the trial's record (TrialRecord). Blank lines are
// skipped. A malformed row throws ParseError naming its 1-based line;
// the caller attaches the file path (ParseError::with_file).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfknow::profile {
class Trial;
}

namespace perfknow::perfdmf {

/// What `pkx list` and `pkx history` print of a trial, kept in its index
/// row so they answer without opening the snapshot: the trial's shape
/// and its total_time(). `total` is empty when the trial has no metric
/// or no event (written as "-").
struct TrialRecord {
  std::size_t threads = 0;
  std::size_t events = 0;
  std::size_t metrics = 0;
  std::optional<double> total;
};

/// True when both records print the same bytes: equal counts, and
/// totals that are both empty or bit-identical (any two NaNs of one
/// sign count as equal, since only the sign is printed).
[[nodiscard]] bool same_record(const TrialRecord& a, const TrialRecord& b);

/// Total runtime of a trial, as the history and diff summaries print it:
/// the main event's mean inclusive TIME (the first metric when there is
/// no TIME). Throws when the trial has no metric or no event.
[[nodiscard]] double total_time(const profile::Trial& trial);

/// The trial's record: its shape, and total_time() when it has a metric
/// and an event.
[[nodiscard]] TrialRecord record_of(const profile::Trial& trial);

/// One index.tsv row: where a trial's snapshot lives, relative to the
/// repository directory, and the trial's record when the row has one.
struct IndexRow {
  std::string application;
  std::string experiment;
  std::string trial;
  std::string path;
  std::optional<TrialRecord> record;  ///< empty for a 4-field row
  int line = 0;                       ///< 1-based line in index.tsv
};

/// One lineage.tsv row: a version and its predecessor ("" for a root).
struct LineageRow {
  std::string application;
  std::string experiment;
  std::string version;
  std::string predecessor;
};

/// Parses index.tsv. Besides the field count (4, or 8 with the record),
/// rejects a snapshot path that is empty, absolute, or climbs out of the
/// repository through "..", since a load would read (and a save write)
/// outside it, and a record whose counts are not decimal integers or
/// whose total is neither "-" nor a number from_chars reads whole.
[[nodiscard]] std::vector<IndexRow> parse_index(std::string_view text);

/// A record's total as its index field: shortest round-trip decimal, or
/// "-" when empty.
[[nodiscard]] std::string total_field(const std::optional<double>& total);

/// Appends one index row, with the record's four fields when given:
/// counts in decimal, the total in shortest round-trip form.
void append_index_row(std::string& out, const std::string& application,
                      const std::string& experiment, const std::string& trial,
                      const std::string& path,
                      const std::optional<TrialRecord>& record);

/// Parses lineage.tsv.
[[nodiscard]] std::vector<LineageRow> parse_lineage(std::string_view text);

}  // namespace perfknow::perfdmf
