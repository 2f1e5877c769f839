// The repository's two text tables, index.tsv and lineage.tsv
// (repository.hpp), parsed from their bytes.
//
// Both are untrusted input: a repository directory may come from
// anywhere, and the index decides which files a load reads and a save
// writes. Every row is four tab-separated fields; blank lines are
// skipped. A malformed row throws ParseError naming its 1-based line;
// the caller attaches the file path (ParseError::with_file).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace perfknow::perfdmf {

/// One index.tsv row: where a trial's snapshot lives, relative to the
/// repository directory.
struct IndexRow {
  std::string application;
  std::string experiment;
  std::string trial;
  std::string path;
};

/// One lineage.tsv row: a version and its predecessor ("" for a root).
struct LineageRow {
  std::string application;
  std::string experiment;
  std::string version;
  std::string predecessor;
};

/// Parses index.tsv. Besides the field count, rejects a snapshot path
/// that is empty, absolute, or climbs out of the repository through
/// "..", since a load would read (and a save write) outside it.
[[nodiscard]] std::vector<IndexRow> parse_index(std::string_view text);

/// Parses lineage.tsv.
[[nodiscard]] std::vector<LineageRow> parse_lineage(std::string_view text);

}  // namespace perfknow::perfdmf
