#include "perfdmf/index_format.hpp"

#include <algorithm>
#include <filesystem>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace perfknow::perfdmf {

namespace {

/// Calls `row(fields, lineno)` for every non-blank line of `text`, after
/// checking it has exactly four tab-separated fields.
template <typename Row>
void for_each_row(std::string_view text, const char* table, Row&& row) {
  int lineno = 0;
  std::size_t pos = 0;
  std::string_view line;
  while (strings::next_line(text, pos, line)) {
    ++lineno;
    if (strings::trim(line).empty()) continue;
    auto fields = strings::split(line, '\t');
    if (fields.size() != 4) {
      throw ParseError(std::string("repository ") + table +
                           ": expected 4 fields",
                       lineno);
    }
    row(fields, lineno);
  }
}

}  // namespace

std::vector<IndexRow> parse_index(std::string_view text) {
  std::vector<IndexRow> rows;
  for_each_row(text, "index", [&](std::vector<std::string>& f, int lineno) {
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
    rows.push_back(IndexRow{std::move(f[0]), std::move(f[1]),
                            std::move(f[2]), std::move(f[3])});
  });
  return rows;
}

std::vector<LineageRow> parse_lineage(std::string_view text) {
  std::vector<LineageRow> rows;
  for_each_row(text, "lineage", [&](std::vector<std::string>& f, int) {
    rows.push_back(LineageRow{std::move(f[0]), std::move(f[1]),
                              std::move(f[2]), std::move(f[3])});
  });
  return rows;
}

}  // namespace perfknow::perfdmf
