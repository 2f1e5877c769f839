// Durable text snapshot format for a single Trial ("PKPROF 1").
//
// Tab-separated, line-oriented, round-trip exact for the full value cube,
// metadata, callgraph and metric schema. This is the on-disk format the
// Repository uses; it is also convenient for checking trials into test
// fixtures.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "profile/profile.hpp"

namespace perfknow::perfdmf {

/// Serializes a trial to the PKPROF text format. This is the format
/// primitive behind io::save_trial (io/format.hpp) — call that for
/// file-level access; the stream form exists for in-memory use.
void write_snapshot(const profile::Trial& trial, std::ostream& os);

/// Parses a PKPROF snapshot; throws ParseError on bad input. The format
/// primitive behind io::open_trial (io/format.hpp), which auto-detects
/// the format and attaches the file name to diagnostics.
[[nodiscard]] profile::Trial read_snapshot(std::istream& is);

/// Exports the per-thread exclusive values of one metric as CSV
/// (rows = events, columns = threads) for spreadsheet-style inspection.
[[nodiscard]] std::string to_csv(const profile::Trial& trial,
                                 const std::string& metric);

}  // namespace perfknow::perfdmf
