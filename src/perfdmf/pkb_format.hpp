// PKB — the binary columnar snapshot format for a single Trial.
//
// PKPROF (snapshot.hpp) is the line-oriented text format: convenient to
// diff and to check into fixtures, but parsing it materializes the whole
// value cube through a million parse_double calls. PKB is the storage
// engine's format: little-endian, sectioned, and columnar. Its COLS
// section is profile::Trial's own column layout, so writing a trial is
// one pass over its column rows, and reading one (open_pkb, parse_pkb)
// parses only the schema: the trial's columns point straight into the
// mapped file or the parsed buffer, and pages are faulted in only as the
// analysis touches them.
//
// Layout (all integers little-endian):
//
//   offset 0   magic "PKB1"
//   offset 4   u32 version (currently 1)
//   offset 8   sections, each 8-byte aligned:
//
//     +0   u32 tag        ("SCHM", "META", "SUMM", "COLS", "PKBE")
//     +4   u32 crc32      (CRC-32/IEEE of the payload bytes)
//     +8   u64 length     (payload bytes, excluding padding)
//     +16  payload, then zero padding to the next 8-byte boundary
//
//   SCHM  u64 threads; str trial-name; u32 metric-count;
//         per metric { str name; str units; u8 derived };
//         u32 event-count; per event { str name; i64 parent; str group }
//         (str = u32 byte length + bytes, no terminator)
//   META  u32 count; per entry { str key; str value }
//   SUMM  optional (files written before it existed lack it). Four f64
//         per (metric, field, event), field = inclusive then exclusive,
//         in COLS column order:
//           for each metric m, for inclusive then exclusive,
//             for each event e: total, stddev, min, max
//         over threads: the Kahan total (the mean is total / threads),
//         the population stddev, the min and the max, each equal bit
//         for bit to the stats:: reduction over the series; all zero
//         for a trial without threads. Derived data: COLS stays the
//         source of truth, and every check of COLS also checks that
//         SUMM agrees with it.
//   COLS  one contiguous column of threads*events f64 values per
//         (metric, field) over the thread x event cube, cube index
//         [thread][event]:
//           for each metric m: inclusive column, exclusive column;
//         then the calls column and the subcalls column.
//   PKBE  end marker, zero-length; nothing may follow it.
//
// Sections appear exactly in that order. Every parse failure throws
// ParseError whose message names the byte offset; loaders attach the
// file path via ParseError::with_file, so diagnostics read
// "file: PKB: bad section checksum (at byte offset N)".
#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>

#include "profile/profile.hpp"

namespace perfknow::perfdmf {

inline constexpr std::string_view kPkbMagic = "PKB1";
inline constexpr std::uint32_t kPkbVersion = 1;

/// Serializes a trial to the PKB binary format, writing each column's
/// rows straight from the trial's storage. The format primitives behind
/// io::save_trial (io/format.hpp) — call that for file-level access.
void write_pkb(const profile::Trial& trial, std::ostream& os);
[[nodiscard]] std::string to_pkb(const profile::Trial& trial);

/// How much of a snapshot open_pkb checks up front.
enum class Verify {
  kSchema,   ///< structure + schema/metadata CRCs; SUMM and COLS deferred
  kSummary,  ///< kSchema + the SUMM CRC: means and summaries are trusted
  kFull,     ///< every section CRC, and SUMM checked against COLS
};

/// Maps `file` (or reads it, where mmap is unavailable) and returns the
/// trial it holds, its columns borrowed from the mapping. Validates
/// magic, version, section structure, schema sanity against
/// perfdmf/limits.hpp and the checksums `verify` asks for. With
/// Verify::kSchema opening costs O(schema), not O(cube); call
/// verify_pkb_columns() before trusting the cell values. Verify::kSummary
/// adds the SUMM checksum (O(events x metrics)); a snapshot without SUMM
/// gets the full check instead, since its aggregates come from the cells. The file must
/// not be rewritten in place while a trial borrows from it (replace it
/// by rename, as Repository::save does). Throws ParseError (with the
/// file path attached) on malformed input, IoError when the file cannot
/// be read.
[[nodiscard]] profile::Trial open_pkb(const std::filesystem::path& file,
                                      Verify verify = Verify::kFull);

/// Parses a PKB image (verifying every checksum); the trial adopts
/// `bytes` as the storage its columns point into. Throws ParseError with
/// a byte-offset diagnostic on any violation.
[[nodiscard]] profile::Trial parse_pkb(std::string bytes);

/// Checks the COLS checksum of a trial whose columns are still borrowed
/// from the PKB image open_pkb gave it, and that its SUMM section (if
/// any) passes its own checksum and agrees with the columns; throws
/// ParseError naming the byte offset on a mismatch. A trial that owns
/// its columns has nothing left to check.
void verify_pkb_columns(const profile::Trial& trial);

/// Checks what a reader of aggregates only relies on: the SUMM checksum,
/// or, for a snapshot without SUMM (whose aggregates come from the
/// cells), everything verify_pkb_columns checks. Costs O(events x
/// metrics) when the snapshot has a summary.
void verify_pkb_summary(const profile::Trial& trial);

}  // namespace perfknow::perfdmf
