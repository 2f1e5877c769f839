// PKB — the binary columnar snapshot format for a single Trial.
//
// PKPROF (snapshot.hpp) is the line-oriented text format: convenient to
// diff and to check into fixtures, but parsing it materializes the whole
// value cube through a million parse_double calls. PKB is the storage
// engine's format: little-endian, sectioned, and columnar, so a reader
// can mmap the file and serve strided per-(event,metric) series straight
// from the page cache (see pkb_view.hpp) without ever materializing.
//
// Layout (all integers little-endian):
//
//   offset 0   magic "PKB1"
//   offset 4   u32 version (currently 1)
//   offset 8   sections, each 8-byte aligned:
//
//     +0   u32 tag        ("SCHM", "META", "COLS", "PKBE")
//     +4   u32 crc32      (CRC-32/IEEE of the payload bytes)
//     +8   u64 length     (payload bytes, excluding padding)
//     +16  payload, then zero padding to the next 8-byte boundary
//
//   SCHM  u64 threads; str trial-name; u32 metric-count;
//         per metric { str name; str units; u8 derived };
//         u32 event-count; per event { str name; i64 parent; str group }
//         (str = u32 byte length + bytes, no terminator)
//   META  u32 count; per entry { str key; str value }
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
#include <vector>

#include "profile/profile.hpp"

namespace perfknow::perfdmf {

inline constexpr std::string_view kPkbMagic = "PKB1";
inline constexpr std::uint32_t kPkbVersion = 1;

/// Serializes a trial (any TrialView — a materialized Trial or an open
/// PkbView) to the PKB binary format. The format primitives behind
/// io::save_trial (io/format.hpp) — call that for file-level access.
void write_pkb(const profile::TrialView& trial, std::ostream& os);
[[nodiscard]] std::string to_pkb(const profile::TrialView& trial);

/// Everything in a PKB file except the value cube: the parsed schema,
/// metadata, and the byte offsets the columns live at. This is what an
/// mmap-backed view needs to serve reads lazily.
struct PkbLayout {
  std::string trial_name;
  std::vector<std::pair<std::string, std::string>> metadata;
  std::vector<profile::Metric> metrics;
  std::vector<profile::Event> events;
  std::size_t threads = 0;
  std::size_t cols_offset = 0;  ///< absolute offset of the COLS payload
  std::size_t total_size = 0;   ///< snapshot size in bytes
  std::uint32_t cols_crc = 0;   ///< stored CRC of the COLS payload

  /// threads * events — the length of one column.
  [[nodiscard]] std::size_t cells() const noexcept {
    return threads * events.size();
  }
  [[nodiscard]] std::size_t column_bytes() const noexcept {
    return cells() * sizeof(double);
  }
  [[nodiscard]] std::size_t inclusive_column(profile::MetricId m) const {
    return cols_offset + 2 * m * column_bytes();
  }
  [[nodiscard]] std::size_t exclusive_column(profile::MetricId m) const {
    return inclusive_column(m) + column_bytes();
  }
  [[nodiscard]] std::size_t calls_column() const {
    return cols_offset + 2 * metrics.size() * column_bytes();
  }
  [[nodiscard]] std::size_t subcalls_column() const {
    return calls_column() + column_bytes();
  }
};

/// Parses and validates a PKB image: magic, version, section structure,
/// schema sanity against perfdmf/limits.hpp, and section checksums.
/// When `verify_columns` is false the (potentially huge) COLS payload's
/// CRC is skipped — structure and bounds are still fully validated —
/// so opening a view over a large snapshot stays O(schema), not O(cube).
/// Throws ParseError with a byte-offset diagnostic on any violation.
[[nodiscard]] PkbLayout parse_pkb_layout(std::string_view bytes,
                                         bool verify_columns = true);

/// Parses a PKB image into a fully-materialized Trial (always verifies
/// every checksum). This is also what PkbView::materialize() uses, and
/// the format primitive behind io::open_trial; PkbView::open reads a
/// snapshot without materializing.
[[nodiscard]] profile::Trial parse_pkb(std::string_view bytes);

/// Decodes one little-endian f64 at `p` (no alignment requirement).
[[nodiscard]] double pkb_read_f64(const char* p) noexcept;

}  // namespace perfknow::perfdmf
