// Unified ingest API: one front door for every profile format.
//
// PerfDMF's defining feature is ingesting many profile formats behind
// one interface. This module is that front door for perfknow: a registry
// of the shipped formats (PKPROF text snapshots, PKB binary snapshots,
// long-format CSV, JSON, TAU flat profiles) and three entry points —
//
//   auto trial = io::open_trial("run.pkb");       // sniffs the format
//   auto up = io::parse_trial(std::move(bytes), "", "upload-7");
//   io::save_trial(trial, "run.pkprof");          // picks by extension
//
// Detection prefers content (magic bytes / header line) over the file
// extension, so a mislabeled file still opens; input no format claims
// fails with a ParseError that lists every known format. Directories
// dispatch to the TAU flat-profile reader.
//
// parse_trial is the byte-level front door: every reader parses one
// in-memory buffer, and open_trial is a sized read of the file into one
// buffer followed by parse_trial, so a daemon parses an uploaded body
// exactly as a local open would, without staging it on disk. The
// per-format modules expose string/buffer primitives (parse_pkb,
// from_json, read_csv_long, read_tau_stream, ...) and this registry owns
// sniffing, trial naming and attaching the file name to diagnostics.
// Each open/parse/save is timed under telemetry spans "io.open_trial" /
// "io.save_trial" and per-format "io.read.<fmt>" / "io.write.<fmt>".
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "profile/profile.hpp"

namespace perfknow::io {

/// One registered profile format.
struct Format {
  std::string name;  ///< registry key, e.g. "pkb", "pkprof", "csv"
  std::vector<std::string> extensions;  ///< e.g. {".pkb"}

  /// Content sniff: does `head` (the first bytes of the input, possibly
  /// empty) / its file name look like this format?
  bool (*can_read)(std::string_view head, const std::filesystem::path& name);
  /// Parses a whole input into a trial. Formats whose content carries no
  /// trial name take it from `name`, the file the bytes came from.
  profile::Trial (*parse)(std::string bytes,
                          const std::filesystem::path& name);
  /// Writes a trial; null for read-only formats (TAU needs a metric and
  /// a directory, so it keeps its dedicated writer).
  void (*write)(const profile::Trial& trial,
                const std::filesystem::path& path);
};

/// All registered formats, in detection order.
[[nodiscard]] const std::vector<Format>& formats();

/// Looks a format up by registry name; nullptr when unknown.
[[nodiscard]] const Format* find_format(std::string_view name);

/// Parses a trial from the bytes of one input. `format` is a registry
/// name, or empty to detect it from the content (magic bytes / header
/// line) with `name`'s extension as a tie-breaker. `name` stands for the
/// file the bytes came from: ParseErrors are located in it, and formats
/// whose content carries no trial name derive one from it (CSV: its
/// stem; a single TAU profile: its file name). Throws ParseError naming
/// `name` and listing the known formats when nothing matches, and
/// InvalidArgumentError for an unknown format name. A PKB trial adopts
/// `bytes` as its column storage without another copy.
[[nodiscard]] profile::Trial parse_trial(std::string bytes,
                                         std::string_view format,
                                         const std::string& name);

/// Opens a trial, auto-detecting the format from the file content
/// (magic bytes / header line) with the extension as a tie-breaker.
/// Throws ParseError naming the file and listing the known formats when
/// nothing matches; IoError when the file cannot be read.
[[nodiscard]] profile::Trial open_trial(const std::filesystem::path& file);

/// Opens a trial with an explicit format (a registry name such as "pkb"
/// or "csv"); throws InvalidArgumentError listing the known formats when
/// the name is not registered.
[[nodiscard]] profile::Trial open_trial(const std::filesystem::path& file,
                                        std::string_view format);

/// Saves a trial in the format matching the file's extension. Throws
/// InvalidArgumentError listing the writable formats when the extension
/// is not recognized.
void save_trial(const profile::Trial& trial,
                const std::filesystem::path& file);

/// Saves a trial in an explicitly named format.
void save_trial(const profile::Trial& trial,
                const std::filesystem::path& file, std::string_view format);

}  // namespace perfknow::io
