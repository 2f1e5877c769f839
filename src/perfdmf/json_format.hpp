// JSON profile interchange.
//
// The trial schema over the shared JSON reader and escaper of
// common/json.hpp:
//
//   {
//     "name": "...", "threads": N,
//     "metadata": {"key": "value", ...},
//     "metrics": [{"name": "...", "units": "...", "derived": false}],
//     "events":  [{"name": "...", "parent": -1, "group": "..."}],
//     "data": [{"thread": 0, "event": 0, "calls": 1, "subcalls": 0,
//               "values": [[inclusive, exclusive], ...per metric]}]
//   }
//
// Round-trip exact for the full value cube. Zero-valued data rows are
// omitted on write to keep files compact; absent rows read back as 0.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "profile/profile.hpp"

namespace perfknow::perfdmf {

// The format primitives behind io::open_trial / io::save_trial
// (io/format.hpp) — call those for file-level access; the stream and
// string forms exist for in-memory use.
void write_json(const profile::Trial& trial, std::ostream& os);
[[nodiscard]] std::string to_json(const profile::Trial& trial);

/// Throws ParseError on malformed JSON or schema violations.
[[nodiscard]] profile::Trial read_json(std::istream& is);
[[nodiscard]] profile::Trial from_json(const std::string& text);

}  // namespace perfknow::perfdmf
