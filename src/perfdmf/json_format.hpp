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
// Round-trip exact for the full value cube, -0.0 included. Rows whose
// every value is +0.0 are omitted on write to keep files compact; absent
// rows read back as +0.0. JSON has no NaN or infinity, so write_json
// refuses a trial holding one (InvalidArgumentError naming the cell's
// thread, event and metric); io::save_trial then leaves no file behind.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/thread_pool.hpp"
#include "profile/profile.hpp"

namespace perfknow::perfdmf {

// The format primitives behind io::open_trial / io::save_trial
// (io/format.hpp) — call those for file-level access; the stream and
// string forms exist for in-memory use.
void write_json(const profile::Trial& trial, std::ostream& os);
[[nodiscard]] std::string to_json(const profile::Trial& trial);

/// Parses a whole document. Top-level members may come in any order and
/// a duplicated key resolves to its last occurrence. Throws ParseError
/// ("JSON: ...") on malformed JSON, reporting any syntax error before
/// any schema violation. The values stream into the trial's columns; no
/// DOM of the document is built. Data rows laid out as write_json writes
/// them are read in chunks on `pool` and applied in document order, so
/// the trial and the first error are those of reading them one by one.
[[nodiscard]] profile::Trial from_json(
    std::string_view text, ThreadPool& pool = ThreadPool::shared());

}  // namespace perfknow::perfdmf
