// Long-format CSV profile interchange.
//
// PerfDMF's claim to fame is ingesting many profile formats; the most
// interoperable of all is a flat CSV. This module reads and writes the
// long ("tidy") layout, one measurement per line:
//
//   event,thread,metric,inclusive,exclusive,calls,subcalls
//   "main",0,TIME,5000,1000,1,2
//   ...
//
// Event names are quoted when they contain commas or quotes (RFC-4180
// escaping). Callpath parents are reconstructed from "a => b" naming on
// import, like the TAU reader does.
#pragma once

#include <filesystem>
#include <iosfwd>

#include "profile/profile.hpp"

namespace perfknow::perfdmf {

/// Writes every (event, thread, metric) cell of the trial. The format
/// primitive behind io::save_trial (io/format.hpp) — call that for
/// file-level access.
void write_csv_long(const profile::Trial& trial, std::ostream& os);

/// Parses a long-format CSV into a trial (named "csv_import";
/// io::open_trial renames it after the file). Throws ParseError on
/// malformed rows; unknown columns are rejected so silent data loss is
/// impossible. The format primitive behind io::open_trial.
[[nodiscard]] profile::Trial read_csv_long(std::istream& is);

}  // namespace perfknow::perfdmf
