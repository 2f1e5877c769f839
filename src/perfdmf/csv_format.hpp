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
#include <string_view>

#include "common/thread_pool.hpp"
#include "profile/profile.hpp"

namespace perfknow::perfdmf {

/// Writes every (event, thread, metric) cell of the trial. The format
/// primitive behind io::save_trial (io/format.hpp) — call that for
/// file-level access.
void write_csv_long(const profile::Trial& trial, std::ostream& os);

/// Parses a whole long-format CSV into a trial (named "csv_import";
/// io::parse_trial renames it after the file). Throws ParseError on
/// malformed rows; unknown columns are rejected so silent data loss is
/// impossible. The format primitive behind io::parse_trial. Chunks of
/// whole lines are split and parsed on `pool`; the caller adds their
/// rows to the trial in file order, so the trial and the first error
/// are those of reading the lines one by one.
[[nodiscard]] profile::Trial read_csv_long(
    std::string_view text, ThreadPool& pool = ThreadPool::shared());

}  // namespace perfknow::perfdmf
