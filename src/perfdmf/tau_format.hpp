// Reader/writer for the classic TAU flat-profile file format.
//
// TAU measurement writes one text file per thread of execution, named
// "profile.<node>.<context>.<thread>", whose first section lists the
// instrumented functions:
//
//   <count> templated_functions_MULTI_<METRIC>
//   # Name Calls Subrs Excl Incl ProfileCalls
//   "main" 1 2 1000 5000 0 GROUP="TAU_DEFAULT"
//   ...
//   0 aggregates
//
// PerfDMF ingests directories of such files; this module does the same,
// flattening (node, context, thread) into the Trial thread index in
// lexicographic (node, context, thread) order. Callpath events use TAU's
// "a => b" naming; parent links are reconstructed from the names.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>

#include "profile/profile.hpp"

namespace perfknow::perfdmf {

/// Reads every "profile.N.C.T" file in `dir` into one Trial. This is
/// the TAU directory primitive behind io::open_trial (io/format.hpp) —
/// prefer that front door; the direct form stays for callers that need
/// TAU-specific error behaviour. The metric
/// name is taken from the "templated_functions_MULTI_<METRIC>" header
/// (plain "templated_functions" maps to TIME). Throws IoError when no
/// profile files are present; ParseError on malformed contents.
[[nodiscard]] profile::Trial read_tau_profiles(
    const std::filesystem::path& dir);

/// Parses a single TAU profile (the contents of one "profile.N.C.T"
/// file) from a stream into a one-thread Trial named `name`. This is the
/// same parser read_tau_profiles applies per file, exposed so in-memory
/// data (snapshots, network payloads, fuzz harnesses) can be ingested
/// without touching the filesystem. Throws ParseError on bad input.
[[nodiscard]] profile::Trial read_tau_stream(
    std::istream& is, const std::string& name = "tau_stream");

/// Writes `trial`'s metric `metric` in TAU format, one file per thread
/// ("profile.<t>.0.0") under `dir` (created if needed).
void write_tau_profiles(const profile::Trial& trial,
                        const std::string& metric,
                        const std::filesystem::path& dir);

}  // namespace perfknow::perfdmf
