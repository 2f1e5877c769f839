// The fuzzable parser entry points and their grammar dictionaries.
#pragma once

#include <string>
#include <vector>

#include "fuzz/harness.hpp"

namespace perfknow::fuzz {

/// Returns the parser entry point for a front end. Each target parses the
/// whole input string and discards the result:
///   tau         perfdmf::read_tau_stream
///   csv         perfdmf::read_csv_long
///   json        perfdmf::from_json
///   rules       rules::parse_rules
///   perfscript  script::parse_program (tokenize + parse)
///   pkb         perfdmf::parse_pkb (binary snapshot)
///   explain     provenance::explanations_from_json
///   wire        server::wire::parse_request on each request line, then
///               for a framed one (params.body_bytes) body_length and
///               the N raw bytes after the line, then check_framing (an
///               upload must be framed); a WireError is the rejection,
///               rethrown as ParseError
///   index       perfdmf::parse_index, whose rows must re-render
///               (append_index_row) to rows that parse to the same
///               values, then perfdmf::parse_lineage, on the same bytes
[[nodiscard]] FuzzTarget target(Frontend fe);

/// Keywords and structural fragments of the front end's grammar, fed to
/// the Mutator so mutations explore the parser beyond byte noise.
[[nodiscard]] const std::vector<std::string>& dictionary(Frontend fe);

}  // namespace perfknow::fuzz
