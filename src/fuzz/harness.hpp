// Ingest-contract fuzz harness shared by the libFuzzer entry points, the
// fuzz_smoke ctest runners and the unit tests.
//
// The contract every front end must satisfy:
//
//   Any input either parses, or throws perfknow::ParseError / IoError
//   with a non-empty message and a sane location. It never crashes,
//   never hangs, never leaks, and never escapes any other exception.
//
// check_contract() enforces the exception-side of that in-process;
// crashes/leaks/hangs are enforced by running the same corpus under
// ASan/UBSan (sanitize CI job), libFuzzer (-DPERFKNOW_FUZZ=ON) and the
// per-input time guard in run_smoke().
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace perfknow::fuzz {

/// The front ends under contract: five text formats, the PKB binary
/// snapshot format, the explanation-JSON form behind
/// `pkx explain --from`, the `pkx serve` request line, and the
/// repository's index.tsv/lineage.tsv tables.
enum class Frontend {
  kTau, kCsv, kJson, kRules, kScript, kPkb, kExplain, kWire, kIndex
};

inline constexpr Frontend kAllFrontends[] = {
    Frontend::kTau,    Frontend::kCsv, Frontend::kJson,
    Frontend::kRules,  Frontend::kScript, Frontend::kPkb,
    Frontend::kExplain, Frontend::kWire, Frontend::kIndex};

/// Short name used for corpus directories, regression-file prefixes and
/// the fuzz_smoke --frontend flag: tau, csv, json, rules, perfscript,
/// pkb, explain, wire, index.
[[nodiscard]] const char* frontend_name(Frontend fe);
[[nodiscard]] std::optional<Frontend> frontend_from_name(
    const std::string& name);

/// A front-end entry point under test: parses the input, throwing
/// ParseError/IoError on rejection.
using FuzzTarget = std::function<void(const std::string&)>;

/// Runs `target(input)` and checks the exception side of the ingest
/// contract. Returns std::nullopt when the contract holds, otherwise a
/// human-readable reason ("escaped std::bad_alloc", "ParseError with
/// empty message", ...).
[[nodiscard]] std::optional<std::string> check_contract(
    const FuzzTarget& target, const std::string& input);

struct Violation {
  std::string reason;
  std::string input;      // the offending input, verbatim
  std::string source;     // corpus path or "mutation #N of <path>"
};

struct SmokeOptions {
  std::uint64_t seed = 1;
  int mutations = 200;               // seeded mutations per corpus entry
  std::size_t max_input_size = 1u << 20;
  double max_seconds_per_input = 5.0;  // soft hang guard
};

struct SmokeReport {
  std::size_t corpus_inputs = 0;
  std::size_t regression_inputs = 0;
  std::size_t mutated_inputs = 0;
  std::vector<Violation> violations;
  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

/// Replays the committed corpus for `fe` (corpus_root/<name>/* plus every
/// corpus_root/regressions/<name>_* reproducer), then `mutations` seeded
/// mutations per corpus entry, through check_contract with a per-input
/// time guard. Deterministic for a fixed (corpus, seed, mutations).
[[nodiscard]] SmokeReport run_smoke(Frontend fe,
                                    const std::filesystem::path& corpus_root,
                                    const SmokeOptions& options = {});

}  // namespace perfknow::fuzz
