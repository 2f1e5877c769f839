#include "fuzz/harness.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <typeinfo>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/targets.hpp"

namespace perfknow::fuzz {

namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Sorted file list so replay order (and thus the mutation stream) is
/// identical on every host.
std::vector<std::filesystem::path> sorted_files(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> out;
  if (!std::filesystem::is_directory(dir)) return out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

const char* frontend_name(Frontend fe) {
  switch (fe) {
    case Frontend::kTau: return "tau";
    case Frontend::kCsv: return "csv";
    case Frontend::kJson: return "json";
    case Frontend::kRules: return "rules";
    case Frontend::kScript: return "perfscript";
    case Frontend::kPkb: return "pkb";
    case Frontend::kExplain: return "explain";
    case Frontend::kWire: return "wire";
    case Frontend::kIndex: return "index";
  }
  return "unknown";
}

std::optional<Frontend> frontend_from_name(const std::string& name) {
  for (const Frontend fe : kAllFrontends) {
    if (name == frontend_name(fe)) return fe;
  }
  return std::nullopt;
}

std::optional<std::string> check_contract(const FuzzTarget& target,
                                          const std::string& input) {
  try {
    target(input);
    return std::nullopt;  // parsed cleanly
  } catch (const ParseError& e) {
    if (e.message().empty()) {
      return "ParseError with an empty message";
    }
    if (e.line() < 0 || e.column() < 0) {
      return "ParseError with a negative location (line " +
             std::to_string(e.line()) + ", column " +
             std::to_string(e.column()) + ")";
    }
    return std::nullopt;  // rejected under contract
  } catch (const IoError& e) {
    if (std::string(e.what()).empty()) {
      return "IoError with an empty message";
    }
    return std::nullopt;
  } catch (const Error& e) {
    return std::string("escaped perfknow exception of the wrong category: ") +
           e.what();
  } catch (const std::exception& e) {
    return std::string("escaped std::exception (") + typeid(e).name() +
           "): " + e.what();
  } catch (...) {
    return "escaped unknown exception";
  }
}

SmokeReport run_smoke(Frontend fe,
                      const std::filesystem::path& corpus_root,
                      const SmokeOptions& options) {
  const FuzzTarget t = target(fe);
  SmokeReport report;

  const auto check_one = [&](const std::string& input,
                             const std::string& source) {
    const auto start = std::chrono::steady_clock::now();
    auto reason = check_contract(t, input);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (!reason && elapsed > options.max_seconds_per_input) {
      reason = "input took " + strings::format_double(elapsed, 2) +
               "s (hang guard is " +
               strings::format_double(options.max_seconds_per_input, 2) +
               "s)";
    }
    if (reason) {
      report.violations.push_back(Violation{*reason, input, source});
    }
  };

  // 1. Replay the committed seed corpus.
  std::vector<std::string> corpus;
  for (const auto& path : sorted_files(corpus_root / frontend_name(fe))) {
    corpus.push_back(read_file(path));
    ++report.corpus_inputs;
    check_one(corpus.back(), path.string());
  }

  // 2. Replay committed regression reproducers (fixed defects stay fixed).
  const std::string prefix = std::string(frontend_name(fe)) + "_";
  for (const auto& path : sorted_files(corpus_root / "regressions")) {
    if (!strings::starts_with(path.filename().string(), prefix)) continue;
    ++report.regression_inputs;
    check_one(read_file(path), path.string());
  }

  // 3. Seeded mutations over the corpus (plus crossovers).
  if (!corpus.empty()) {
    Mutator mutator(options.seed, dictionary(fe));
    mutator.set_max_size(options.max_input_size);
    const std::size_t total =
        corpus.size() * static_cast<std::size_t>(std::max(0,
                                                          options.mutations));
    for (std::size_t i = 0; i < total; ++i) {
      const std::string& base = corpus[i % corpus.size()];
      std::string input;
      if (corpus.size() > 1 && i % 7 == 3) {
        input = mutator.cross(base, corpus[(i + 1) % corpus.size()]);
      } else {
        input = mutator.mutate(base);
      }
      ++report.mutated_inputs;
      check_one(input, "mutation #" + std::to_string(i) + " (seed " +
                           std::to_string(options.seed) + ")");
    }
  }
  return report;
}

}  // namespace perfknow::fuzz
