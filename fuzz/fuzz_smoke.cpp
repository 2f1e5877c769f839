// Plain-ctest fuzz smoke runner: replays the committed corpus, every
// regression reproducer, and N seeded mutations per corpus entry through
// one front end's ingest contract. Runs in a few seconds with any
// compiler, so the contract is enforced on every CI run -- the libFuzzer
// harnesses (-DPERFKNOW_FUZZ=ON, clang) explore further but are not
// required for the gate.
//
// Usage:
//   fuzz_smoke --frontend tau|csv|json|rules|perfscript|pkb|explain|wire
//              --corpus <dir> [--mutations N] [--seed S]
//
// Exit code 0 iff zero contract violations.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/strings.hpp"
#include "fuzz/harness.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --frontend "
               "tau|csv|json|rules|perfscript|pkb|explain|wire "
               "--corpus <dir> [--mutations N] [--seed S]\n",
               argv0);
}

std::string preview(const std::string& input) {
  std::string out;
  const std::size_t n = std::min<std::size_t>(input.size(), 160);
  for (std::size_t i = 0; i < n; ++i) {
    out += perfknow::strings::printable_char(input[i]);
  }
  if (input.size() > n) out += "...";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string frontend_arg;
  std::string corpus_arg;
  perfknow::fuzz::SmokeOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--frontend" && value != nullptr) {
      frontend_arg = value;
      ++i;
    } else if (arg == "--corpus" && value != nullptr) {
      corpus_arg = value;
      ++i;
    } else if (arg == "--mutations" && value != nullptr) {
      options.mutations = std::atoi(value);
      ++i;
    } else if (arg == "--seed" && value != nullptr) {
      options.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  const auto fe = perfknow::fuzz::frontend_from_name(frontend_arg);
  if (!fe || corpus_arg.empty()) {
    usage(argv[0]);
    return 2;
  }

  const auto report = perfknow::fuzz::run_smoke(*fe, corpus_arg, options);
  std::printf("fuzz_smoke %s: %zu corpus + %zu regression + %zu mutated "
              "inputs, %zu violation(s)\n",
              frontend_arg.c_str(), report.corpus_inputs,
              report.regression_inputs, report.mutated_inputs,
              report.violations.size());
  if (report.corpus_inputs == 0) {
    std::fprintf(stderr, "error: no corpus inputs found under %s/%s\n",
                 corpus_arg.c_str(), frontend_arg.c_str());
    return 2;
  }
  for (const auto& v : report.violations) {
    std::fprintf(stderr, "VIOLATION [%s]\n  reason: %s\n  input: %s\n",
                 v.source.c_str(), v.reason.c_str(),
                 preview(v.input).c_str());
  }
  return report.ok() ? 0 : 1;
}
