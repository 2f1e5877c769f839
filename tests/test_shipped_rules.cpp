// The shipped rules/*.rules files are the only source of the built-in
// rulebases: the build embeds each one verbatim under its stem. These
// tests hold the embedded table to the directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "rules/diagnosis.hpp"
#include "rules/parser.hpp"
#include "rules/rulebases.hpp"
#include "script/ast.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
namespace rb = pk::rules::builtin;

namespace {

fs::path rules_dir() { return fs::path(PERFKNOW_SOURCE_DIR) / "rules"; }

std::string slurp(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::vector<std::string> rule_file_stems() {
  std::vector<std::string> stems;
  for (const auto& entry : fs::directory_iterator(rules_dir())) {
    if (entry.path().extension() == ".rules") {
      stems.push_back(entry.path().stem().string());
    }
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

}  // namespace

TEST(ShippedRules, EveryFileResolvesToItsExactBytesAndParses) {
  const auto stems = rule_file_stems();
  ASSERT_FALSE(stems.empty());
  for (const auto& stem : stems) {
    const auto source = pk::rules::resolve_rulebase(stem);
    EXPECT_EQ(source, slurp(rules_dir() / (stem + ".rules"))) << stem;
    EXPECT_GE(pk::rules::parse_rules(source, stem).size(), 1u) << stem;
  }
}

TEST(ShippedRules, TableHasNoEntryWithoutAFile) {
  const auto names = rb::names();
  EXPECT_EQ(std::vector<std::string>(names.begin(), names.end()),
            rule_file_stems());
}

TEST(ShippedRules, DeclaredAccessorsEqualTheirFiles) {
  const std::vector<std::pair<std::string, std::string_view>> accessors = {
      {"stalls_per_cycle", rb::stalls_per_cycle()},
      {"load_imbalance", rb::load_imbalance()},
      {"inefficiency", rb::inefficiency()},
      {"stall_coverage", rb::stall_coverage()},
      {"memory_locality", rb::memory_locality()},
      {"power", rb::power()},
      {"communication", rb::communication()},
      {"instrumentation", rb::instrumentation()},
      {"openmp", rb::openmp()},
      {"self_diagnosis", rb::self_diagnosis()},
      {"regression", rb::regression()},
      {"rule_tuning", rb::rule_tuning()},
  };
  for (const auto& [stem, source] : accessors) {
    EXPECT_EQ(source, slurp(rules_dir() / (stem + ".rules"))) << stem;
  }
}

TEST(ShippedRules, OpenUhIsTheNinePaperFilesConcatenated) {
  std::string expected;
  for (const char* stem :
       {"stalls_per_cycle", "load_imbalance", "inefficiency",
        "stall_coverage", "memory_locality", "power", "communication",
        "instrumentation", "openmp"}) {
    expected += slurp(rules_dir() / (std::string(stem) + ".rules"));
  }
  EXPECT_EQ(rb::openuh_rules(), expected);
  EXPECT_EQ(pk::rules::resolve_rulebase("OpenUHRules.rules"), expected);
  EXPECT_EQ(pk::rules::resolve_rulebase("openuh/OpenUHRules.drl"), expected);
  EXPECT_FALSE(fs::exists(rules_dir() / "OpenUHRules.rules"));
}

// Diagnosis::to_string() is rendered into reports and example output;
// pin the exact format so downstream parsers don't silently break.
TEST(ShippedRules, DiagnosisToStringFormatIsStable) {
  pk::rules::Diagnosis d;
  d.rule = "Repository Cache Thrashing";
  d.problem = "RepositoryCacheThrashing";
  d.event = "perfdmf.repository";
  d.metric = "cache.hit_rate";
  d.severity = 0.96;
  d.message = "hit rate 4%";
  d.recommendation = "raise the cache budget";
  EXPECT_EQ(d.to_string(),
            "[RepositoryCacheThrashing] perfdmf.repository {cache.hit_rate}"
            " (severity 0.96, rule \"Repository Cache Thrashing\")"
            ": hit rate 4% -> raise the cache budget");

  pk::rules::Diagnosis bare;
  bare.rule = "r";
  bare.problem = "P";
  bare.event = "e";
  bare.severity = 1.0;
  EXPECT_EQ(bare.to_string(), "[P] e (severity 1.00, rule \"r\")");
}

TEST(ShippedRules, ExampleScriptParses) {
  const auto script = fs::path(PERFKNOW_SOURCE_DIR) / "examples" /
                      "scripts" / "stall_analysis.ps";
  ASSERT_TRUE(fs::exists(script));
  // The script must at least tokenize and parse (running it needs a
  // populated repository, covered by the scripted_analysis example).
  std::ifstream is(script);
  std::ostringstream ss;
  ss << is.rdbuf();
  EXPECT_NO_THROW((void)pk::script::parse_program(ss.str()));
}
