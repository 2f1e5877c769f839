// Ingest-contract tests: every text front end must either parse a
// hostile input or throw ParseError/IoError with a sane location --
// never crash, hang, or leak. These are the deterministic companions to
// the fuzz_smoke runners; each case here is a class of input the
// mutation engine also explores randomly.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/file.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz/targets.hpp"
#include "perfdmf/index_format.hpp"
#include "perfdmf/json_format.hpp"

namespace pk = perfknow;
using pk::fuzz::Frontend;
using pk::fuzz::check_contract;
using pk::fuzz::frontend_name;
using pk::fuzz::kAllFrontends;
using pk::fuzz::target;

namespace {

// Expects the contract to hold (parse cleanly or throw a well-formed
// ParseError/IoError) and reports the front end + reason on failure.
void expect_contract(Frontend fe, const std::string& input,
                     const std::string& label) {
  const auto reason = check_contract(target(fe), input);
  EXPECT_FALSE(reason.has_value())
      << frontend_name(fe) << " violated contract on " << label << ": "
      << *reason;
}

void expect_contract_all(const std::string& input, const std::string& label) {
  for (const auto fe : kAllFrontends) expect_contract(fe, input, label);
}

}  // namespace

TEST(FuzzContracts, EmptyInput) { expect_contract_all("", "empty input"); }

TEST(FuzzContracts, Utf8ByteOrderMark) {
  expect_contract_all("\xEF\xBB\xBF", "bare BOM");
  // A BOM before otherwise-valid input must not break parsing.
  EXPECT_FALSE(check_contract(target(Frontend::kScript),
                              "\xEF\xBB\xBFx = 1\n"));
  EXPECT_FALSE(check_contract(target(Frontend::kJson),
                              "\xEF\xBB\xBF{\"name\": \"t\"}"));
}

TEST(FuzzContracts, CarriageReturnLineFeed) {
  expect_contract_all("a,b,c\r\nd,e,f\r\n", "CRLF lines");
  // CRLF-terminated script with a whitespace-only line must parse: the
  // lexer once emitted a phantom INDENT for the "  \r" line.
  EXPECT_FALSE(check_contract(target(Frontend::kScript),
                              "x = 1\r\n  \r\ny = 2\r\n"));
}

TEST(FuzzContracts, OneMegabyteSingleLine) {
  std::string line(1u << 20, 'a');
  expect_contract_all(line, "1 MB single line");
  line.back() = '\n';
  expect_contract_all(line, "1 MB line with newline");
}

TEST(FuzzContracts, EmbeddedNulBytes) {
  const std::string nul("a\0b\0c", 5);
  expect_contract_all(nul, "embedded NUL bytes");
  expect_contract_all(std::string(16, '\0'), "all-NUL input");
}

TEST(FuzzContracts, DeeplyNestedJson) {
  // Far past the kMaxJsonDepth guard; must throw, not smash the stack.
  const std::string deep_arrays(100000, '[');
  expect_contract(Frontend::kJson, deep_arrays, "100k nested arrays");
  std::string deep_objects;
  for (int i = 0; i < 5000; ++i) deep_objects += "{\"a\":";
  expect_contract(Frontend::kJson, deep_objects, "5k nested objects");
  // The same guard class applies to expression parsers.
  expect_contract(Frontend::kRules,
                  "rule \"r\" when F( a == " + std::string(100000, '(') +
                      " ) then end",
                  "deep parens in rules expr");
  expect_contract(Frontend::kScript, "x = " + std::string(100000, '('),
                  "deep parens in script expr");
}

TEST(FuzzContracts, NumericOverflow) {
  expect_contract_all("1e999", "bare 1e999");
  expect_contract(Frontend::kJson, R"({"name":"t","threads":1e999})",
                  "1e999 thread count");
  expect_contract(Frontend::kCsv,
                  "event,thread,metric,value\nmain,1e999,TIME,1\n",
                  "1e999 CSV thread");
  expect_contract(Frontend::kRules,
                  "rule \"r\" salience 1e999 when F(a == 1) then end",
                  "1e999 salience");
  expect_contract(Frontend::kScript, "x = 1e999\n", "1e999 script literal");
  expect_contract(Frontend::kTau,
                  "1 templated_functions_MULTI_TIME\n# Name Calls ...\n"
                  "\"main\" 1e999 0 1\n",
                  "1e999 TAU field");
}

TEST(FuzzContracts, HugeAllocationRequestsAreRejected) {
  // Dimensions that pass numeric parsing but would allocate absurd
  // amounts of memory must be rejected up front, not attempted.
  expect_contract(Frontend::kJson, R"({"name":"t","threads":1e18})",
                  "1e18 thread count");
  expect_contract(Frontend::kJson, R"({"name":"t","threads":-1})",
                  "negative thread count");
  expect_contract(Frontend::kCsv,
                  "event,thread,metric,value\nmain,-1,TIME,1\n",
                  "negative CSV thread");
}

TEST(FuzzContracts, ParseErrorsCarryLocations) {
  try {
    (void)pk::perfdmf::from_json("{\"name\": nope}");
    FAIL() << "expected ParseError";
  } catch (const pk::ParseError& e) {
    EXPECT_GE(e.line(), 1);
    EXPECT_GE(e.column(), 1);
    EXPECT_FALSE(e.excerpt().empty());
  }
}

// The wire corpus keeps one request of the removed unframed upload form
// (the trial inside the line as params.body) to pin its rejection, which
// names the param the upload lacks; the framed upload seeds parse.
TEST(FuzzContracts, TheWireCorpusRejectsOnlyTheUnframedUpload) {
  const std::filesystem::path corpus =
      std::filesystem::path(PERFKNOW_SOURCE_DIR) / "fuzz" / "corpus" / "wire";
  const auto wire = target(Frontend::kWire);
  const auto seed = [&](const char* name) {
    return pk::read_file_bytes(corpus / name, "wire seed");
  };
  EXPECT_NO_THROW(wire(seed("upload_csv.txt")));
  EXPECT_NO_THROW(wire(seed("framed_exact.txt")));
  try {
    wire(seed("upload_body_param_rejected.txt"));
    FAIL() << "the unframed upload seed parsed";
  } catch (const pk::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("params.body_bytes"),
              std::string::npos)
        << e.what();
  }
}

// The index corpus's record seeds: the valid rows parse to exactly the
// values written (nan, inf and -0 totals included, since a trial's mean
// may be any of them), and each malformed row is refused at its line.
TEST(FuzzContracts, TheIndexCorpusPinsEveryRecordField) {
  const std::filesystem::path corpus =
      std::filesystem::path(PERFKNOW_SOURCE_DIR) / "fuzz" / "corpus" / "index";
  const auto seed = [&](const char* name) {
    return pk::read_file_bytes(corpus / name, "index seed");
  };
  const auto valid = pk::perfdmf::parse_index(seed("record_valid.tsv"));
  ASSERT_EQ(valid.size(), 3u);
  ASSERT_TRUE(valid[0].record.has_value());
  EXPECT_EQ(valid[0].record->threads, 16u);
  EXPECT_EQ(valid[0].record->events, 2000u);
  EXPECT_EQ(valid[0].record->metrics, 8u);
  EXPECT_EQ(valid[0].record->total, 4805112.1866666665);
  EXPECT_EQ(pk::perfdmf::total_field(valid[0].record->total),
            "4805112.1866666665");
  ASSERT_TRUE(valid[1].record.has_value());
  EXPECT_EQ(valid[1].record->metrics, 0u);
  EXPECT_FALSE(valid[1].record->total.has_value());
  EXPECT_FALSE(valid[2].record.has_value());
  EXPECT_EQ(valid[2].line, 3);

  const auto special =
      pk::perfdmf::parse_index(seed("record_special_totals.tsv"));
  ASSERT_EQ(special.size(), 3u);
  EXPECT_TRUE(std::isnan(*special[0].record->total));
  EXPECT_FALSE(std::signbit(*special[0].record->total));
  EXPECT_EQ(*special[1].record->total,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(*special[2].record->total, 0.0);
  EXPECT_TRUE(std::signbit(*special[2].record->total));
  EXPECT_EQ(pk::perfdmf::total_field(special[2].record->total), "-0");

  for (const auto& [name, what] :
       std::vector<std::pair<const char*, std::string>>{
           {"record_negative_count.tsv", "event count '-3'"},
           {"record_fractional_count.tsv", "thread count '2.5'"},
           {"record_overflow_count.tsv",
            "metric count '18446744073709551616'"},
           {"record_six_fields.tsv",
            "expected 4 fields, or 8 with the trial's shape and total"}}) {
    try {
      (void)pk::perfdmf::parse_index(seed(name));
      ADD_FAILURE() << name << " parsed";
    } catch (const pk::ParseError& e) {
      EXPECT_EQ(e.line(), 2) << name << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << name << ": " << e.what();
    }
    expect_contract(Frontend::kIndex, seed(name), name);
  }
  // The front end re-renders the valid rows and parses them again.
  for (const char* name : {"record_valid.tsv", "record_special_totals.tsv"}) {
    expect_contract(Frontend::kIndex, seed(name), name);
  }
}

// --- mutation engine -------------------------------------------------

TEST(FuzzMutator, DeterministicForSameSeed) {
  const std::string seed_input = "rule \"r\" when F(a == 1) then end";
  pk::fuzz::Mutator a(42), b(42), c(43);
  std::string ma = seed_input, mb = seed_input, mc = seed_input;
  bool diverged = false;
  for (int i = 0; i < 50; ++i) {
    ma = a.mutate(ma);
    mb = b.mutate(mb);
    mc = c.mutate(mc);
    EXPECT_EQ(ma, mb) << "same seed diverged at step " << i;
    diverged = diverged || (ma != mc);
  }
  EXPECT_TRUE(diverged) << "different seeds never diverged";
}

TEST(FuzzMutator, RespectsSizeCap) {
  pk::fuzz::Mutator m(7);
  m.set_max_size(512);
  std::string input(256, 'x');
  for (int i = 0; i < 200; ++i) {
    input = m.mutate(input);
    ASSERT_LE(input.size(), 512u);
  }
}

TEST(FuzzMutator, MutatedInputsHoldContractEverywhere) {
  // A miniature in-process fuzz run: mutate each front end's grammar
  // dictionary seed and check the contract on every derivative.
  for (const auto fe : kAllFrontends) {
    pk::fuzz::Mutator m(11, pk::fuzz::dictionary(fe));
    std::string input = "x = 1\n";
    for (int i = 0; i < 100; ++i) {
      input = m.mutate(input);
      expect_contract(fe, input, "mutation chain step");
    }
  }
}
