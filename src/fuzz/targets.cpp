#include "fuzz/targets.hpp"

#include "common/error.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/index_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/tau_format.hpp"
#include "provenance/explanation.hpp"
#include "rules/parser.hpp"
#include "script/ast.hpp"
#include "server/wire.hpp"

namespace perfknow::fuzz {

FuzzTarget target(Frontend fe) {
  switch (fe) {
    case Frontend::kTau:
      return [](const std::string& in) {
        (void)perfdmf::read_tau_stream(in, "fuzz");
      };
    case Frontend::kCsv:
      return [](const std::string& in) { (void)perfdmf::read_csv_long(in); };
    case Frontend::kJson:
      return [](const std::string& in) { (void)perfdmf::from_json(in); };
    case Frontend::kRules:
      return [](const std::string& in) { (void)rules::parse_rules(in); };
    case Frontend::kScript:
      return [](const std::string& in) {
        (void)script::parse_program(in);
      };
    case Frontend::kPkb:
      return [](const std::string& in) { (void)perfdmf::parse_pkb(in); };
    case Frontend::kExplain:
      return [](const std::string& in) {
        (void)provenance::explanations_from_json(in);
      };
    case Frontend::kWire:
      return [](const std::string& in) {
        namespace wire = server::wire;
        // No fuzz input is longer than the Mutator's 1 MiB cap.
        constexpr std::uint64_t kBodyCap = std::uint64_t{1} << 20;
        try {
          std::string_view rest = in;
          while (!rest.empty()) {
            const std::size_t nl = rest.find('\n');
            const std::string_view line = rest.substr(0, nl);
            rest.remove_prefix(nl == std::string_view::npos ? rest.size()
                                                            : nl + 1);
            if (line.empty()) continue;
            const auto req = wire::parse_request(line);
            if (const auto n = wire::body_length(req, kBodyCap)) {
              if (rest.size() < *n) {
                throw wire::WireError(
                    wire::ErrorCode::kBadRequest,
                    wire::short_body_message(*n, rest.size()));
              }
              rest.remove_prefix(static_cast<std::size_t>(*n));
            } else if (const json::Value* body = req.params.find("body");
                       body != nullptr &&
                       body->kind == json::Value::Kind::kString) {
              (void)wire::base64_decode(body->text);
            }
          }
        } catch (const server::wire::WireError& e) {
          throw ParseError(std::string("wire: ") + e.what());
        }
      };
    case Frontend::kIndex:
      return [](const std::string& in) {
        (void)perfdmf::parse_index(in);
        (void)perfdmf::parse_lineage(in);
      };
  }
  return [](const std::string&) {};
}

const std::vector<std::string>& dictionary(Frontend fe) {
  static const std::vector<std::string> kTauDict = {
      "templated_functions_MULTI_TIME",
      "templated_functions",
      "GROUP=\"TAU_DEFAULT\"",
      " => ",
      "\"main\" ",
      "0 aggregates",
      "# Name Calls Subrs Excl Incl ProfileCalls",
      "\"",
  };
  static const std::vector<std::string> kCsvDict = {
      "event,thread,metric,inclusive,exclusive,calls,subcalls",
      "\"", "\"\"", ",", " => ", "TIME", "\r",
  };
  static const std::vector<std::string> kJsonDict = {
      "{", "}", "[", "]", "\"name\":", "\"threads\":", "\"metrics\":",
      "\"events\":", "\"data\":", "\"parent\":", "\"values\":",
      "\"thread\":", "\"event\":", "\"calls\":", "\"subcalls\":",
      "null", "true", "false", "\\u0022", "\\\\",
  };
  static const std::vector<std::string> kRulesDict = {
      "rule ", "when ", "then ", "end", "salience ", "print(",
      "diagnose(", "assert(", "==", "!=", "<=", ">=", " : ", "\"",
      "problem = ", "severity", "f.severity", "(", ")",
  };
  static const std::vector<std::string> kScriptDict = {
      "if ", "elif ", "else:", "while ", "for ", " in ", "def ",
      "return ", "break", "continue", "pass", " and ", " or ", "not ",
      "True", "False", "None", ":", "\n    ", "\n", "(", ")", "[", "]",
      "{", "}", "**", "//", "\\\n", "#",
  };
  // Binary fragments: the magic, section tags, and little-endian
  // length/count words, so mutations hit section framing, not just the
  // magic check. std::string(ptr, n) keeps the embedded NULs.
  static const std::vector<std::string> kPkbDict = {
      std::string("PKB1"),
      std::string("\x01\x00\x00\x00", 4),
      std::string("SCHM"), std::string("META"), std::string("SUMM"),
      std::string("COLS"), std::string("PKBE"),
      std::string("\x10\x00\x00\x00\x00\x00\x00\x00", 8),
      std::string("\x00\x00\x00\x00", 4),
      std::string("\x01\x00\x00\x00\x00\x00\x00\x00", 8),
      std::string("\xff\xff\xff\xff", 4),
      std::string("\x04\x00\x00\x00TIME", 8),
      std::string("\x04\x00\x00\x00main", 8),
  };
  static const std::vector<std::string> kExplainDict = {
      "{", "}", "[", "]", "\"schema\":", "\"perfknow.explanation/1\"",
      "\"diagnosis\":", "\"firing\":", "\"rule\":", "\"problem\":",
      "\"event\":", "\"metric\":", "\"severity\":", "\"message\":",
      "\"recommendation\":", "\"id\":", "\"file\":", "\"line\":",
      "\"column\":", "\"salience\":", "\"generation\":", "\"bindings\":",
      "\"facts\":", "\"prints\":", "\"fact\":", "\"type\":",
      "\"fields\":", "\"origin\":", "\"lineage\":", "\"derived_from\":",
      "null", "true", "false", "\\u0022", "\\\\", "1e308", "-0.5",
  };
  static const std::vector<std::string> kWireDict = {
      "{", "}", "\"api\":", "\"perfknow.api/1\"", "\"id\":", "\"method\":",
      "\"params\":", "\"upload\"", "\"analyze\"", "\"ping\"",
      "\"body\":", "\"application\":", "\"experiment\":", "null",
      "\"QUJD\"", "==", "=", "\\n", "+/", "\\u0041",
      "\"body_bytes\":", "\n", "-1", "1.5", "1048577",
  };
  // Index rows: the separators, path shapes the loader must reject, and
  // the names save() writes.
  static const std::vector<std::string> kIndexDict = {
      "\t", "\n", "\r", "..", "../", "/", "shard-00/", ".pkb", ".pkprof",
      "_3f9c0d2a81b4e6f0", "app\texp\t", "v1\tv0\n",
  };
  switch (fe) {
    case Frontend::kTau: return kTauDict;
    case Frontend::kCsv: return kCsvDict;
    case Frontend::kJson: return kJsonDict;
    case Frontend::kRules: return kRulesDict;
    case Frontend::kScript: return kScriptDict;
    case Frontend::kPkb: return kPkbDict;
    case Frontend::kExplain: return kExplainDict;
    case Frontend::kWire: return kWireDict;
    case Frontend::kIndex: return kIndexDict;
  }
  return kTauDict;
}

}  // namespace perfknow::fuzz
