#include "fuzz/targets.hpp"

#include "common/error.hpp"
#include "perfdmf/csv_format.hpp"
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
        try {
          const auto req = server::wire::parse_request(in);
          const json::Value* body = req.params.find("body");
          if (body != nullptr && body->kind == json::Value::Kind::kString) {
            (void)server::wire::base64_decode(body->text);
          }
        } catch (const server::wire::WireError& e) {
          throw ParseError(std::string("wire: ") + e.what());
        }
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
      std::string("SCHM"), std::string("META"), std::string("COLS"),
      std::string("PKBE"),
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
  }
  return kTauDict;
}

}  // namespace perfknow::fuzz
