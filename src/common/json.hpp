// A minimal JSON value model and recursive-descent parser shared by
// every JSON front end (trial JSON, explanation JSON re-import,
// Google-Benchmark trial conversion, the perfknow.api/1 wire envelope),
// so they all fail the same way: malformed input raises ParseError with
// a line/column/excerpt diagnostic, never a crash (the `json` and
// `explain` fuzz front ends exercise it).
//
// This is deliberately not a general JSON library: numbers are doubles,
// object member order is preserved (no map), duplicate keys are kept and
// find() returns the first. That is exactly what the tolerant-subset
// readers need and nothing more.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfknow::json {

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// First member with the given key, or nullptr. Object kind only.
  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses a complete JSON document (trailing characters are an error).
/// Nesting is capped at 96 levels; malformed input throws ParseError
/// carrying the 1-based line/column and a source excerpt.
[[nodiscard]] Value parse(const std::string& src);

// ---- writer primitives -------------------------------------------------
// The inverse half, shared by every JSON producer (provenance
// explanations, the perfknow.api/1 wire envelope) so strings escape and
// numbers round-trip identically everywhere.

/// Escapes for a double-quoted JSON string (quotes not included).
[[nodiscard]] std::string escape(const std::string& s);

/// `"escaped"` — escape() with the surrounding quotes.
[[nodiscard]] std::string quote(const std::string& s);

/// Shortest round-trip rendering of a double. JSON has no Inf/NaN, so
/// non-finite values render as null (read back as 0).
[[nodiscard]] std::string number(double v);

}  // namespace perfknow::json
