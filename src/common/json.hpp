// The one JSON parser, shared by every JSON front end (trial JSON,
// explanation JSON re-import, Google-Benchmark trial conversion, the
// perfknow.api/1 wire envelope), so they all fail the same way: malformed
// input raises ParseError with a line/column/excerpt diagnostic, never a
// crash (the `json`, `explain` and `wire` fuzz front ends exercise it).
//
// It has two layers. Tokenizer is a pull tokenizer: it validates the
// document as it goes and hands out one token at a time, so a reader
// with a schema (perfdmf/json_format.cpp) can stream a multi-megabyte
// trial straight into its columns without materializing anything.
// parse() builds a small DOM (Value) on top of it for the readers that
// want random access to a short document.
//
// This is deliberately not a general JSON library: numbers are doubles,
// object member order is preserved (no map), duplicate keys are kept and
// find() returns the first. That is exactly what the tolerant-subset
// readers need and nothing more.
#pragma once

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfknow::json {

/// Pulls the tokens of one JSON value out of a byte buffer, checking
/// the grammar as it goes. Nesting is capped at 96 levels; malformed
/// input throws ParseError carrying the 1-based line/column and a source
/// excerpt of the buffer.
class Tokenizer {
 public:
  enum class Token : std::uint8_t {
    kBeginObject,
    kEndObject,
    kBeginArray,
    kEndArray,
    kKey,  ///< an object member's key; text() holds it
    kString,
    kNumber,
    kTrue,
    kFalse,
    kNull,
    kEnd,  ///< the document is complete and nothing but whitespace follows
  };

  /// Tokenizes the value that starts at byte `pos` of `src` (after
  /// optional whitespace). Locations in errors are always relative to
  /// the start of `src`, so a reader can revisit a value at an offset an
  /// earlier pass recorded (token_start()).
  explicit Tokenizer(std::string_view src, std::size_t pos = 0)
      : src_(src), pos_(pos), origin_(pos) {}
  /// Adds the bytes this tokenizer advanced over to the telemetry
  /// counter "text.scanned".
  ~Tokenizer();
  Tokenizer(const Tokenizer&) = delete;
  Tokenizer& operator=(const Tokenizer&) = delete;

  /// The next token. After the outermost value closes, next() checks
  /// that only whitespace remains and returns kEnd.
  Token next();

  /// After kBeginObject / kBeginArray: consumes everything up to and
  /// including the matching close. A no-op after any other token.
  void skip(Token current);
  /// Consumes tokens until no more than `depth` containers are open.
  void skip_to(std::size_t depth);
  /// After kBeginObject / kBeginArray: the caller has read the rest of
  /// that container itself, and maybe further values of the enclosing
  /// one, up to the byte before `end`, which closes the last of them.
  /// Tokenizing resumes at `end`. The caller vouches that the bytes it
  /// read are what next() would have accepted.
  void resume_after(std::size_t end) {
    pos_ = end;
    close();
  }

  /// kKey / kString: the unescaped text. Valid until the next call.
  [[nodiscard]] std::string_view text() const noexcept { return text_; }
  /// kNumber: the value.
  [[nodiscard]] double number() const noexcept { return number_; }
  /// Byte offset at which the last token returned by next() starts.
  [[nodiscard]] std::size_t token_start() const noexcept { return start_; }

  /// Throws ParseError(msg) located at the current position.
  [[noreturn]] void fail(const std::string& msg) const;

 private:
  enum class State : std::uint8_t {
    kValue,        // a value must come next
    kArrayFirst,   // just after '['
    kObjectFirst,  // just after '{'
    kObjectKey,    // a member key must come next
    kAfterValue,   // ',' or a close, or the end of the document
    kDone,         // the outermost value has closed
  };

  static constexpr std::size_t kMaxDepth = 96;

  Token read_value();
  void read_number();
  void read_string();
  void skip_ws();
  char peek();
  void close() {
    --depth_;
    state_ = State::kAfterValue;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t origin_ = 0;
  std::size_t start_ = 0;
  State state_ = State::kValue;
  /// Open containers; object_[i] is set when the i-th is an object.
  std::size_t depth_ = 0;
  std::bitset<kMaxDepth> object_;
  std::string_view text_;
  std::string unescaped_;
  double number_ = 0.0;
};

/// The number-extent rule: a number's text is the longest run of
/// digits, '.', 'e', 'E', '+' and '-' from `pos`. Returns where it ends
/// (`pos` itself when there is none).
[[nodiscard]] std::size_t number_end(std::string_view src,
                                     std::size_t pos) noexcept;

/// Reads `text`, a whole extent, as std::from_chars does. False when
/// from_chars fails or stops short of the end.
[[nodiscard]] bool parse_number(std::string_view text, double& out) noexcept;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  /// First member with the given key, or nullptr. Object kind only.
  [[nodiscard]] const Value* find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] Value* find(std::string_view key) {
    for (auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses a complete JSON document (trailing characters are an error)
/// into a DOM, with Tokenizer's limits and diagnostics.
[[nodiscard]] Value parse(std::string_view src);

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
