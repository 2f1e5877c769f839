#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace perfknow::json {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& src) : src_(src) {}

  Value parse() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != src_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 96;

  [[noreturn]] void fail(const std::string& msg) const {
    int line = 1;
    int col = 1;
    for (std::size_t i = 0; i < pos_ && i < src_.size(); ++i) {
      if (src_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw ParseError(msg, line, col, strings::excerpt(src_, pos_));
  }

  void skip_ws() {
    while (pos_ < src_.size() &&
           (src_[pos_] == ' ' || src_[pos_] == '\t' || src_[pos_] == '\n' ||
            src_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= src_.size()) fail("unexpected end of JSON");
    return src_[pos_];
  }

  bool consume_keyword(const char* kw) {
    const std::size_t n = std::char_traits<char>::length(kw);
    if (src_.compare(pos_, n, kw) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    if (src_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= src_.size()) fail("unterminated string");
      const char c = src_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= src_.size()) fail("unterminated escape");
        const char e = src_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > src_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = src_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            // UTF-8 encode the BMP code point (surrogates pass through
            // as-is; the producers never emit them).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Value parse_value() {
    if (++depth_ > kMaxDepth) fail("JSON nested too deeply");
    const char c = peek();
    Value v;
    if (c == '{') {
      ++pos_;
      v.kind = Value::Kind::kObject;
      if (peek() == '}') {
        ++pos_;
      } else {
        while (true) {
          skip_ws();
          if (pos_ >= src_.size()) fail("unterminated object");
          std::string key = parse_string();
          skip_ws();
          if (pos_ >= src_.size() || src_[pos_] != ':') fail("expected ':'");
          ++pos_;
          v.members.emplace_back(std::move(key), parse_value());
          const char d = peek();
          ++pos_;
          if (d == '}') break;
          if (d != ',') fail("expected ',' or '}'");
        }
        // Drop the growth slack: a large document is mostly small
        // objects, and their spare capacity would dominate its memory.
        v.members.shrink_to_fit();
      }
    } else if (c == '[') {
      ++pos_;
      v.kind = Value::Kind::kArray;
      if (peek() == ']') {
        ++pos_;
      } else {
        while (true) {
          v.items.push_back(parse_value());
          const char d = peek();
          ++pos_;
          if (d == ']') break;
          if (d != ',') fail("expected ',' or ']'");
        }
        v.items.shrink_to_fit();
      }
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      v.text = parse_string();
    } else if (consume_keyword("true")) {
      v.kind = Value::Kind::kBool;
      v.boolean = true;
    } else if (consume_keyword("false")) {
      v.kind = Value::Kind::kBool;
      v.boolean = false;
    } else if (consume_keyword("null")) {
      v.kind = Value::Kind::kNull;
    } else {
      const std::size_t start = pos_;
      if (pos_ < src_.size() && (src_[pos_] == '-' || src_[pos_] == '+')) {
        ++pos_;
      }
      while (pos_ < src_.size() &&
             (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '.' || src_[pos_] == 'e' || src_[pos_] == 'E' ||
              src_[pos_] == '+' || src_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ == start) fail("expected JSON value");
      const std::string_view text(src_.data() + start, pos_ - start);
      double value = 0.0;
      const auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), value);
      if (ec != std::errc{} || ptr != text.data() + text.size()) {
        fail("malformed number");
      }
      v.kind = Value::Kind::kNumber;
      v.number = value;
    }
    --depth_;
    return v;
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Value parse(const std::string& src) { return Parser(src).parse(); }

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quote(const std::string& s) { return "\"" + escape(s) + "\""; }

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc{}) return "0";
  return std::string(buf, p);
}

}  // namespace perfknow::json
