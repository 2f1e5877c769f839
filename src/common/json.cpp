#include "common/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::json {

// ---- tokenizer -----------------------------------------------------------

Tokenizer::~Tokenizer() {
  // Counted so tests can check that the readers scan their input in
  // linear time.
  static telemetry::Counter& scanned = telemetry::counter("text.scanned");
  scanned.add(pos_ - origin_);
}

std::size_t number_end(std::string_view src, std::size_t pos) noexcept {
  while (pos < src.size()) {
    const char c = src[pos];
    if (!((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-')) {
      break;
    }
    ++pos;
  }
  return pos;
}

bool parse_number(std::string_view text, double& out) noexcept {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

void Tokenizer::fail(const std::string& msg) const {
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

void Tokenizer::skip_ws() {
  while (pos_ < src_.size() &&
         (src_[pos_] == ' ' || src_[pos_] == '\t' || src_[pos_] == '\n' ||
          src_[pos_] == '\r')) {
    ++pos_;
  }
}

char Tokenizer::peek() {
  skip_ws();
  if (pos_ >= src_.size()) fail("unexpected end of JSON");
  return src_[pos_];
}

Tokenizer::Token Tokenizer::next() {
  for (;;) {
    switch (state_) {
      case State::kValue:
        return read_value();
      case State::kArrayFirst:
        if (peek() == ']') {
          start_ = pos_++;
          close();
          return Token::kEndArray;
        }
        state_ = State::kValue;
        return read_value();
      case State::kObjectFirst:
        if (peek() == '}') {
          start_ = pos_++;
          close();
          return Token::kEndObject;
        }
        [[fallthrough]];
      case State::kObjectKey:
        skip_ws();
        if (pos_ >= src_.size()) fail("unterminated object");
        start_ = pos_;
        read_string();
        skip_ws();
        if (pos_ >= src_.size() || src_[pos_] != ':') fail("expected ':'");
        ++pos_;
        state_ = State::kValue;
        return Token::kKey;
      case State::kAfterValue: {
        if (depth_ == 0) {
          state_ = State::kDone;
          continue;
        }
        const char d = peek();
        start_ = pos_++;
        if (object_[depth_ - 1]) {
          if (d == '}') {
            close();
            return Token::kEndObject;
          }
          if (d != ',') fail("expected ',' or '}'");
          state_ = State::kObjectKey;
        } else {
          if (d == ']') {
            close();
            return Token::kEndArray;
          }
          if (d != ',') fail("expected ',' or ']'");
          state_ = State::kValue;
        }
        continue;
      }
      case State::kDone:
        skip_ws();
        if (pos_ != src_.size()) fail("trailing characters after JSON value");
        start_ = pos_;
        return Token::kEnd;
    }
  }
}

Tokenizer::Token Tokenizer::read_value() {
  if (depth_ + 1 > kMaxDepth) fail("JSON nested too deeply");
  const char c = peek();
  start_ = pos_;
  if (c == '{' || c == '[') {
    ++pos_;
    object_[depth_++] = c == '{';
    state_ = c == '{' ? State::kObjectFirst : State::kArrayFirst;
    return c == '{' ? Token::kBeginObject : Token::kBeginArray;
  }
  state_ = State::kAfterValue;
  if (c == '"') {
    read_string();
    return Token::kString;
  }
  const std::string_view rest = src_.substr(pos_);
  if (rest.substr(0, 4) == "true") {
    pos_ += 4;
    return Token::kTrue;
  }
  if (rest.substr(0, 5) == "false") {
    pos_ += 5;
    return Token::kFalse;
  }
  if (rest.substr(0, 4) == "null") {
    pos_ += 4;
    return Token::kNull;
  }
  read_number();
  return Token::kNumber;
}

void Tokenizer::read_number() {
  pos_ = number_end(src_, pos_);
  if (pos_ == start_) fail("expected JSON value");
  if (!parse_number(src_.substr(start_, pos_ - start_), number_)) {
    fail("malformed number");
  }
}

void Tokenizer::read_string() {
  if (src_[pos_] != '"') fail("expected string");
  ++pos_;
  // Fast path: no escapes, so the text is a view of the input.
  const std::size_t begin = pos_;
  while (pos_ < src_.size() && src_[pos_] != '"' && src_[pos_] != '\\') {
    ++pos_;
  }
  if (pos_ >= src_.size()) fail("unterminated string");
  if (src_[pos_] == '"') {
    text_ = src_.substr(begin, pos_ - begin);
    ++pos_;
    return;
  }
  unescaped_.assign(src_.data() + begin, pos_ - begin);
  while (true) {
    if (pos_ >= src_.size()) fail("unterminated string");
    const char c = src_[pos_++];
    if (c == '"') break;
    if (c != '\\') {
      unescaped_ += c;
      continue;
    }
    if (pos_ >= src_.size()) fail("unterminated escape");
    const char e = src_[pos_++];
    switch (e) {
      case '"': unescaped_ += '"'; break;
      case '\\': unescaped_ += '\\'; break;
      case '/': unescaped_ += '/'; break;
      case 'n': unescaped_ += '\n'; break;
      case 't': unescaped_ += '\t'; break;
      case 'r': unescaped_ += '\r'; break;
      case 'b': unescaped_ += '\b'; break;
      case 'f': unescaped_ += '\f'; break;
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
          unescaped_ += static_cast<char>(code);
        } else if (code < 0x800) {
          unescaped_ += static_cast<char>(0xC0 | (code >> 6));
          unescaped_ += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          unescaped_ += static_cast<char>(0xE0 | (code >> 12));
          unescaped_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          unescaped_ += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: fail("unknown escape");
    }
  }
  text_ = unescaped_;
}

void Tokenizer::skip(Token current) {
  if (current == Token::kBeginObject || current == Token::kBeginArray) {
    skip_to(depth_ - 1);
  }
}

void Tokenizer::skip_to(std::size_t depth) {
  while (depth_ > depth) (void)next();
}

// ---- DOM builder -----------------------------------------------------------

namespace {

Value build(Tokenizer& t, Tokenizer::Token tok) {
  using Token = Tokenizer::Token;
  Value v;
  switch (tok) {
    case Token::kBeginObject:
      v.kind = Value::Kind::kObject;
      while ((tok = t.next()) != Token::kEndObject) {
        std::string key(t.text());
        v.members.emplace_back(std::move(key), build(t, t.next()));
      }
      // Drop the growth slack: a large document is mostly small
      // objects, and their spare capacity would dominate its memory.
      v.members.shrink_to_fit();
      break;
    case Token::kBeginArray:
      v.kind = Value::Kind::kArray;
      while ((tok = t.next()) != Token::kEndArray) {
        v.items.push_back(build(t, tok));
      }
      v.items.shrink_to_fit();
      break;
    case Token::kString:
      v.kind = Value::Kind::kString;
      v.text = t.text();
      break;
    case Token::kNumber:
      v.kind = Value::Kind::kNumber;
      v.number = t.number();
      break;
    case Token::kTrue:
    case Token::kFalse:
      v.kind = Value::Kind::kBool;
      v.boolean = tok == Token::kTrue;
      break;
    default:  // kNull; kKey / kEnd / closes cannot start a value
      break;
  }
  return v;
}

}  // namespace

Value parse(std::string_view src) {
  Tokenizer t(src);
  Value v = build(t, t.next());
  (void)t.next();  // kEnd, or throws on trailing characters
  return v;
}

// ---- writer ------------------------------------------------------------------

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
