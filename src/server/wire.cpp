#include "server/wire.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <utility>

namespace perfknow::server::wire {

namespace {

/// The envelope prefix every response line shares.
std::string line_head(const std::string& id) {
  return "{\"api\":" + json::quote(std::string(kApi)) +
         ",\"id\":" + json::quote(id);
}

}  // namespace

std::string_view to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnsupportedVersion: return "unsupported_version";
    case ErrorCode::kUnknownMethod: return "unknown_method";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kParse: return "parse_error";
    case ErrorCode::kEval: return "eval_error";
    case ErrorCode::kIo: return "io_error";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kBudgetExceeded: return "budget_exceeded";
    case ErrorCode::kShuttingDown: return "shutting_down";
    case ErrorCode::kInternal: break;
  }
  return "internal";
}

ErrorCode error_code(std::string_view name) {
  static constexpr std::array<ErrorCode, 12> kCodes = {
      ErrorCode::kBadRequest,      ErrorCode::kUnsupportedVersion,
      ErrorCode::kUnknownMethod,   ErrorCode::kInvalidArgument,
      ErrorCode::kNotFound,        ErrorCode::kParse,
      ErrorCode::kEval,            ErrorCode::kIo,
      ErrorCode::kOverloaded,      ErrorCode::kBudgetExceeded,
      ErrorCode::kShuttingDown,    ErrorCode::kInternal,
  };
  for (const ErrorCode c : kCodes) {
    if (to_string(c) == name) return c;
  }
  return ErrorCode::kInternal;
}

ErrorCode error_code(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const WireError& w) {
    return w.code();
  } catch (const InvalidArgumentError&) {
    return ErrorCode::kInvalidArgument;
  } catch (const NotFoundError&) {
    return ErrorCode::kNotFound;
  } catch (const ParseError&) {
    return ErrorCode::kParse;
  } catch (const EvalError&) {
    return ErrorCode::kEval;
  } catch (const IoError&) {
    return ErrorCode::kIo;
  } catch (...) {
    return ErrorCode::kInternal;
  }
}

int exit_code(ErrorCode code) {
  return code == ErrorCode::kInvalidArgument ? 2 : 1;
}

char* LineBuffer::prepare(std::size_t n) {
  if (start_ > 0) {
    // Only the tail of a partial line remains; move it to the front.
    std::memmove(buf_.data(), buf_.data() + start_, size_ - start_);
    size_ -= start_;
    scanned_ -= start_;
    start_ = 0;
  }
  if (buf_.size() < size_ + n) {
    buf_.resize(std::max(size_ + n, 2 * buf_.size()));
  }
  return buf_.data() + size_;
}

bool LineBuffer::next_line(std::string_view& line) {
  const void* nl =
      std::memchr(buf_.data() + scanned_, '\n', size_ - scanned_);
  if (nl == nullptr) {
    scanned_ = size_;
    return false;
  }
  const auto end =
      static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.data());
  line = std::string_view(buf_.data() + start_, end - start_);
  start_ = scanned_ = end + 1;
  return true;
}

Request parse_request(std::string_view line) {
  json::Value doc;
  try {
    doc = json::parse(line);
  } catch (const ParseError& e) {
    throw WireError(ErrorCode::kBadRequest,
                    std::string("malformed request line: ") + e.what());
  }
  if (doc.kind != json::Value::Kind::kObject) {
    throw WireError(ErrorCode::kBadRequest,
                    "request must be a JSON object");
  }
  const json::Value* api = doc.find("api");
  if (api == nullptr || api->kind != json::Value::Kind::kString) {
    throw WireError(ErrorCode::kBadRequest,
                    "request has no \"api\" version string");
  }
  if (api->text != kApi) {
    throw WireError(ErrorCode::kUnsupportedVersion,
                    "unsupported api version '" + api->text +
                        "' (this server speaks " + std::string(kApi) + ")");
  }

  Request req;
  if (const json::Value* id = doc.find("id"); id != nullptr) {
    if (id->kind == json::Value::Kind::kString) {
      req.id = id->text;
    } else if (id->kind == json::Value::Kind::kNumber) {
      req.id = json::number(id->number);
    } else if (id->kind != json::Value::Kind::kNull) {
      throw WireError(ErrorCode::kBadRequest,
                      "request \"id\" must be a string or number");
    }
  }
  const json::Value* method = doc.find("method");
  if (method == nullptr || method->kind != json::Value::Kind::kString ||
      method->text.empty()) {
    throw WireError(ErrorCode::kBadRequest,
                    "request has no \"method\" string");
  }
  req.method = method->text;
  if (json::Value* params = doc.find("params"); params != nullptr) {
    if (params->kind != json::Value::Kind::kObject &&
        params->kind != json::Value::Kind::kNull) {
      throw WireError(ErrorCode::kBadRequest,
                      "request \"params\" must be an object");
    }
    // Moved, not copied: an upload's params hold its multi-MB body.
    req.params = std::move(*params);
  }
  return req;
}

std::string event_line(const std::string& id, std::string_view event,
                       const std::string& data) {
  return line_head(id) + ",\"event\":" + json::quote(std::string(event)) +
         ",\"data\":" + data + "}";
}

std::string result_line(const std::string& id, const std::string& data) {
  return event_line(id, "result", data);
}

std::string error_line(const std::string& id, ErrorCode code,
                       const std::string& message) {
  return line_head(id) +
         ",\"event\":\"error\",\"error\":{\"code\":" +
         json::quote(std::string(to_string(code))) +
         ",\"message\":" + json::quote(message) + "}}";
}

std::string diagnosis_line(const std::string& id,
                           const rules::Diagnosis& d) {
  std::string data = "{\"rule\":" + json::quote(d.rule) +
                     ",\"problem\":" + json::quote(d.problem) +
                     ",\"event\":" + json::quote(d.event) +
                     ",\"metric\":" + json::quote(d.metric) +
                     ",\"severity\":" + json::number(d.severity) +
                     ",\"message\":" + json::quote(d.message) +
                     ",\"recommendation\":" + json::quote(d.recommendation) +
                     ",\"text\":" + json::quote(d.to_string()) + "}";
  return event_line(id, "diagnosis", data);
}

std::string explanation_line(const std::string& id,
                             const provenance::Explanation& e) {
  // to_json's rendering ends in a newline (its file format); the wire
  // framing is one line per message, so it must come off here.
  std::string data = provenance::to_json(e);
  while (!data.empty() && (data.back() == '\n' || data.back() == '\r')) {
    data.pop_back();
  }
  return event_line(id, "explanation", data);
}

// ---- base64 ------------------------------------------------------------

namespace {
constexpr char kB64[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// Decode table: the 6-bit value of each alphabet byte; the other codes
// mark the bytes the decoder treats specially.
constexpr std::uint8_t kSkip = 64;     // '\n', '\r': ignored
constexpr std::uint8_t kPad = 65;      // '='
constexpr std::uint8_t kInvalid = 66;  // anything else

constexpr std::array<std::uint8_t, 256> decode_table() {
  std::array<std::uint8_t, 256> t{};
  for (auto& v : t) v = kInvalid;
  for (std::uint8_t i = 0; i < 64; ++i) {
    t[static_cast<unsigned char>(kB64[i])] = i;
  }
  t['\n'] = kSkip;
  t['\r'] = kSkip;
  t['='] = kPad;
  return t;
}
constexpr std::array<std::uint8_t, 256> kDecode = decode_table();
}  // namespace

std::string base64_encode(std::string_view bytes) {
  std::string out((bytes.size() + 2) / 3 * 4, '\0');
  char* o = out.data();
  std::size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    const unsigned v = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8) |
                       static_cast<unsigned char>(bytes[i + 2]);
    *o++ = kB64[(v >> 18) & 63];
    *o++ = kB64[(v >> 12) & 63];
    *o++ = kB64[(v >> 6) & 63];
    *o++ = kB64[v & 63];
  }
  const std::size_t rest = bytes.size() - i;
  if (rest == 1) {
    const unsigned v = static_cast<unsigned char>(bytes[i]) << 16;
    *o++ = kB64[(v >> 18) & 63];
    *o++ = kB64[(v >> 12) & 63];
    *o++ = '=';
    *o++ = '=';
  } else if (rest == 2) {
    const unsigned v = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8);
    *o++ = kB64[(v >> 18) & 63];
    *o++ = kB64[(v >> 12) & 63];
    *o++ = kB64[(v >> 6) & 63];
    *o++ = '=';
  }
  return out;
}

std::string base64_decode(std::string_view text) {
  std::string out(text.size() / 4 * 3 + 3, '\0');
  char* o = out.data();
  unsigned acc = 0;
  int bits = 0;
  std::size_t pad = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    // Whole quads of alphabet bytes on a group boundary: three bytes
    // out, no per-byte bookkeeping.
    if (bits == 0 && pad == 0 && i + 4 <= text.size()) {
      const unsigned a = kDecode[static_cast<unsigned char>(text[i])];
      const unsigned b = kDecode[static_cast<unsigned char>(text[i + 1])];
      const unsigned c = kDecode[static_cast<unsigned char>(text[i + 2])];
      const unsigned d = kDecode[static_cast<unsigned char>(text[i + 3])];
      if ((a | b | c | d) < 64) {
        const unsigned v = (a << 18) | (b << 12) | (c << 6) | d;
        *o++ = static_cast<char>(v >> 16);
        *o++ = static_cast<char>((v >> 8) & 0xFF);
        *o++ = static_cast<char>(v & 0xFF);
        i += 4;
        continue;
      }
    }
    const char ch = text[i++];
    const unsigned v = kDecode[static_cast<unsigned char>(ch)];
    if (v == kSkip) continue;
    if (v == kPad) {
      ++pad;
      continue;
    }
    if (pad > 0) {
      throw WireError(ErrorCode::kBadRequest,
                      "base64 body: data after '=' padding");
    }
    if (v == kInvalid) {
      throw WireError(ErrorCode::kBadRequest,
                      "base64 body: invalid character '" +
                          std::string(1, ch) + "'");
    }
    acc = (acc << 6) | v;
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      *o++ = static_cast<char>((acc >> bits) & 0xFF);
    }
  }
  // A dangling 6-bit group (non-padding length of 1 mod 4, bits == 6)
  // can never encode a whole byte and is truncated input even when the
  // leftover bits happen to be zero.
  if (pad > 2 || bits == 6 ||
      (bits != 0 && (acc & ((1u << bits) - 1)) != 0)) {
    throw WireError(ErrorCode::kBadRequest,
                    "base64 body: truncated or over-padded input");
  }
  out.resize(static_cast<std::size_t>(o - out.data()));
  return out;
}

}  // namespace perfknow::server::wire
