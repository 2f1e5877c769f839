#include "server/wire.hpp"

#include <array>

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

Request parse_request(const std::string& line) {
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
  if (const json::Value* params = doc.find("params"); params != nullptr) {
    if (params->kind != json::Value::Kind::kObject &&
        params->kind != json::Value::Kind::kNull) {
      throw WireError(ErrorCode::kBadRequest,
                      "request \"params\" must be an object");
    }
    req.params = *params;
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

int b64_value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}
}  // namespace

std::string base64_encode(std::string_view bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  std::size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    const unsigned v = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8) |
                       static_cast<unsigned char>(bytes[i + 2]);
    out += kB64[(v >> 18) & 63];
    out += kB64[(v >> 12) & 63];
    out += kB64[(v >> 6) & 63];
    out += kB64[v & 63];
  }
  const std::size_t rest = bytes.size() - i;
  if (rest == 1) {
    const unsigned v = static_cast<unsigned char>(bytes[i]) << 16;
    out += kB64[(v >> 18) & 63];
    out += kB64[(v >> 12) & 63];
    out += "==";
  } else if (rest == 2) {
    const unsigned v = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8);
    out += kB64[(v >> 18) & 63];
    out += kB64[(v >> 12) & 63];
    out += kB64[(v >> 6) & 63];
    out += '=';
  }
  return out;
}

std::string base64_decode(std::string_view text) {
  std::string out;
  out.reserve(text.size() / 4 * 3);
  unsigned acc = 0;
  int bits = 0;
  std::size_t pad = 0;
  for (const char c : text) {
    if (c == '\n' || c == '\r') continue;
    if (c == '=') {
      ++pad;
      continue;
    }
    if (pad > 0) {
      throw WireError(ErrorCode::kBadRequest,
                      "base64 body: data after '=' padding");
    }
    const int v = b64_value(c);
    if (v < 0) {
      throw WireError(ErrorCode::kBadRequest,
                      "base64 body: invalid character '" +
                          std::string(1, c) + "'");
    }
    acc = (acc << 6) | static_cast<unsigned>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out += static_cast<char>((acc >> bits) & 0xFF);
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
  return out;
}

}  // namespace perfknow::server::wire
