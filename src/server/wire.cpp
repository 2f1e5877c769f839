#include "server/wire.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "telemetry/telemetry.hpp"

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
  // Counted so tests can check that each byte is searched once.
  static telemetry::Counter& searched =
      telemetry::counter("wire.line.scanned");
  const std::size_t from = scanned_;
  searched.add(size_ - from);
  const void* nl = std::memchr(buf_.data() + from, '\n', size_ - from);
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

std::string_view LineBuffer::take(std::size_t n) {
  n = std::min(n, pending());
  const std::string_view bytes(buf_.data() + start_, n);
  start_ += n;
  scanned_ = std::max(scanned_, start_);
  return bytes;
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
    req.params = std::move(*params);
  }
  return req;
}

std::optional<std::uint64_t> body_length(const Request& req,
                                         std::uint64_t cap) {
  const json::Value* n = req.params.find("body_bytes");
  if (n == nullptr) return std::nullopt;
  // Integers up to 2^53 are exact in a double; a cap is far below that.
  if (n->kind != json::Value::Kind::kNumber || !(n->number >= 0.0) ||
      n->number > 9007199254740992.0 || n->number != std::floor(n->number)) {
    throw WireError(ErrorCode::kBadRequest,
                    "request params.body_bytes must be a non-negative "
                    "integer byte count");
  }
  const auto bytes = static_cast<std::uint64_t>(n->number);
  if (bytes > cap) {
    throw WireError(ErrorCode::kBadRequest,
                    "request params.body_bytes of " + std::to_string(bytes) +
                        " exceeds the " + std::to_string(cap) +
                        "-byte cap");
  }
  return bytes;
}

void check_framing(const Request& req) {
  const bool framed = req.params.find("body_bytes") != nullptr;
  if (req.method == "upload" && !framed) {
    throw WireError(ErrorCode::kBadRequest,
                    "upload: params.body_bytes must give the byte count of "
                    "the trial body that follows the request line");
  }
  if (framed && req.method != "upload") {
    throw WireError(ErrorCode::kBadRequest,
                    "method '" + req.method + "' takes no framed body");
  }
}

std::string short_body_message(std::uint64_t expected,
                               std::uint64_t received) {
  return "framed body: expected " + std::to_string(expected) +
         " bytes, received " + std::to_string(received) +
         " before the connection closed";
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

}  // namespace perfknow::server::wire
