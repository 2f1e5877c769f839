// The perfknow.api/1 wire envelope: the versioned request/response
// protocol `pkx serve` speaks over its local socket.
//
// Framing is one JSON object per LF-terminated line in each direction.
// Every message carries the protocol version under "api" so a client
// and daemon from different releases fail loudly instead of
// misinterpreting each other.
//
//   request:  {"api":"perfknow.api/1","id":"7","method":"analyze",
//              "params":{...}}
//   framed:   {"api":"perfknow.api/1","id":"8","method":"upload",
//              "params":{...,"body_bytes":N}}
//             <exactly N raw bytes>               (no terminator)
//   response: {"api":"perfknow.api/1","id":"7","event":"diagnosis",
//              "data":{...}}                      (zero or more)
//             {"api":"perfknow.api/1","id":"7","event":"explanation",
//              "data":<perfknow.explanation/1>}   (zero or more)
//             {"api":"perfknow.api/1","id":"7","event":"result",
//              "data":{...}}                      (terminal, success)
//             {"api":"perfknow.api/1","id":"7","event":"error",
//              "error":{"code":"not_found","message":"..."}}
//                                                 (terminal, failure)
//
// A request's response stream is the ordered sequence of lines echoing
// its id, ending with exactly one "result" or "error" line — diagnoses
// and proof trees stream incrementally before the terminal line.
// Responses to different in-flight requests of one connection may
// interleave; the id is the correlator.
//
// A request whose params carry "body_bytes" is followed by that many raw
// bytes (an upload's trial file, as it is on disk) and the next request
// line starts right after them. body_length() validates N; a line whose
// N is malformed or over the cap leaves the stream unframeable, so the
// daemon answers bad_request and closes the connection. An upload's
// trial bytes travel only this way, and every request line itself is
// capped at kMaxLineBytes.
//
// The error taxonomy mirrors the pk::Error hierarchy plus the
// server-side admission verdicts, and maps onto the pkx exit-code
// contract (invalid_argument -> 2, everything else -> 1) so driving an
// analysis over the socket fails exactly like running it in-process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/json.hpp"
#include "provenance/explanation.hpp"
#include "rules/diagnosis.hpp"

namespace perfknow::server::wire {

/// Protocol identifier carried by every request and response line.
inline constexpr std::string_view kApi = "perfknow.api/1";

/// The longest request line a daemon reads, without its '\n'. Bodies
/// travel framed after the line, so no legitimate request comes near it;
/// a longer line is a flood, refused and its connection closed.
inline constexpr std::size_t kMaxLineBytes = std::size_t{64} << 10;

/// Everything that can go wrong with a request, as wire-stable codes.
enum class ErrorCode {
  kBadRequest,          ///< unparseable line / malformed envelope
  kUnsupportedVersion,  ///< "api" present but not perfknow.api/1
  kUnknownMethod,       ///< method not in the registry
  kInvalidArgument,     ///< InvalidArgumentError (usage — pkx exit 2)
  kNotFound,            ///< NotFoundError (unknown trial/app/...)
  kParse,               ///< ParseError from an ingest front end
  kEval,                ///< EvalError from rules/scripts
  kIo,                  ///< IoError
  kOverloaded,          ///< admission control: queue full (backpressure)
  kBudgetExceeded,      ///< per-client byte budget exhausted
  kShuttingDown,        ///< server is draining; retry against a new one
  kInternal,            ///< anything else (std::exception)
};

/// The stable wire spelling ("not_found", "overloaded", ...).
[[nodiscard]] std::string_view to_string(ErrorCode code);
/// Inverse of to_string; kInternal for unknown spellings.
[[nodiscard]] ErrorCode error_code(std::string_view name);

/// Maps a thrown perfknow error onto the taxonomy: the dynamic type
/// decides (WireError -> its own code, InvalidArgumentError ->
/// kInvalidArgument, NotFoundError -> kNotFound, ParseError -> kParse,
/// EvalError -> kEval, IoError -> kIo, anything else -> kInternal).
[[nodiscard]] ErrorCode error_code(const std::exception_ptr& e);

/// The pkx exit-code contract for an error received over the wire:
/// kInvalidArgument is a usage error (2), everything else is a
/// perfknow error (1).
[[nodiscard]] int exit_code(ErrorCode code);

/// A malformed or rejected message, thrown by parse_request,
/// body_length and check_framing. Carries the taxonomy code the error
/// line should use.
class WireError : public Error {
 public:
  WireError(ErrorCode code, const std::string& what)
      : Error(what), code_(code) {}
  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// One parsed request envelope.
struct Request {
  std::string id;      ///< echoed on every response line; may be empty
  std::string method;  ///< e.g. "upload", "analyze", "diff"
  json::Value params;  ///< the "params" object; kNull when absent
  /// The raw bytes that followed a framed line (params.body_bytes of
  /// them); empty for an unframed request.
  std::string body;
};

/// Frames a received byte stream into LF-terminated lines, for both ends
/// of the socket. Each byte is searched for the terminator once, however
/// many reads a long line arrives in, so framing an upload line costs
/// time linear in its length.
class LineBuffer {
 public:
  /// Room for `n` more received bytes; commit() says how many arrived.
  /// Invalidates lines handed out earlier.
  [[nodiscard]] char* prepare(std::size_t n);
  void commit(std::size_t n) { size_ += n; }
  /// The next complete line, without its '\n'; false when none is
  /// complete yet. `line` views the buffer until the next prepare().
  bool next_line(std::string_view& line);
  /// Received bytes not yet returned as a line.
  [[nodiscard]] std::size_t pending() const noexcept { return size_ - start_; }
  /// Consumes up to `n` pending bytes as raw data, not lines (a framed
  /// body that arrived with its request line). The view lasts until the
  /// next prepare().
  std::string_view take(std::size_t n);

 private:
  std::string buf_;
  std::size_t size_ = 0;     // bytes received into buf_
  std::size_t start_ = 0;    // first byte not yet returned as a line
  std::size_t scanned_ = 0;  // [start_, scanned_) holds no '\n'
};

/// Parses one request line. Throws WireError (kBadRequest on JSON or
/// envelope-shape problems, kUnsupportedVersion on a version mismatch).
/// A numeric id is normalized to its shortest decimal rendering.
[[nodiscard]] Request parse_request(std::string_view line);

/// How many raw body bytes follow `req`'s line: params.body_bytes, or
/// nullopt for an unframed request. Throws WireError(kBadRequest) when
/// body_bytes is not a non-negative integer or exceeds `cap`; the bytes
/// after such a line cannot be framed.
[[nodiscard]] std::optional<std::uint64_t> body_length(const Request& req,
                                                       std::uint64_t cap);

/// Throws WireError(kBadRequest) unless `req` is framed exactly when it
/// is an upload: an upload must announce its body with
/// params.body_bytes, and no other method takes one. The line itself was
/// well framed, so the connection can go on.
void check_framing(const Request& req);

/// The located error for a framed body cut short: "framed body: expected
/// N bytes, received K before the connection closed".
[[nodiscard]] std::string short_body_message(std::uint64_t expected,
                                             std::uint64_t received);

// ---- response builders -------------------------------------------------
// Each returns one complete line WITHOUT the trailing newline; `data`
// arguments must already be rendered JSON (an object or value).

/// {"api":...,"id":...,"event":<event>,"data":<data>}
[[nodiscard]] std::string event_line(const std::string& id,
                                     std::string_view event,
                                     const std::string& data);
/// The terminal success line: event_line(id, "result", data).
[[nodiscard]] std::string result_line(const std::string& id,
                                      const std::string& data);
/// The terminal failure line with the taxonomy code and message.
[[nodiscard]] std::string error_line(const std::string& id, ErrorCode code,
                                     const std::string& message);
/// A streamed diagnosis: every Diagnosis field plus the canonical
/// to_string() rendering under "text".
[[nodiscard]] std::string diagnosis_line(const std::string& id,
                                         const rules::Diagnosis& d);
/// A streamed proof tree: the perfknow.explanation/1 object under
/// "data" (provenance::to_json), so explanations cross the wire in the
/// same schema pkx explain --json writes.
[[nodiscard]] std::string explanation_line(
    const std::string& id, const provenance::Explanation& e);

}  // namespace perfknow::server::wire
