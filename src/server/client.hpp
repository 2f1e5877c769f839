// Blocking perfknow.api/1 client over a local socket.
//
// The counterpart of server.hpp for in-process callers: `pkx client`,
// the CI server-smoke job, and tests/test_server.cpp all drive the
// daemon through this class instead of hand-rolling socket code.
//
//   Client c("/tmp/pkx.sock");
//   auto r = c.call("analyze", "{\"application\":\"a\",...}");
//   for (const auto& ev : r.events)  // streamed diagnoses/explanations
//     ...
//   if (!r.ok()) exit(wire::exit_code(r.error));
//
// call() assigns ids and collects the response stream for that id up to
// its terminal line. Raw send_line()/send_bytes()/read_line() stay
// public for tests that pipeline many requests before reading anything
// (the saturation and concurrency tests) or frame bodies by hand.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "server/wire.hpp"

namespace perfknow::server {

class Client {
 public:
  /// Connects; throws IoError when the socket cannot be reached.
  explicit Client(const std::filesystem::path& socket_path);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One streamed line of a response, minus the envelope.
  struct Event {
    std::string event;  ///< "diagnosis", "explanation", ...
    std::string data;   ///< the raw JSON under "data"
    std::string line;   ///< the whole line as received (byte-exact)
  };

  struct Response {
    std::vector<Event> events;  ///< everything before the terminal line
    std::string result;  ///< raw JSON of the "result" data; empty on error
    wire::ErrorCode error = wire::ErrorCode::kInternal;
    std::string error_message;
    bool is_error = false;
    [[nodiscard]] bool ok() const noexcept { return !is_error; }
  };

  /// Sends one request (params must be a rendered JSON object, "{}" for
  /// none) and blocks until its terminal "result"/"error" line.
  /// Responses for other ids that arrive meanwhile are parked and
  /// consumed by their own call()/collect(). Throws IoError when the
  /// server hangs up mid-response.
  Response call(const std::string& method,
                const std::string& params_json = "{}");

  /// Sends a request without waiting; returns the assigned id. Pair
  /// with collect() to pipeline many requests on one connection.
  std::string send(const std::string& method,
                   const std::string& params_json = "{}");
  /// Blocks until the terminal line for `id` (parked lines included).
  Response collect(const std::string& id);

  /// Uploads `file` into application/experiment as a framed body: the
  /// request line carries "body_bytes" and the file's bytes follow it
  /// unencoded. Non-empty `version` stores it as the next history
  /// version (put_version semantics, with optional explicit
  /// predecessor).
  Response upload_file(const std::string& application,
                       const std::string& experiment,
                       const std::filesystem::path& file,
                       const std::string& version = "",
                       const std::string& predecessor = "");

  // ---- raw framing (pipelining tests) ----------------------------------
  void send_line(const std::string& line);
  /// Sends bytes as they are, with no terminator (a framed body).
  void send_bytes(std::string_view bytes);
  /// Half-closes the connection: the server sees end of input, and
  /// responses can still be read.
  void shutdown_send();
  /// Next line from the socket (parked lines are NOT consulted); throws
  /// IoError on EOF.
  std::string read_line();

 private:
  int fd_ = -1;
  wire::LineBuffer buffer_;
  std::uint64_t next_id_ = 1;
  /// Lines for ids other than the one being collected, in arrival order.
  std::vector<std::string> parked_;
};

}  // namespace perfknow::server
