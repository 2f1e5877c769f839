#include "server/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "io/format.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::server {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Required string member of a params object; throws the field-naming
/// error the wire maps to invalid_argument.
const std::string& required_string(const json::Value& params,
                                   const std::string& key,
                                   const std::string& method) {
  const json::Value* v = params.find(key);
  if (v == nullptr || v->kind != json::Value::Kind::kString ||
      v->text.empty()) {
    throw InvalidArgumentError(method + ": params." + key +
                               " must be a non-empty string");
  }
  return v->text;
}

std::string optional_string(const json::Value& params,
                            const std::string& key) {
  const json::Value* v = params.find(key);
  if (v == nullptr || v->kind != json::Value::Kind::kString) return "";
  return v->text;
}

/// Optional numeric member of a params object; `fallback` when absent.
/// Returns nullopt when present but not a number (caller rejects).
std::optional<double> optional_number(const json::Value& params,
                                      const std::string& key,
                                      double fallback) {
  const json::Value* v = params.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != json::Value::Kind::kNumber) return std::nullopt;
  return v->number;
}

/// The stats object body shared by the `stats` result and each `watch`
/// event (same keys, so clients render both with one code path).
std::string stats_json(const ServerStats& s) {
  return "{\"connections\":" + std::to_string(s.connections) +
         ",\"requests\":" + std::to_string(s.requests) +
         ",\"executed\":" + std::to_string(s.executed) +
         ",\"rejected_overload\":" + std::to_string(s.rejected_overload) +
         ",\"rejected_budget\":" + std::to_string(s.rejected_budget) +
         ",\"uploads\":" + std::to_string(s.uploads) +
         ",\"queue_depth\":" + std::to_string(s.queue_depth) + "}";
}

provenance::ProvenanceMode provenance_mode(const json::Value& params,
                                           const std::string& method) {
  const std::string mode = optional_string(params, "provenance");
  if (mode.empty() || mode == "full") {
    return provenance::ProvenanceMode::kFull;
  }
  if (mode == "rules") return provenance::ProvenanceMode::kRules;
  if (mode == "off") return provenance::ProvenanceMode::kOff;
  throw InvalidArgumentError(method +
                             ": params.provenance must be 'off', 'rules', "
                             "or 'full', got '" +
                             mode + "'");
}

}  // namespace

// ---- options -----------------------------------------------------------

void ServerOptions::validate() const {
  if (socket_path.empty()) {
    throw InvalidArgumentError(
        "ServerOptions.socket_path: must not be empty");
  }
  // sun_path is a fixed 108-byte array including the terminator.
  if (socket_path.string().size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw InvalidArgumentError(
        "ServerOptions.socket_path: '" + socket_path.string() +
        "' exceeds the AF_UNIX path limit of " +
        std::to_string(sizeof(sockaddr_un{}.sun_path) - 1) + " bytes");
  }
  if (workers == 0) {
    throw InvalidArgumentError("ServerOptions.workers: must be > 0");
  }
  if (queue_limit == 0) {
    throw InvalidArgumentError("ServerOptions.queue_limit: must be > 0");
  }
  if (client_queue_limit == 0) {
    throw InvalidArgumentError(
        "ServerOptions.client_queue_limit: must be > 0");
  }
  if (!repository_dir.empty() &&
      !std::filesystem::is_directory(repository_dir)) {
    throw InvalidArgumentError("ServerOptions.repository_dir: '" +
                               repository_dir.string() +
                               "' is not a directory");
  }
}

// ---- lifecycle ---------------------------------------------------------

Server::Server(ServerOptions options) : options_(std::move(options)) {
  options_.validate();
  // The serving counters feed "stats" and "selfdiagnose".
  telemetry::set_enabled(true);
  if (!options_.repository_dir.empty()) {
    // A directory without an index (a fresh one, say) starts an empty
    // repository there; uploads then commit into it.
    const auto index = options_.repository_dir / "index.tsv";
    repo_ = std::filesystem::exists(std::filesystem::symlink_status(index))
                ? perfdmf::Repository::attach(options_.repository_dir,
                                              options_.cache_budget)
                : perfdmf::Repository::create(options_.repository_dir,
                                              options_.cache_budget);
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw IoError("pkx serve: socket(): " +
                  std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options_.socket_path.c_str());  // replace a stale socket
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("pkx serve: cannot bind '" +
                  options_.socket_path.string() + "': " + why);
  }
  if (::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw IoError("pkx serve: listen(): " + why);
  }

  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stopping_.exchange(true)) {
    // Another thread is (or was) stopping; just wait for it.
    wait();
    return;
  }
  // Unblock the accept loop.
  if (const int fd = listen_fd_.exchange(-1); fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Fail queued-but-unstarted work, then wake and join the workers.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (Job& job : queue_) {
      send_error(*job.conn, job.request.id, wire::ErrorCode::kShuttingDown,
                 "server is shutting down");
      job.conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
    queue_.clear();
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }

  // Watch streams poll stopping_ between events; join them before the
  // readers so no watcher writes into a connection being torn down.
  std::vector<std::thread> watchers;
  {
    std::lock_guard<std::mutex> lock(watchers_mutex_);
    watchers = std::move(watchers_);
    watchers_.clear();
  }
  for (auto& w : watchers) {
    if (w.joinable()) w.join();
  }

  // Unblock every reader, take ownership of the live threads plus any
  // already-parked zombies, and join them all.
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const auto& conn : conns_) {
      std::lock_guard<std::mutex> wlock(conn->write_mutex);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      if (conn->reader.joinable()) {
        readers.push_back(std::move(conn->reader));
      }
    }
    for (auto& z : zombie_readers_) readers.push_back(std::move(z));
    zombie_readers_.clear();
  }
  for (auto& r : readers) {
    if (r.joinable()) r.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    // Readers close their own fd on the way out; anything still open
    // here lost that race and is closed now.
    for (const auto& conn : conns_) {
      std::lock_guard<std::mutex> wlock(conn->write_mutex);
      if (conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
      }
    }
    conns_.clear();
  }
  ::unlink(options_.socket_path.c_str());

  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stopped_.store(true);
  }
  stop_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_cv_.wait(lock, [this] { return stopped_.load(); });
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.rejected_budget = rejected_budget_.load(std::memory_order_relaxed);
  s.uploads = uploads_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.queue_depth = queue_.size();
  }
  return s;
}

// ---- socket plumbing ---------------------------------------------------

void Server::accept_loop() {
  while (!stopping_.load()) {
    reap_readers();
    const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) break;  // listen fd closed by stop()
      if (errno == EINTR) continue;
      // Transient resource pressure (fd exhaustion, aborted handshake,
      // momentary memory shortage) must not kill the accept loop — the
      // daemon would sit alive but permanently deaf. Back off briefly
      // and keep accepting.
      if (errno == EMFILE || errno == ENFILE || errno == ECONNABORTED ||
          errno == ENOMEM || errno == ENOBUFS || errno == EAGAIN) {
        static telemetry::Counter& deferred =
            telemetry::counter("server.accept_deferred");
        deferred.add();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      break;  // unrecoverable (EBADF, EINVAL, ...)
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = connections_.fetch_add(1, std::memory_order_relaxed) + 1;
    static telemetry::Counter& accepted =
        telemetry::counter("server.connections");
    accepted.add();
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    conns_.push_back(conn);
    // Assigned under conns_mutex_, which the reader must take before it
    // can touch conn->reader on exit, so the handle is always in place.
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Server::reap_readers() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    done.swap(zombie_readers_);
  }
  for (auto& t : done) {
    if (t.joinable()) t.join();
  }
}

void Server::reader_loop(ConnectionPtr conn) {
  // A body larger than the whole budget could never be admitted, so
  // announcing one closes the connection; one above only the remaining
  // budget is drained to keep the framing. Small budgets still drain up
  // to a line's worth.
  const std::uint64_t body_cap = std::max<std::uint64_t>(
      options_.client_byte_budget, wire::kMaxLineBytes);
  wire::LineBuffer buffer;
  bool overflow = false;
  bool closing = false;
  while (!stopping_.load() && !overflow && !closing) {
    const ssize_t n = ::recv(conn->fd, buffer.prepare(kChunk), kChunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed or connection shut down
    }
    buffer.commit(static_cast<std::size_t>(n));
    std::string_view line;
    while (!overflow && !closing && buffer.next_line(line)) {
      if (line.empty()) continue;
      if (line.size() > wire::kMaxLineBytes) {
        overflow = true;
        break;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      static telemetry::Counter& requests =
          telemetry::counter("server.requests");
      requests.add();
      wire::Request req;
      try {
        req = wire::parse_request(line);
      } catch (const wire::WireError& e) {
        send_error(*conn, "", e.code(), e.what());
        continue;
      }
      std::optional<std::uint64_t> body;
      try {
        body = wire::body_length(req, body_cap);
      } catch (const wire::WireError& e) {
        // Where the next request starts is unknown: stop reading.
        static telemetry::Counter& unframed =
            telemetry::counter("server.rejected.bad_frame");
        unframed.add();
        send_error(*conn, req.id, e.code(),
                   std::string(e.what()) + "; closing connection");
        closing = true;
        break;
      }
      if (body) {
        const BodyRead got = read_body(*conn, buffer, req, *body);
        if (got == BodyRead::kCut) closing = true;
        if (got != BodyRead::kRead) continue;
      }
      dispatch(conn, std::move(req));
    }
    // All admission limits act on parsed lines; without this cap a
    // client could stream unbounded bytes with no newline and run the
    // server out of memory before any limit applies.
    if (buffer.pending() > wire::kMaxLineBytes) overflow = true;
    if (overflow) {
      static telemetry::Counter& oversized =
          telemetry::counter("server.rejected.oversized_line");
      oversized.add();
      send_error(*conn, "", wire::ErrorCode::kBadRequest,
                 "request line exceeds " +
                     std::to_string(wire::kMaxLineBytes) +
                     " bytes; closing connection");
    }
  }

  // Reader-owned teardown: close the fd and drop the Connection from
  // the live set so neither accumulates across peer disconnects, then
  // park this thread's handle for reaping (a thread cannot join
  // itself). Queued jobs keep the Connection alive via shared_ptr;
  // their sends see fd < 0 and become no-ops.
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  std::lock_guard<std::mutex> lock(conns_mutex_);
  if (const auto it = std::find(conns_.begin(), conns_.end(), conn);
      it != conns_.end()) {
    conns_.erase(it);
  }
  // During stop() the handle may already have been claimed for joining;
  // only park it if it is still ours.
  if (conn->reader.joinable()) {
    zombie_readers_.push_back(std::move(conn->reader));
  }
}

Server::BodyRead Server::read_body(Connection& conn,
                                   wire::LineBuffer& buffer,
                                   wire::Request& req, std::uint64_t n) {
  static const telemetry::SpanSite site("server.upload.body");
  telemetry::ScopedSpan span(site);
  // Over budget, the bytes are drained through one chunk instead of
  // kept, so the next request line is still found.
  const bool admitted = charge_upload(conn, req.id, n);
  std::string drain;
  if (admitted) {
    req.body.resize(n);
  } else {
    drain.resize(static_cast<std::size_t>(std::min<std::uint64_t>(n, kChunk)));
  }
  const std::string_view held = buffer.take(n);
  if (admitted) std::memcpy(req.body.data(), held.data(), held.size());
  std::uint64_t got = held.size();
  while (got < n) {
    char* const into = admitted ? req.body.data() + got : drain.data();
    const std::size_t room = static_cast<std::size_t>(
        admitted ? n - got : std::min<std::uint64_t>(n - got, drain.size()));
    const ssize_t r = ::recv(conn.fd, into, room, 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      send_error(conn, req.id, wire::ErrorCode::kBadRequest,
                 wire::short_body_message(n, got));
      return BodyRead::kCut;
    }
    got += static_cast<std::uint64_t>(r);
  }
  return admitted ? BodyRead::kRead : BodyRead::kRejected;
}

bool Server::charge_upload(Connection& conn, const std::string& id,
                           std::uint64_t bytes) {
  const std::uint64_t already =
      conn.uploaded_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (already + bytes <= options_.client_byte_budget) return true;
  conn.uploaded_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  rejected_budget_.fetch_add(1, std::memory_order_relaxed);
  static telemetry::Counter& rejected =
      telemetry::counter("server.rejected.budget");
  rejected.add();
  send_error(conn, id, wire::ErrorCode::kBudgetExceeded,
             "upload budget of " +
                 std::to_string(options_.client_byte_budget) +
                 " bytes exhausted for this connection");
  return false;
}

void Server::send_line(Connection& conn, const std::string& line) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (conn.fd < 0) return;
  std::string framed = line;
  framed += '\n';
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(conn.fd, framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // peer gone; the reader loop will notice
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Server::send_error(Connection& conn, const std::string& id,
                        wire::ErrorCode code, const std::string& message) {
  send_line(conn, wire::error_line(id, code, message));
}

// ---- admission ---------------------------------------------------------

void Server::dispatch(const ConnectionPtr& conn, wire::Request req) {
  // read_body charged a framed body's exact size before reading it, so a
  // client cannot queue itself past its budget; the worker never
  // uncharges. Only admission itself may refund: a request turned away
  // here stored nothing, so every refusal gives its body's bytes back.
  const std::uint64_t upload_charge = req.body.size();
  const auto refuse = [&](wire::ErrorCode code, const std::string& message) {
    conn->uploaded_bytes.fetch_sub(upload_charge, std::memory_order_relaxed);
    send_error(*conn, req.id, code, message);
  };
  try {
    wire::check_framing(req);
  } catch (const wire::WireError& e) {
    refuse(e.code(), e.what());
    return;
  }
  if (req.method == "ping") {
    send_line(*conn, wire::result_line(req.id, "{\"pong\":true}"));
    return;
  }
  if (req.method == "stats") {
    send_line(*conn, wire::result_line(req.id, stats_json(stats())));
    return;
  }
  if (req.method == "watch") {
    // Like ping/stats, answered off the worker queue: a saturated or
    // deadlocked worker pool must still be observable.
    start_watch(conn, req);
    return;
  }
  if (req.method != "upload" && req.method != "analyze" &&
      req.method != "explain" && req.method != "diff" &&
      req.method != "selfdiagnose") {
    refuse(wire::ErrorCode::kUnknownMethod,
           "unknown method '" + req.method + "'");
    return;
  }
  if (stopping_.load()) {
    refuse(wire::ErrorCode::kShuttingDown, "server is shutting down");
    return;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    const std::size_t mine =
        conn->in_flight.load(std::memory_order_relaxed);
    if (queue_.size() >= options_.queue_limit ||
        mine >= options_.client_queue_limit) {
      rejected_overload_.fetch_add(1, std::memory_order_relaxed);
      static telemetry::Counter& rejected =
          telemetry::counter("server.rejected.overload");
      rejected.add();
      refuse(wire::ErrorCode::kOverloaded,
             queue_.size() >= options_.queue_limit
                 ? "server queue is full (" +
                       std::to_string(options_.queue_limit) +
                       " pending); retry later"
                 : "connection has too many requests in flight (" +
                       std::to_string(options_.client_queue_limit) +
                       "); wait for results");
      return;
    }
    conn->in_flight.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(Job{conn, std::move(req), now_ns()});
  }
  queue_cv_.notify_one();
}

void Server::start_watch(const ConnectionPtr& conn,
                         const wire::Request& req) {
  const auto interval = optional_number(req.params, "interval", 1.0);
  const auto count = optional_number(req.params, "count", 0.0);
  if (!interval || *interval < 0.05 || *interval > 3600.0) {
    send_error(*conn, req.id, wire::ErrorCode::kBadRequest,
               "watch: params.interval must be a number of seconds in "
               "[0.05, 3600]");
    return;
  }
  if (!count || *count < 0.0 || *count > 1e9) {
    send_error(*conn, req.id, wire::ErrorCode::kBadRequest,
               "watch: params.count must be a non-negative number of "
               "events (0 streams until disconnect)");
    return;
  }
  // Checked under watchers_mutex_ so a watch can never slip in after
  // stop() has drained the vector (it would be an unjoined thread).
  std::lock_guard<std::mutex> lock(watchers_mutex_);
  if (stopping_.load()) {
    send_error(*conn, req.id, wire::ErrorCode::kShuttingDown,
               "server is shutting down");
    return;
  }
  watchers_.emplace_back(
      [this, conn, id = req.id, interval_s = *interval,
       n = static_cast<std::uint64_t>(*count)] {
        watch_loop(conn, id, interval_s, n);
      });
}

void Server::watch_loop(ConnectionPtr conn, std::string id,
                        double interval_s, std::uint64_t count) {
  static telemetry::Counter& events_counter =
      telemetry::counter("server.watch_events");
  ServerStats prev = stats();
  std::uint64_t seq = 0;
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(interval_s));
  while (!stopping_.load()) {
    // Sleep in short slices so shutdown and client disconnect are
    // noticed promptly even at long intervals.
    const auto deadline = std::chrono::steady_clock::now() + interval;
    while (!stopping_.load() &&
           std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        if (conn->fd < 0) return;  // peer gone; nothing to stream to
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (stopping_.load()) break;
    const ServerStats s = stats();
    ++seq;
    const std::string data =
        "{\"seq\":" + std::to_string(seq) +
        ",\"interval\":" + json::number(interval_s) +
        ",\"stats\":" + stats_json(s) +
        ",\"delta\":{\"requests\":" +
        std::to_string(s.requests - prev.requests) +
        ",\"executed\":" + std::to_string(s.executed - prev.executed) +
        ",\"rejected_overload\":" +
        std::to_string(s.rejected_overload - prev.rejected_overload) +
        ",\"rejected_budget\":" +
        std::to_string(s.rejected_budget - prev.rejected_budget) +
        ",\"uploads\":" + std::to_string(s.uploads - prev.uploads) + "}}";
    const std::string line = wire::event_line(id, "stats", data);
    // Every event line is charged against the same per-connection byte
    // budget as uploads: an unbounded watch at a short interval is a
    // slow upload in reverse, and must exhaust admission the same way.
    const std::uint64_t charge = line.size() + 1;
    const std::uint64_t already =
        conn->uploaded_bytes.fetch_add(charge, std::memory_order_relaxed);
    if (already + charge > options_.client_byte_budget) {
      conn->uploaded_bytes.fetch_sub(charge, std::memory_order_relaxed);
      rejected_budget_.fetch_add(1, std::memory_order_relaxed);
      send_error(*conn, id, wire::ErrorCode::kBudgetExceeded,
                 "watch stream exhausted the connection byte budget of " +
                     std::to_string(options_.client_byte_budget) +
                     " bytes after " + std::to_string(seq - 1) + " events");
      return;
    }
    send_line(*conn, line);
    events_counter.add();
    prev = s;
    if (count > 0 && seq >= count) {
      send_line(*conn, wire::result_line(
                           id, "{\"events\":" + std::to_string(seq) + "}"));
      return;
    }
  }
  // Shutdown path: end the stream cleanly (a no-op if the peer is gone).
  send_line(*conn,
            wire::result_line(id, "{\"events\":" + std::to_string(seq) + "}"));
}

// ---- execution ---------------------------------------------------------

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return stopping_.load() || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    static telemetry::Histogram& wait_ns =
        telemetry::histogram("server.queue_wait_ns");
    wait_ns.record(now_ns() - job.enqueued_ns);
    execute(job);
    job.conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::execute(Job& job) {
  static const telemetry::SpanSite site("server.request");
  telemetry::ScopedSpan span(site);
  const wire::Request& req = job.request;
  try {
    if (req.method == "upload") {
      do_upload(job.conn, job.request);
    } else if (req.method == "analyze") {
      do_analyze(job.conn, req, /*explanations_only=*/false);
    } else if (req.method == "explain") {
      do_analyze(job.conn, req, /*explanations_only=*/true);
    } else if (req.method == "diff") {
      do_diff(job.conn, req);
    } else {
      do_self_diagnosis(job.conn, req);
    }
  } catch (const std::exception& e) {
    send_error(*job.conn, req.id, wire::error_code(std::current_exception()),
               e.what());
  }
}

void Server::do_upload(const ConnectionPtr& conn, wire::Request& req) {
  const std::string application =
      required_string(req.params, "application", "upload");
  const std::string experiment =
      required_string(req.params, "experiment", "upload");
  const std::size_t byte_count = req.body.size();

  // The body is parsed in memory, by the same front door that opens
  // files. Formats that carry no trial name (CSV, a TAU profile) get
  // "upload-<n>" unless the request names the trial.
  static std::atomic<std::uint64_t> upload_seq{0};
  profile::Trial trial = [&] {
    static const telemetry::SpanSite site("server.upload.parse");
    telemetry::ScopedSpan span(site);
    return io::parse_trial(
        std::move(req.body), optional_string(req.params, "format"),
        "upload-" + std::to_string(upload_seq.fetch_add(1)));
  }();

  const std::string version = optional_string(req.params, "version");
  const std::string name = optional_string(req.params, "trial");
  if (!version.empty()) {
    trial.set_name(version);
  } else if (!name.empty()) {
    trial.set_name(name);
  }
  auto ptr = std::make_shared<profile::Trial>(std::move(trial));
  const std::string stored = ptr->name();
  const std::string predecessor = optional_string(req.params, "predecessor");
  if (!options_.repository_dir.empty()) {
    // Acknowledged only once the snapshot and the index naming it are on
    // disk; analyses keep the shared lock meanwhile.
    repo_.commit(application, experiment, std::move(ptr), repo_mutex_,
                 !version.empty(), predecessor);
  } else {
    std::unique_lock<std::shared_mutex> lock(repo_mutex_);
    if (!version.empty()) {
      repo_.put_version(application, experiment, std::move(ptr),
                        predecessor);
    } else {
      repo_.put(application, experiment, std::move(ptr));
    }
  }
  uploads_.fetch_add(1, std::memory_order_relaxed);
  static telemetry::Counter& uploaded =
      telemetry::counter("server.uploads");
  uploaded.add();
  send_line(*conn,
            wire::result_line(
                req.id, "{\"trial\":" + json::quote(stored) +
                            ",\"bytes\":" + std::to_string(byte_count) +
                            "}"));
}

void Server::do_analyze(const ConnectionPtr& conn, const wire::Request& req,
                        bool explanations_only) {
  AnalyzeParams params;
  params.application = required_string(req.params, "application", req.method);
  params.experiment = required_string(req.params, "experiment", req.method);
  params.trial = required_string(req.params, "trial", req.method);
  if (const std::string rb = optional_string(req.params, "rulebase");
      !rb.empty()) {
    params.rulebase = rb;
  }
  params.provenance = explanations_only
                          ? provenance::ProvenanceMode::kFull
                          : provenance_mode(req.params, req.method);

  // The repository lock covers only resolving and pinning the trial:
  // the pinned view keeps its snapshot mapped even if the entry is
  // replaced or evicted meanwhile, so facts and rules run unlocked and
  // a commit's exclusive section never waits behind them.
  perfdmf::ConstTrialPtr trial;
  {
    std::shared_lock<std::shared_mutex> lock(repo_mutex_);
    trial = analysis::resolve_analysis(repo_, params);
  }
  rules::RuleHarness harness;
  const std::vector<rules::Diagnosis> diagnoses = analysis::analyze_resolved(
      *trial, params, options_.rules_path, harness);
  std::size_t explanations = 0;
  for (const auto& d : diagnoses) {
    if (!explanations_only) {
      send_line(*conn, wire::diagnosis_line(req.id, d));
    }
    if (d.provenance) {
      ++explanations;
      send_line(*conn, wire::explanation_line(req.id, *d.provenance));
    }
  }
  send_line(*conn,
            wire::result_line(
                req.id,
                "{\"diagnoses\":" + std::to_string(diagnoses.size()) +
                    ",\"explanations\":" + std::to_string(explanations) +
                    "}"));
}

void Server::do_diff(const ConnectionPtr& conn, const wire::Request& req) {
  DiffParams params;
  params.application = required_string(req.params, "application", "diff");
  params.experiment = required_string(req.params, "experiment", "diff");
  params.base = required_string(req.params, "base", "diff");
  params.current = required_string(req.params, "current", "diff");
  if (const json::Value* band = req.params.find("band"); band != nullptr) {
    if (band->kind != json::Value::Kind::kNumber) {
      throw InvalidArgumentError("diff: params.band must be a number");
    }
    params.options.noise_band = band->number;
  }
  if (const json::Value* metrics = req.params.find("metrics");
      metrics != nullptr) {
    if (metrics->kind != json::Value::Kind::kArray) {
      throw InvalidArgumentError(
          "diff: params.metrics must be an array of strings");
    }
    for (const auto& m : metrics->items) {
      if (m.kind != json::Value::Kind::kString) {
        throw InvalidArgumentError(
            "diff: params.metrics must be an array of strings");
      }
      params.options.metrics.push_back(m.text);
    }
  }

  // Pinned under the lock, compared without it, as in do_analyze.
  analysis::DiffTrials trials;
  {
    std::shared_lock<std::shared_mutex> lock(repo_mutex_);
    trials = analysis::resolve_diff(repo_, params);
  }
  rules::RuleHarness harness;
  const DiffOutcome outcome = analysis::diff_resolved(trials, params, harness);
  for (const auto& d : outcome.diagnoses) {
    send_line(*conn, wire::diagnosis_line(req.id, d));
    if (d.provenance) {
      send_line(*conn, wire::explanation_line(req.id, *d.provenance));
    }
  }
  const auto& s = outcome.summary;
  send_line(
      *conn,
      wire::result_line(
          req.id,
          std::string("{\"regression\":") +
              (outcome.regression ? "true" : "false") +
              ",\"compared\":" + std::to_string(s.compared_cells) +
              ",\"regressed\":" + std::to_string(s.regressed_cells) +
              ",\"improved\":" + std::to_string(s.improved_cells) +
              ",\"skipped\":" + std::to_string(s.skipped_cells) +
              ",\"missing\":" + std::to_string(s.missing_events) +
              ",\"added\":" + std::to_string(s.added_events) + "}"));
}

void Server::do_self_diagnosis(const ConnectionPtr& conn,
                               const wire::Request& req) {
  rules::RuleHarness harness;
  const auto diagnoses = run_self_diagnosis(harness);
  std::size_t explanations = 0;
  for (const auto& d : diagnoses) {
    send_line(*conn, wire::diagnosis_line(req.id, d));
    if (d.provenance) {
      ++explanations;
      send_line(*conn, wire::explanation_line(req.id, *d.provenance));
    }
  }
  send_line(*conn,
            wire::result_line(
                req.id,
                "{\"diagnoses\":" + std::to_string(diagnoses.size()) +
                    ",\"explanations\":" + std::to_string(explanations) +
                    "}"));
}

}  // namespace perfknow::server
