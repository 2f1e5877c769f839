// Analysis-as-a-service: the `pkx serve` daemon.
//
// A Server binds a local AF_UNIX socket and speaks the perfknow.api/1
// line protocol (wire.hpp): multiple clients connect concurrently,
// upload trials (any io::open_trial format, as raw bytes framed after
// the request line) into one shared repository, and drive analyze /
// diff / explain / selfdiagnose requests whose diagnoses and
// perfknow.explanation/1 proof trees stream back incrementally.
//
// Concurrency model:
//   * one accept thread, one reader thread per connection, a fixed pool
//     of worker threads draining a bounded job queue; a reader whose
//     peer disconnects closes the fd, drops the Connection, and parks
//     its thread for reaping, so a long-running daemon does not leak
//     fds or threads across connections;
//   * "ping" and "stats" are answered inline by the reader thread so
//     health checks keep working while the queue is saturated, and
//     "watch" spawns a dedicated streaming thread off the worker queue
//     for the same reason: it emits one "stats" event line per interval
//     (current totals plus per-interval deltas), each charged against
//     the connection's byte budget, until the requested count, peer
//     disconnect, budget exhaustion, or shutdown ends the stream;
//   * a framed upload's body is read by the connection's reader straight
//     into the request (the bytes that arrived with the line first, then
//     recv into the sized body), after its length has been checked
//     against the body cap and the connection's byte budget;
//   * the shared repository is guarded by a readers/writer lock —
//     analyses hold it shared only while they resolve and pin their
//     trials, then compute unlocked; an upload takes it exclusively only
//     to insert its entry, because that mutates the store map without an
//     internal lock. With a repository_dir, Repository::commit writes
//     the upload's snapshot and index durably outside that section and
//     the result line is sent only after both are on disk;
//   * admission control: a request beyond the queue limit (global or
//     per-client) is rejected immediately with "overloaded", and a
//     client that uploads past its byte budget gets "budget_exceeded"
//     (a framed body is then drained, so the connection stays usable).
//     Rejections are telemetry counters, so the server diagnoses its
//     own saturation through rules/self_diagnosis.rules
//     (ServerQueueSaturated / ServerClientOverBudget) via the
//     "selfdiagnose" method — the paper's self-observation loop closed
//     over the serving layer itself.
//
// The workers run the analysis pipelines of analysis/pipeline.hpp
// (run_analysis / run_diff / run_self_diagnosis), the same functions pkx
// and in-process callers use — which is what makes server-streamed
// diagnoses byte-identical to local ones (tests/test_server.cpp pins
// this).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/pipeline.hpp"
#include "perfdmf/repository.hpp"
#include "rules/engine.hpp"
#include "server/wire.hpp"

namespace perfknow::server {

// ---- shared analysis entry points --------------------------------------
// Defined once in analysis/pipeline.hpp; re-exported here because the
// daemon's workers and its in-process callers name them server::.

using analysis::AnalyzeParams;
using analysis::DiffOutcome;
using analysis::DiffParams;
using analysis::run_analysis;
using analysis::run_diff;
using analysis::run_self_diagnosis;

// ---- the daemon --------------------------------------------------------

struct ServerOptions {
  /// AF_UNIX socket path the daemon binds (required; a stale socket
  /// file from a previous run is replaced).
  std::filesystem::path socket_path;

  /// Repository to serve. Empty = a fresh in-memory store: uploads live
  /// only as long as the daemon. A directory with an index.tsv is
  /// attach()ed lazily under `cache_budget`; one without starts empty.
  /// Either way every upload is committed into the directory (snapshot
  /// and index fsynced) before it is acknowledged, so it survives a
  /// restart, and it is cached under the same budget as stored trials.
  std::filesystem::path repository_dir;

  /// Extra rulebase search directory (rules::resolve_rulebase).
  std::filesystem::path rules_path;

  /// Worker threads draining the job queue.
  std::size_t workers = 2;

  /// Server-wide bound on queued (not yet executing) jobs; requests
  /// beyond it are rejected with "overloaded".
  std::size_t queue_limit = 64;

  /// Per-connection bound on in-flight (queued or executing) jobs.
  std::size_t client_queue_limit = 16;

  /// Per-connection upload budget in body bytes (each framed body's
  /// exact size); uploads beyond it are rejected with "budget_exceeded".
  /// A body announcing more than max(this, wire::kMaxLineBytes) bytes
  /// gets bad_request and its connection is closed.
  std::size_t client_byte_budget = std::size_t{64} * 1024 * 1024;

  /// Demand-load cache budget for an attached repository_dir.
  std::size_t cache_budget = perfdmf::Repository::kDefaultCacheBudget;

  /// Turns process-wide telemetry on at construction, so the serving
  /// counters (below) actually record and "selfdiagnose" sees them.
  bool enable_telemetry = true;

  /// Checks every field up front; throws InvalidArgumentError naming
  /// the offending field ("ServerOptions.socket_path: ..."). Checks:
  /// socket_path non-empty and short enough for sun_path, workers > 0,
  /// queue_limit > 0, client_queue_limit > 0, repository_dir (when set)
  /// is an existing directory.
  void validate() const;
};

/// Counters the "stats" method reports (all since construction).
struct ServerStats {
  std::uint64_t connections = 0;  ///< accepted connections
  std::uint64_t requests = 0;     ///< request lines parsed
  std::uint64_t executed = 0;     ///< jobs completed by workers
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_budget = 0;
  std::uint64_t uploads = 0;   ///< trials stored
  std::size_t queue_depth = 0; ///< jobs queued right now
};

class Server {
 public:
  /// Validates options, opens the repository, binds + listens, and
  /// starts the accept/worker threads. Throws InvalidArgumentError /
  /// IoError on bad options or socket failure.
  explicit Server(ServerOptions options);

  /// stop() + join.
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Begins shutdown: stops accepting, fails queued-but-unstarted work
  /// with "shutting_down", lets executing jobs finish, closes every
  /// connection, joins all threads, removes the socket file.
  /// Idempotent; safe from any thread (not from a signal handler).
  void stop();

  /// Blocks until stop() has been called (by anyone) and the daemon is
  /// fully drained.
  void wait();

  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] ServerStats stats() const;

  /// The shared store. Callers outside the daemon threads must follow
  /// the same locking discipline: mutation under repository_mutex()
  /// exclusive, reads under shared.
  [[nodiscard]] perfdmf::Repository& repository() noexcept { return repo_; }
  [[nodiscard]] std::shared_mutex& repository_mutex() noexcept {
    return repo_mutex_;
  }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::mutex write_mutex;            ///< serializes whole lines, guards fd
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::uint64_t> uploaded_bytes{0};
    /// This connection's reader thread. On exit the reader moves the
    /// handle into zombie_readers_ (it cannot join itself); stop() and
    /// accept_loop() join zombies from there.
    std::thread reader;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  struct Job {
    ConnectionPtr conn;
    wire::Request request;
    std::uint64_t enqueued_ns = 0;
  };

  /// recv() size of the connection readers.
  static constexpr std::size_t kChunk = 64 << 10;

  void accept_loop();
  void reader_loop(ConnectionPtr conn);
  void worker_loop();

  enum class BodyRead { kRead, kRejected, kCut };
  /// Reads the `n` raw bytes following a framed request line into
  /// req.body, first those `buffer` already holds. Over the byte budget
  /// it answers budget_exceeded and drains them instead (kRejected); a
  /// peer that closes first gets a bad_request naming both counts
  /// (kCut).
  BodyRead read_body(Connection& conn, wire::LineBuffer& buffer,
                     wire::Request& req, std::uint64_t n);
  /// Charges an upload's bytes to the connection's budget; over budget
  /// it answers budget_exceeded and returns false.
  bool charge_upload(Connection& conn, const std::string& id,
                     std::uint64_t bytes);

  /// Joins reader threads parked in zombie_readers_ (called by the
  /// accept loop between accepts, and by stop()).
  void reap_readers();

  /// Handles one parsed request on the reader thread: answers ping /
  /// stats inline, starts a watch stream, otherwise admits into the
  /// queue or rejects.
  void dispatch(const ConnectionPtr& conn, wire::Request req);
  /// Validates watch params and spawns the streaming thread. Like ping,
  /// runs entirely off the worker queue so a saturated server can still
  /// be watched.
  void start_watch(const ConnectionPtr& conn, const wire::Request& req);
  /// Emits one "stats" event line per interval until the count is
  /// reached, the connection closes, the byte budget runs out, or the
  /// server stops. Runs on a dedicated thread tracked in watchers_.
  void watch_loop(ConnectionPtr conn, std::string id, double interval_s,
                  std::uint64_t count);
  void execute(Job& job);
  void do_upload(const ConnectionPtr& conn, wire::Request& req);
  void do_analyze(const ConnectionPtr& conn, const wire::Request& req,
                  bool explanations_only);
  void do_diff(const ConnectionPtr& conn, const wire::Request& req);
  void do_self_diagnosis(const ConnectionPtr& conn,
                         const wire::Request& req);

  void send_line(Connection& conn, const std::string& line);
  void send_error(Connection& conn, const std::string& id,
                  wire::ErrorCode code, const std::string& message);

  ServerOptions options_;
  perfdmf::Repository repo_;
  mutable std::shared_mutex repo_mutex_;

  // Atomic: stop() closes and clears the fd while accept_loop() reads it.
  std::atomic<int> listen_fd_{-1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;

  std::mutex conns_mutex_;
  std::vector<ConnectionPtr> conns_;
  /// Reader threads whose connection has closed, waiting to be joined
  /// (by accept_loop on the next accept, or by stop()). Guarded by
  /// conns_mutex_.
  std::vector<std::thread> zombie_readers_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  /// Watch-stream threads (one per active `watch` request). Guarded by
  /// watchers_mutex_; joined by stop() after the workers (they exit on
  /// stopping_ within one poll slice).
  std::mutex watchers_mutex_;
  std::vector<std::thread> watchers_;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;

  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> rejected_overload_{0};
  std::atomic<std::uint64_t> rejected_budget_{0};
  std::atomic<std::uint64_t> uploads_{0};
};

}  // namespace perfknow::server
