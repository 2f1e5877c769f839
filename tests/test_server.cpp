// The analysis service end to end: perfknow.api/1 envelope round-trips,
// the daemon under >= 8 concurrent clients, byte-identical streamed
// diagnoses vs in-process runs, budget/backpressure admission, and the
// closed loop where a saturated server diagnoses itself
// (ServerQueueSaturated) with a grounded proof tree, and uploads
// committed to a repository directory: surviving a restart, bounded by
// the cache budget, chained in ack order under concurrency, and never
// leaving a torn index when a write, fsync or rename fails.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/msap/msap.hpp"
#include "common/file.hpp"
#include "io/bench_json.hpp"
#include "machine/machine.hpp"
#include "perfdmf/durable.hpp"
#include "perfknow.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
namespace wire = pk::server::wire;
using pk::server::Client;
using pk::server::Server;
using pk::server::ServerOptions;

namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_server_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
  static inline int counter_ = 0;
};

/// Short socket path (sun_path caps at ~107 bytes; the test tempdir can
/// be deep, so sockets go directly under /tmp).
fs::path socket_path() {
  static std::atomic<int> n{0};
  return fs::temp_directory_path() /
         ("pkx_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(n.fetch_add(1)) + ".sock");
}

fs::path write_bench_json(
    const fs::path& file,
    const std::vector<std::pair<std::string, double>>& benchmarks) {
  std::ofstream os(file);
  os << "{\n  \"context\": {\"host_name\": \"ci\"},\n"
     << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    os << "    {\"name\": \"" << benchmarks[i].first
       << "\", \"run_type\": \"iteration\", \"iterations\": 100,"
       << " \"real_time\": " << benchmarks[i].second
       << ", \"cpu_time\": " << benchmarks[i].second
       << ", \"time_unit\": \"us\"}";
    os << (i + 1 < benchmarks.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return file;
}

/// base + 2x-slowed current pair under `scratch`.
std::pair<fs::path, fs::path> regression_pair(const fs::path& scratch) {
  const auto base = write_bench_json(
      scratch / "base.json",
      {{"BM_Parse", 120.0}, {"BM_Match", 45.0}, {"BM_Assert", 8.0}});
  const auto cur = write_bench_json(
      scratch / "cur.json",
      {{"BM_Parse", 240.0}, {"BM_Match", 45.0}, {"BM_Assert", 8.0}});
  return {base, cur};
}

std::string file_bytes(const fs::path& file) {
  std::ifstream is(file, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

/// A framed upload request line announcing `n` body bytes.
std::string framed_header(const std::string& id, const std::string& trial,
                          std::uint64_t n) {
  return R"({"api":"perfknow.api/1","id":")" + id +
         R"(","method":"upload","params":{"application":"app",)"
         R"("experiment":"exp","trial":")" +
         trial + R"(","body_bytes":)" + std::to_string(n) + "}}";
}

std::string diff_params(const std::string& app) {
  return "{\"application\":" + pk::json::quote(app) +
         ",\"experiment\":\"bench\",\"base\":\"v1\",\"current\":\"v2\"}";
}

}  // namespace

// ---- wire envelope -----------------------------------------------------

TEST(Wire, ParsesWellFormedRequestAndNormalizesNumericId) {
  const auto req = wire::parse_request(
      R"({"api":"perfknow.api/1","id":7,"method":"analyze",)"
      R"("params":{"trial":"t"}})");
  EXPECT_EQ(req.id, "7");
  EXPECT_EQ(req.method, "analyze");
  ASSERT_NE(req.params.find("trial"), nullptr);
  EXPECT_EQ(req.params.find("trial")->text, "t");
}

TEST(Wire, RejectsMalformedEnvelopes) {
  const auto code_of = [](const std::string& line) {
    try {
      (void)wire::parse_request(line);
    } catch (const wire::WireError& e) {
      return e.code();
    }
    return wire::ErrorCode::kInternal;
  };
  EXPECT_EQ(code_of("not json"), wire::ErrorCode::kBadRequest);
  EXPECT_EQ(code_of("[1,2]"), wire::ErrorCode::kBadRequest);
  EXPECT_EQ(code_of(R"({"id":"1","method":"x"})"),
            wire::ErrorCode::kBadRequest);
  EXPECT_EQ(code_of(R"({"api":"perfknow.api/2","id":"1","method":"x"})"),
            wire::ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(code_of(R"({"api":"perfknow.api/1","id":"1"})"),
            wire::ErrorCode::kBadRequest);
  EXPECT_EQ(code_of(R"({"api":"perfknow.api/1","id":"1","method":"x",)"
                    R"("params":[1]})"),
            wire::ErrorCode::kBadRequest);
}

TEST(Wire, ErrorTaxonomyRoundTripsAndMapsExceptions) {
  for (const auto code :
       {wire::ErrorCode::kBadRequest, wire::ErrorCode::kUnsupportedVersion,
        wire::ErrorCode::kUnknownMethod, wire::ErrorCode::kInvalidArgument,
        wire::ErrorCode::kNotFound, wire::ErrorCode::kParse,
        wire::ErrorCode::kEval, wire::ErrorCode::kIo,
        wire::ErrorCode::kOverloaded, wire::ErrorCode::kBudgetExceeded,
        wire::ErrorCode::kShuttingDown, wire::ErrorCode::kInternal}) {
    EXPECT_EQ(wire::error_code(wire::to_string(code)), code);
  }
  const auto code_of = [](const auto& error) {
    return wire::error_code(std::make_exception_ptr(error));
  };
  EXPECT_EQ(code_of(pk::InvalidArgumentError("x")),
            wire::ErrorCode::kInvalidArgument);
  EXPECT_EQ(code_of(pk::NotFoundError("x")), wire::ErrorCode::kNotFound);
  EXPECT_EQ(code_of(pk::ParseError("x")), wire::ErrorCode::kParse);
  EXPECT_EQ(code_of(wire::WireError(wire::ErrorCode::kOverloaded, "x")),
            wire::ErrorCode::kOverloaded);
  EXPECT_EQ(code_of(std::runtime_error("x")), wire::ErrorCode::kInternal);
  // The pkx exit-code contract: usage errors are 2, the rest 1.
  EXPECT_EQ(wire::exit_code(wire::ErrorCode::kInvalidArgument), 2);
  EXPECT_EQ(wire::exit_code(wire::ErrorCode::kNotFound), 1);
  EXPECT_EQ(wire::exit_code(wire::ErrorCode::kOverloaded), 1);
}

// Framing a request line must cost time linear in its length however
// many reads it arrives in: 4x the line costs ~4x, while searching the
// whole buffer again after every read would cost ~16x. The bound of 8
// leaves room for cache effects and a noisy host.
TEST(Wire, LineFramingGrowsLinearlyInTheLineLength) {
  const auto frame_ms = [](std::size_t bytes) {
    constexpr std::size_t kRead = 4096;
    const std::string line = std::string(bytes, 'x') + "\n";
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      wire::LineBuffer buffer;
      std::size_t lines = 0;
      for (std::size_t at = 0; at < line.size(); at += kRead) {
        const std::size_t n = std::min(kRead, line.size() - at);
        std::memcpy(buffer.prepare(kRead), line.data() + at, n);
        buffer.commit(n);
        std::string_view framed;
        while (buffer.next_line(framed)) {
          EXPECT_EQ(framed.size(), bytes);
          ++lines;
        }
      }
      EXPECT_EQ(lines, 1u);
      EXPECT_EQ(buffer.pending(), 0u);
      const std::chrono::duration<double, std::milli> ms =
          std::chrono::steady_clock::now() - t0;
      if (rep == 0 || ms.count() < best) best = ms.count();
    }
    return best;
  };
  const double small = frame_ms(std::size_t{2} << 20);
  const double large = frame_ms(std::size_t{8} << 20);
  EXPECT_LT(large / small, 8.0)
      << "2 MiB line: " << small << " ms, 8 MiB line: " << large << " ms";
}

TEST(Wire, LineBufferSplitsManyLinesAndKeepsAPartialTail) {
  wire::LineBuffer buffer;
  const std::string stream = "a\n\nbc\ndef";
  std::memcpy(buffer.prepare(stream.size()), stream.data(), stream.size());
  buffer.commit(stream.size());
  std::vector<std::string> lines;
  std::string_view line;
  while (buffer.next_line(line)) lines.emplace_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"a", "", "bc"}));
  EXPECT_EQ(buffer.pending(), 3u);
  std::memcpy(buffer.prepare(2), "g\n", 2);
  buffer.commit(2);
  ASSERT_TRUE(buffer.next_line(line));
  EXPECT_EQ(line, "defg");
  EXPECT_FALSE(buffer.next_line(line));
  EXPECT_EQ(buffer.pending(), 0u);
}

TEST(Wire, ResponseLinesCarryEnvelopeAndEscapeStrings) {
  const std::string line = wire::error_line("7", wire::ErrorCode::kNotFound,
                                            "no \"such\" trial");
  EXPECT_NE(line.find("\"api\":\"perfknow.api/1\""), std::string::npos);
  EXPECT_NE(line.find("\"code\":\"not_found\""), std::string::npos);
  EXPECT_NE(line.find("no \\\"such\\\" trial"), std::string::npos);
  // And it parses back as JSON.
  const auto doc = pk::json::parse(line);
  EXPECT_EQ(doc.find("id")->text, "7");
}

// ---- options validation ------------------------------------------------

TEST(ServerOptionsValidate, NamesTheOffendingField) {
  ServerOptions opt;
  try {
    opt.validate();
    FAIL() << "empty socket_path must throw";
  } catch (const pk::InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("ServerOptions.socket_path"),
              std::string::npos);
  }
  opt.socket_path = socket_path();
  opt.workers = 0;
  EXPECT_THROW(opt.validate(), pk::InvalidArgumentError);
  opt.workers = 2;
  opt.repository_dir = "/definitely/not/a/dir";
  EXPECT_THROW(opt.validate(), pk::InvalidArgumentError);
}

TEST(SessionOptionsValidate, NamesTheOffendingField) {
  pk::script::SessionOptions opt;  // repository null
  try {
    opt.validate();
    FAIL() << "null repository must throw";
  } catch (const pk::InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("SessionOptions.repository"),
              std::string::npos);
  }
  pk::perfdmf::Repository repo;
  opt.repository = &repo;
  opt.threads = static_cast<std::size_t>(-1);  // "negative" count
  EXPECT_THROW(opt.validate(), pk::InvalidArgumentError);
  opt.threads = 0;
  opt.rules_path = "/definitely/not/a/dir";
  EXPECT_THROW(opt.validate(), pk::InvalidArgumentError);
  opt.rules_path.clear();
  EXPECT_NO_THROW(opt.validate());
}

TEST(DiffOptionsValidate, RejectsNonPositiveBand) {
  pk::analysis::DiffOptions opt;
  EXPECT_NO_THROW(opt.validate());
  opt.noise_band = 0.0;
  EXPECT_THROW(opt.validate(), pk::InvalidArgumentError);
  opt.noise_band = -0.5;
  EXPECT_THROW(opt.validate(), pk::InvalidArgumentError);
  opt.noise_band = 0.25;
  opt.min_fraction = 1.5;
  EXPECT_THROW(opt.validate(), pk::InvalidArgumentError);
}

// ---- the daemon --------------------------------------------------------

TEST(ServerDaemon, PingStatsUploadAnalyzeDiffOverTheSocket) {
  TempDir scratch;
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.workers = 2;
  Server server(opt);

  Client client(opt.socket_path);
  auto pong = client.call("ping");
  ASSERT_TRUE(pong.ok()) << pong.error_message;
  EXPECT_EQ(pong.result, "{\"pong\":true}");

  // Upload a two-version history with a planted 2x regression.
  const auto [base, cur] = regression_pair(scratch.path());
  auto up1 = client.upload_file("perfknow", "bench", base, "v1");
  ASSERT_TRUE(up1.ok()) << up1.error_message;
  EXPECT_NE(up1.result.find("\"trial\":\"v1\""), std::string::npos);
  auto up2 = client.upload_file("perfknow", "bench", cur, "v2");
  ASSERT_TRUE(up2.ok()) << up2.error_message;

  // diff streams a MetricRegression diagnosis plus its proof tree.
  auto diff = client.call("diff", diff_params("perfknow"));
  ASSERT_TRUE(diff.ok()) << diff.error_message;
  EXPECT_NE(diff.result.find("\"regression\":true"), std::string::npos);
  bool saw_regression = false;
  bool saw_explanation = false;
  for (const auto& ev : diff.events) {
    if (ev.event == "diagnosis" &&
        ev.data.find("MetricRegression") != std::string::npos) {
      saw_regression = true;
    }
    if (ev.event == "explanation" &&
        ev.data.find("perfknow.explanation/1") != std::string::npos) {
      saw_explanation = true;
    }
  }
  EXPECT_TRUE(saw_regression);
  EXPECT_TRUE(saw_explanation);

  // analyze over the uploaded trial: runs the openuh rulebase (no
  // diagnoses for a 1-thread bench trial, but the full pipeline runs).
  auto analyzed = client.call(
      "analyze",
      "{\"application\":\"perfknow\",\"experiment\":\"bench\","
      "\"trial\":\"v2\"}");
  ASSERT_TRUE(analyzed.ok()) << analyzed.error_message;
  EXPECT_NE(analyzed.result.find("\"diagnoses\":"), std::string::npos);

  // Unknown trial -> not_found; unknown method -> unknown_method;
  // missing param -> invalid_argument.
  auto missing = client.call(
      "analyze",
      "{\"application\":\"nope\",\"experiment\":\"x\",\"trial\":\"y\"}");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.error, wire::ErrorCode::kNotFound);
  auto unknown = client.call("frobnicate");
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error, wire::ErrorCode::kUnknownMethod);
  auto invalid = client.call("analyze", "{\"application\":\"a\"}");
  EXPECT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.error, wire::ErrorCode::kInvalidArgument);

  const auto stats = server.stats();
  EXPECT_GE(stats.requests, 7u);
  EXPECT_EQ(stats.uploads, 2u);
  server.stop();
}

TEST(ServerDaemon, UploadWithIndexBreakingNameIsRejected) {
  TempDir scratch;
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.workers = 2;
  Server server(opt);
  const auto [base, cur] = regression_pair(scratch.path());

  Client client(opt.socket_path);
  for (const auto& [app, exp, version] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {"per\tfknow", "bench", "v1"},
           {"perfknow", "ben\nch", "v1"},
           {"perfknow", "bench", "v\r1"}}) {
    const auto r = client.upload_file(app, exp, base, version);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error, wire::ErrorCode::kInvalidArgument) << r.error_message;
  }
  // The daemon keeps serving, on the same connection.
  EXPECT_TRUE(client.call("ping").ok());
  const auto good = client.upload_file("perfknow", "bench", cur, "v1");
  EXPECT_TRUE(good.ok()) << good.error_message;
  EXPECT_EQ(server.stats().uploads, 1u);
  server.stop();
}

// Upload bodies are parsed in memory. Formats whose content names no
// trial (CSV, a TAU profile) get "upload-<n>" unless the request names
// one, and parse errors are located in that name, not in a file.
TEST(ServerDaemon, UploadsParseInMemoryAndNameUnnamedTrials) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.workers = 1;
  Server server(opt);
  Client client(opt.socket_path);
  const auto upload = [&](const std::string& body,
                          const std::string& extra) {
    const std::string id = client.send(
        "upload", "{\"application\":\"app\",\"experiment\":\"exp\"" +
                      extra + ",\"body_bytes\":" +
                      std::to_string(body.size()) + "}");
    client.send_bytes(body);
    return client.collect(id);
  };
  const std::regex unnamed("\"trial\":\"upload-[0-9]+\"");
  const std::string csv =
      "event,thread,metric,inclusive,exclusive,calls,subcalls\n"
      "main,0,TIME,5,4,1,1\nmain => f,1,TIME,1,1,2,0\n";
  const auto by_content = upload(csv, "");
  ASSERT_TRUE(by_content.ok()) << by_content.error_message;
  EXPECT_TRUE(std::regex_search(by_content.result, unnamed))
      << by_content.result;
  const auto named_format = upload(csv, ",\"format\":\"csv\"");
  ASSERT_TRUE(named_format.ok()) << named_format.error_message;
  EXPECT_TRUE(std::regex_search(named_format.result, unnamed))
      << named_format.result;
  const std::string tau =
      "2 templated_functions_MULTI_TIME\n# Name Calls Subrs Excl Incl\n"
      "\"main\" 1 1 5 10 0 GROUP=\"TAU_DEFAULT\"\n"
      "\"main => f\" 1 0 5 5 0 GROUP=\"TAU_CALLPATH\"\n";
  const auto tau_up = upload(tau, "");
  ASSERT_TRUE(tau_up.ok()) << tau_up.error_message;
  EXPECT_TRUE(std::regex_search(tau_up.result, unnamed)) << tau_up.result;
  const auto named = upload(csv, ",\"trial\":\"mine\"");
  ASSERT_TRUE(named.ok()) << named.error_message;
  EXPECT_NE(named.result.find("\"trial\":\"mine\""), std::string::npos);

  const auto bad = upload(csv + "main,0,TIME,x,1,1,0\n", "");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error, wire::ErrorCode::kParse);
  EXPECT_TRUE(std::regex_search(bad.error_message,
                                std::regex("^upload-[0-9]+:4: not a number")))
      << bad.error_message;
  EXPECT_EQ(server.stats().uploads, 4u);
  server.stop();
}

TEST(ServerDaemon, StreamedDiagnosesAreByteIdenticalToInProcess) {
  TempDir scratch;
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);

  Client client(opt.socket_path);
  const auto [base, cur] = regression_pair(scratch.path());
  ASSERT_TRUE(client.upload_file("perfknow", "bench", base, "v1").ok());
  ASSERT_TRUE(client.upload_file("perfknow", "bench", cur, "v2").ok());

  // The client assigns ids sequentially; this will be request "3".
  const std::string id = client.send("diff", diff_params("perfknow"));
  auto streamed = client.collect(id);
  ASSERT_TRUE(streamed.ok()) << streamed.error_message;
  ASSERT_FALSE(streamed.events.empty());

  // The same work in-process, against the same repository, rendered
  // through the same wire serializers with the same id.
  pk::server::DiffParams params;
  params.application = "perfknow";
  params.experiment = "bench";
  params.base = "v1";
  params.current = "v2";
  pk::rules::RuleHarness harness;
  pk::server::DiffOutcome outcome;
  {
    std::shared_lock<std::shared_mutex> lock(server.repository_mutex());
    outcome = pk::server::run_diff(server.repository(), params, harness);
  }
  EXPECT_TRUE(outcome.regression);
  std::vector<std::string> expected;
  for (const auto& d : outcome.diagnoses) {
    expected.push_back(wire::diagnosis_line(id, d));
    if (d.provenance) {
      expected.push_back(wire::explanation_line(id, *d.provenance));
    }
  }
  ASSERT_EQ(streamed.events.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(streamed.events[i].line, expected[i]) << "line " << i;
  }
  server.stop();
}

TEST(ServerDaemon, EightConcurrentClientsGetIsolatedCorrectResults) {
  TempDir scratch;
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.workers = 4;
  Server server(opt);

  const auto [base, cur] = regression_pair(scratch.path());
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        // Each client gets its own application namespace.
        const std::string app = "client" + std::to_string(c);
        Client client(opt.socket_path);
        if (!client.upload_file(app, "bench", base, "v1").ok() ||
            !client.upload_file(app, "bench", cur, "v2").ok()) {
          failures[c] = "upload failed";
          return;
        }
        auto diff = client.call("diff", diff_params(app));
        if (!diff.ok()) {
          failures[c] = "diff: " + diff.error_message;
          return;
        }
        if (diff.result.find("\"regression\":true") == std::string::npos) {
          failures[c] = "no regression verdict: " + diff.result;
          return;
        }
        bool explained = false;
        for (const auto& ev : diff.events) {
          if (ev.event == "explanation") explained = true;
          // Streamed lines must echo this client's own request id.
          if (ev.line.find("\"id\":\"") == std::string::npos) {
            failures[c] = "unlabelled line: " + ev.line;
            return;
          }
        }
        if (!explained) failures[c] = "no explanation streamed";
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": "
                                     << failures[c];
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.uploads, 2u * kClients);
  EXPECT_EQ(stats.connections, static_cast<std::uint64_t>(kClients));
  server.stop();
}

TEST(ServerDaemon, UploadBudgetIsEnforcedPerConnection) {
  TempDir scratch;
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.client_byte_budget = 256;  // smaller than one bench json
  Server server(opt);

  const auto [base, cur] = regression_pair(scratch.path());
  Client client(opt.socket_path);
  auto up = client.upload_file("perfknow", "bench", base, "v1");
  EXPECT_FALSE(up.ok());
  EXPECT_EQ(up.error, wire::ErrorCode::kBudgetExceeded);
  EXPECT_EQ(server.stats().rejected_budget, 1u);
  EXPECT_EQ(server.stats().uploads, 0u);

  // A fresh connection gets a fresh budget (and still enforces it).
  Client again(opt.socket_path);
  EXPECT_EQ(again.call("ping").ok(), true);
  EXPECT_FALSE(again.upload_file("perfknow", "bench", cur, "v2").ok());
  server.stop();
}

namespace {
/// Open descriptors of this process (Linux procfs).
std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       fs::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}
}  // namespace

TEST(ServerDaemon, DisconnectedClientsDoNotLeakFdsOrStallAccept) {
  if (!fs::exists("/proc/self/fd")) GTEST_SKIP() << "no procfs";
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);

  {
    Client warm(opt.socket_path);
    ASSERT_TRUE(warm.call("ping").ok());
  }
  const std::size_t baseline = open_fd_count();

  // Churn connections: each reader must close its fd and drop its
  // Connection when the peer disconnects, or a long-running daemon
  // leaks one fd + one thread per client until accept() hits EMFILE.
  constexpr int kChurn = 32;
  for (int i = 0; i < kChurn; ++i) {
    Client c(opt.socket_path);
    ASSERT_TRUE(c.call("ping").ok());
  }
  // Reader teardown is asynchronous; poll until the fd count returns
  // to (at most) the baseline, with slack for one mid-teardown reader.
  std::size_t fds = open_fd_count();
  for (int i = 0; i < 500 && fds > baseline + 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    fds = open_fd_count();
  }
  EXPECT_LE(fds, baseline + 1)
      << "reader teardown leaked fds across " << kChurn << " disconnects";

  // And the daemon still accepts (this also reaps parked reader threads).
  Client again(opt.socket_path);
  EXPECT_TRUE(again.call("ping").ok());
  EXPECT_GE(server.stats().connections, static_cast<std::uint64_t>(kChurn));
  server.stop();
}

TEST(ServerDaemon, UnframedFloodGetsBadRequestAndTheConnectionClosed) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.client_byte_budget = 1024;
  Server server(opt);

  Client flood(opt.socket_path);
  // Far past the per-line cap: the server must cut the connection off
  // instead of buffering an unframed stream without bound.
  const std::string big(200 * 1024, 'x');
  try {
    flood.send_line(big);
  } catch (const pk::IoError&) {
    // The server may close mid-send; the flood still has to be refused.
  }
  bool bad_request = false;
  bool closed = false;
  try {
    for (;;) {
      if (flood.read_line().find("\"code\":\"bad_request\"") !=
          std::string::npos) {
        bad_request = true;
      }
    }
  } catch (const pk::IoError&) {
    closed = true;  // EOF: the server hung up on the flooding client
  }
  EXPECT_TRUE(bad_request) << "no bad_request line before the close";
  EXPECT_TRUE(closed);

  // The daemon itself is unharmed.
  Client again(opt.socket_path);
  EXPECT_TRUE(again.call("ping").ok());
  server.stop();
}

// Bodies travel after the line, so the line cap is one constant: the
// default 64 MiB byte budget does not stretch it.
TEST(ServerDaemon, TheRequestLineCapIsAConstant) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);
  const auto padded_ping = [](std::size_t size) {
    const std::string head = R"({"api":"perfknow.api/1","id":"1",)"
                             R"("method":"ping","params":{"pad":")";
    const std::string tail = "\"}}";
    return head + std::string(size - head.size() - tail.size(), 'x') + tail;
  };
  Client fits(opt.socket_path);
  fits.send_line(padded_ping(wire::kMaxLineBytes));
  EXPECT_EQ(fits.collect("1").result, "{\"pong\":true}");

  Client over(opt.socket_path);
  over.send_line(padded_ping(wire::kMaxLineBytes + 1));
  const auto r = over.collect("");
  EXPECT_EQ(r.error, wire::ErrorCode::kBadRequest);
  EXPECT_EQ(r.error_message, "request line exceeds " +
                                 std::to_string(wire::kMaxLineBytes) +
                                 " bytes; closing connection");
  EXPECT_THROW((void)over.read_line(), pk::IoError);
  server.stop();
}

TEST(ServerDaemon, OverloadRejectedUploadsDoNotConsumeBudget) {
  TempDir scratch;
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.workers = 1;
  opt.queue_limit = 1;
  opt.client_queue_limit = 16;

  const std::string bytes = file_bytes(
      write_bench_json(scratch.path() / "t.json", {{"BM_Parse", 120.0}}));
  // Each upload is charged its exact body size.
  opt.client_byte_budget = bytes.size() * 10;  // room for exactly 10 stored
  Server server(opt);

  Client client(opt.socket_path);
  int seq = 0;
  // Pipelined without waiting; the ids cannot collide with the
  // client's own numeric ones.
  const auto send_upload = [&] {
    const std::string id = "u" + std::to_string(seq);
    client.send_line(
        framed_header(id, "t" + std::to_string(seq++), bytes.size()));
    client.send_bytes(bytes);
    return id;
  };

  // Stuff the single worker and depth-1 queue with selfdiagnose jobs,
  // then fire uploads at the full queue: the "overloaded" rejections
  // must refund the admission charge, or retrying clients burn their
  // budget without storing anything.
  int stored = 0;
  int overloaded = 0;
  int spurious_budget = 0;
  for (int round = 0; round < 60 && overloaded == 0 && stored <= 6;
       ++round) {
    std::vector<std::string> stuffers;
    std::vector<std::string> uploads;
    for (int i = 0; i < 4; ++i) stuffers.push_back(client.send("selfdiagnose"));
    for (int i = 0; i < 4; ++i) {
      uploads.push_back(send_upload());
    }
    for (const auto& id : stuffers) (void)client.collect(id);
    for (const auto& id : uploads) {
      const auto r = client.collect(id);
      if (r.ok()) {
        ++stored;
      } else if (r.error == wire::ErrorCode::kOverloaded) {
        ++overloaded;
      } else if (r.error == wire::ErrorCode::kBudgetExceeded) {
        ++spurious_budget;
      }
    }
  }
  EXPECT_GT(overloaded, 0) << "queue never saturated; nothing exercised";
  EXPECT_EQ(spurious_budget, 0)
      << "overload-rejected uploads consumed the byte budget";

  // The refunded budget is genuinely available: fill all 10 slots...
  for (; stored < 10; ++stored) {
    const auto r = client.collect(send_upload());
    ASSERT_TRUE(r.ok()) << r.error_message;
  }
  // ...and only the 11th hits the (still enforced) budget.
  const auto over = client.collect(send_upload());
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.error, wire::ErrorCode::kBudgetExceeded);
  server.stop();
}

TEST(ServerDaemon, SaturatedQueueRejectsAndDiagnosesItself) {
  TempDir scratch;
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.workers = 1;
  opt.queue_limit = 2;
  opt.client_queue_limit = 2;
  Server server(opt);

  const auto [base, cur] = regression_pair(scratch.path());
  {
    Client seed(opt.socket_path);
    ASSERT_TRUE(seed.upload_file("perfknow", "bench", base, "v1").ok());
    ASSERT_TRUE(seed.upload_file("perfknow", "bench", cur, "v2").ok());
  }

  // 8 clients each pipeline 4 diffs without reading: 32 near-
  // simultaneous jobs against 1 worker and a queue of 2 — admission
  // control must reject some with "overloaded".
  constexpr int kClients = 8;
  constexpr int kPerClient = 4;
  std::vector<std::thread> threads;
  std::atomic<int> rejected{0};
  std::atomic<int> completed{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Client client(opt.socket_path);
      std::vector<std::string> ids;
      for (int i = 0; i < kPerClient; ++i) {
        ids.push_back(client.send("diff", diff_params("perfknow")));
      }
      for (const auto& id : ids) {
        const auto r = client.collect(id);
        if (r.ok()) {
          completed.fetch_add(1);
        } else if (r.error == wire::ErrorCode::kOverloaded) {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(rejected.load(), 0);
  EXPECT_GT(completed.load(), 0);
  EXPECT_EQ(server.stats().rejected_overload,
            static_cast<std::uint64_t>(rejected.load()));
  // Ping still answers inline while/after the queue was saturated.
  Client health(opt.socket_path);
  EXPECT_TRUE(health.call("ping").ok());

  // The closed loop: the server's own telemetry, fed through
  // rules/self_diagnosis.rules, diagnoses the saturation — with a
  // proof tree grounded in the rejection counter.
  auto self = health.call("selfdiagnose");
  ASSERT_TRUE(self.ok()) << self.error_message;
  bool diagnosed = false;
  bool grounded = false;
  for (const auto& ev : self.events) {
    if (ev.event == "diagnosis" &&
        ev.data.find("ServerQueueSaturated") != std::string::npos) {
      diagnosed = true;
    }
    if (ev.event == "explanation" &&
        ev.data.find("ServerQueueSaturated") != std::string::npos &&
        ev.data.find("server.rejected.overload") != std::string::npos) {
      grounded = true;
    }
  }
  EXPECT_TRUE(diagnosed) << "no ServerQueueSaturated diagnosis streamed";
  EXPECT_TRUE(grounded) << "proof tree not grounded in the counter";
  server.stop();
}

TEST(ServerDaemon, WatchStreamsFramedStatsDeltaEventsThenResult) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);

  Client client(opt.socket_path);
  // Pipeline: start the watch, then keep pinging while it streams. The
  // ping responses interleave with watch events on the same socket, so
  // this also proves the per-id parking keeps the streams apart.
  const auto id = client.send("watch", "{\"interval\":0.05,\"count\":3}");
  ASSERT_TRUE(client.call("ping").ok());
  ASSERT_TRUE(client.call("ping").ok());
  const auto r = client.collect(id);
  ASSERT_TRUE(r.ok()) << r.error_message;
  ASSERT_EQ(r.events.size(), 3u);
  EXPECT_EQ(r.result, "{\"events\":3}");

  for (std::size_t i = 0; i < r.events.size(); ++i) {
    const auto& ev = r.events[i];
    EXPECT_EQ(ev.event, "stats");
    EXPECT_NE(ev.line.find("\"api\":\"perfknow.api/1\""),
              std::string::npos);
    const auto data = pk::json::parse(ev.data);
    ASSERT_NE(data.find("seq"), nullptr);
    EXPECT_EQ(data.find("seq")->number, static_cast<double>(i + 1));
    ASSERT_NE(data.find("interval"), nullptr);
    const auto* stats = data.find("stats");
    ASSERT_NE(stats, nullptr);
    for (const char* key :
         {"connections", "requests", "executed", "rejected_overload",
          "rejected_budget", "uploads", "queue_depth"}) {
      EXPECT_NE(stats->find(key), nullptr) << "stats missing " << key;
    }
    const auto* delta = data.find("delta");
    ASSERT_NE(delta, nullptr);
    for (const char* key : {"requests", "executed", "rejected_overload",
                            "rejected_budget", "uploads"}) {
      EXPECT_NE(delta->find(key), nullptr) << "delta missing " << key;
    }
  }
  // The cumulative counters never decrease across events, and the two
  // pings issued mid-stream show up in the totals by the last event.
  const auto first = pk::json::parse(r.events.front().data);
  const auto last = pk::json::parse(r.events.back().data);
  EXPECT_GE(last.find("stats")->find("requests")->number,
            first.find("stats")->find("requests")->number);
  EXPECT_GE(last.find("stats")->find("requests")->number, 3.0);
  server.stop();
}

TEST(ServerDaemon, WatchValidatesIntervalAndCount) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);
  Client client(opt.socket_path);

  auto too_fast = client.call("watch", "{\"interval\":0.01}");
  EXPECT_FALSE(too_fast.ok());
  EXPECT_EQ(too_fast.error, wire::ErrorCode::kBadRequest);
  EXPECT_NE(too_fast.error_message.find("interval"), std::string::npos);

  auto bad_type = client.call("watch", "{\"interval\":\"fast\"}");
  EXPECT_FALSE(bad_type.ok());
  EXPECT_EQ(bad_type.error, wire::ErrorCode::kBadRequest);

  auto bad_count =
      client.call("watch", "{\"interval\":1,\"count\":-1}");
  EXPECT_FALSE(bad_count.ok());
  EXPECT_EQ(bad_count.error, wire::ErrorCode::kBadRequest);
  EXPECT_NE(bad_count.error_message.find("count"), std::string::npos);

  // The connection survives rejected watches.
  EXPECT_TRUE(client.call("ping").ok());
  server.stop();
}

TEST(ServerDaemon, WatchStreamExhaustsTheConnectionByteBudget) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  // Room for roughly two event lines (~230 bytes each): the stream must
  // then be cut off by the same admission control uploads face.
  opt.client_byte_budget = 512;
  Server server(opt);

  Client client(opt.socket_path);
  const auto r = client.call("watch", "{\"interval\":0.05,\"count\":0}");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, wire::ErrorCode::kBudgetExceeded);
  EXPECT_GE(r.events.size(), 1u);
  EXPECT_LT(r.events.size(), 4u);
  EXPECT_EQ(server.stats().rejected_budget, 1u);
  server.stop();
}

TEST(ServerDaemon, ServesAnAttachedRepositoryDirectory) {
  TempDir repo_dir;
  TempDir scratch;
  {
    // Seed a repository on disk the daemon will attach lazily.
    pk::perfdmf::Repository repo;
    const auto [base, cur] = regression_pair(scratch.path());
    repo.put_version("perfknow", "bench",
                     std::make_shared<pk::profile::Trial>(
                         pk::io::trial_from_benchmark_files({base}, "v1")));
    repo.put_version("perfknow", "bench",
                     std::make_shared<pk::profile::Trial>(
                         pk::io::trial_from_benchmark_files({cur}, "v2")));
    repo.save(repo_dir.path());
  }
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.repository_dir = repo_dir.path();
  Server server(opt);
  Client client(opt.socket_path);
  auto diff = client.call("diff", diff_params("perfknow"));
  ASSERT_TRUE(diff.ok()) << diff.error_message;
  EXPECT_NE(diff.result.find("\"regression\":true"), std::string::npos);
  server.stop();
}

TEST(ServerDaemon, AnalysisLeavesAttachedSnapshotsClean) {
  // The pipelines read trials through verified views, never through the
  // mutable get(), so analyzing and diffing an attached repository
  // leaves every entry clean: saving back to the same directory must not
  // rewrite (temp file + rename) a single snapshot.
  TempDir repo_dir;
  TempDir scratch;
  {
    pk::perfdmf::Repository repo;
    const auto [base, cur] = regression_pair(scratch.path());
    repo.put_version("perfknow", "bench",
                     std::make_shared<pk::profile::Trial>(
                         pk::io::trial_from_benchmark_files({base}, "v1")));
    repo.put_version("perfknow", "bench",
                     std::make_shared<pk::profile::Trial>(
                         pk::io::trial_from_benchmark_files({cur}, "v2")));
    repo.save(repo_dir.path());
  }
  // snapshot path -> (inode, mtime seconds, mtime nanoseconds)
  const auto stamps = [&] {
    std::map<std::string, std::tuple<ino_t, long, long>> out;
    for (const auto& e : fs::recursive_directory_iterator(repo_dir.path())) {
      if (e.path().extension() != ".pkb") continue;
      struct stat st {};
      EXPECT_EQ(::stat(e.path().c_str(), &st), 0) << e.path();
      out[e.path().string()] = {st.st_ino, st.st_mtim.tv_sec,
                                st.st_mtim.tv_nsec};
    }
    return out;
  };
  const auto before = stamps();
  ASSERT_EQ(before.size(), 2u);

  auto repo = pk::perfdmf::Repository::attach(repo_dir.path());
  pk::server::AnalyzeParams analyze;
  analyze.application = "perfknow";
  analyze.experiment = "bench";
  analyze.trial = "v2";
  pk::rules::RuleHarness analysis_harness;
  (void)pk::server::run_analysis(repo, analyze, {}, analysis_harness);
  pk::server::DiffParams diff;
  diff.application = "perfknow";
  diff.experiment = "bench";
  diff.base = "v1";
  diff.current = "v2";
  pk::rules::RuleHarness diff_harness;
  EXPECT_TRUE(pk::server::run_diff(repo, diff, diff_harness).regression);

  repo.save(repo_dir.path());
  EXPECT_EQ(stamps(), before);
}

// ---- uploads committed to the repository directory ---------------------

namespace {

/// An MSAP schedule-study profile (the static schedule fires the
/// load-balance rules) written to `file` in the format its extension
/// names.
fs::path write_msap_body(const fs::path& file, bool dynamic,
                         std::size_t threads) {
  pk::machine::Machine m(pk::machine::MachineConfig::altix300());
  pk::apps::msap::MsapConfig cfg;
  cfg.threads = threads;
  cfg.schedule = dynamic ? pk::runtime::Schedule::dynamic(1)
                         : pk::runtime::Schedule::static_even();
  pk::io::save_trial(pk::apps::msap::run_msap(m, cfg).trial, file);
  return file;
}

std::string trial_params(const std::string& exp, const std::string& trial) {
  return "{\"application\":\"MSAP\",\"experiment\":" + pk::json::quote(exp) +
         ",\"trial\":" + pk::json::quote(trial) + "}";
}

/// Every streamed line of a response plus its result (or error) data.
std::vector<std::string> response_lines(const Client::Response& r) {
  std::vector<std::string> out;
  for (const auto& ev : r.events) out.push_back(ev.line);
  out.push_back(r.ok() ? r.result : r.error_message);
  return out;
}

std::vector<fs::path> temp_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.path().extension() == ".tmp") out.push_back(e.path());
  }
  return out;
}

}  // namespace

TEST(ServerDaemon, AcknowledgedUploadsSurviveARestart) {
  TempDir repo_dir;  // exists, but holds no index.tsv yet
  TempDir scratch;
  const fs::path v1 = write_msap_body(scratch.path() / "v1.pkb", false, 16);
  const fs::path v2 = write_msap_body(scratch.path() / "v2.json", true, 16);
  const fs::path v3 = write_msap_body(scratch.path() / "v3.pkb", false, 8);
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.repository_dir = repo_dir.path();

  // The same requests from a fresh client, so the ids match too.
  const auto queries = [&] {
    Client client(opt.socket_path);
    std::vector<std::vector<std::string>> out;
    for (const char* v : {"v1", "v2", "v3"}) {
      out.push_back(response_lines(client.call("analyze",
                                               trial_params("runs", v))));
    }
    for (const auto& [base, cur] :
         std::vector<std::pair<std::string, std::string>>{{"v1", "v2"},
                                                          {"v2", "v3"}}) {
      out.push_back(response_lines(client.call(
          "diff", "{\"application\":\"MSAP\",\"experiment\":\"runs\","
                  "\"base\":\"" + base + "\",\"current\":\"" + cur + "\"}")));
    }
    return out;
  };

  std::vector<std::vector<std::string>> before;
  {
    Server server(opt);
    Client client(opt.socket_path);
    for (const auto& [body, version] :
         std::vector<std::pair<fs::path, std::string>>{
             {v1, "v1"}, {v2, "v2"}, {v3, "v3"}}) {
      const auto r = client.upload_file("MSAP", "runs", body, version);
      ASSERT_TRUE(r.ok()) << version << ": " << r.error_message;
    }
    before = queries();
    // The static schedule is diagnosed, so the lines carry diagnoses.
    ASSERT_GT(before[0].size(), 1u);
  }  // the daemon is gone; only the directory remains

  EXPECT_TRUE(fs::exists(repo_dir.path() / "index.tsv"));
  EXPECT_TRUE(temp_files(repo_dir.path()).empty());
  const auto attached = pk::perfdmf::Repository::attach(repo_dir.path());
  EXPECT_EQ(attached.history("MSAP", "runs"),
            (std::vector<std::string>{"v1", "v2", "v3"}));
  EXPECT_EQ(attached.predecessor_of("MSAP", "runs", "v3"), "v2");

  Server restarted(opt);
  EXPECT_EQ(queries(), before);
  {
    std::shared_lock<std::shared_mutex> lock(restarted.repository_mutex());
    EXPECT_EQ(restarted.repository().history("MSAP", "runs"),
              (std::vector<std::string>{"v1", "v2", "v3"}));
  }
  restarted.stop();
}

TEST(ServerDaemon, AMalformedRepositoryIndexStillFailsLocated) {
  TempDir repo_dir;
  {
    std::ofstream os(repo_dir.path() / "index.tsv");
    os << "app\texp\n";
  }
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.repository_dir = repo_dir.path();
  try {
    Server server(opt);
    FAIL() << "a malformed index was accepted";
  } catch (const pk::ParseError& e) {
    EXPECT_NE(e.file().find("index.tsv"), std::string::npos) << e.what();
  }
}

TEST(ServerDaemon, CommittedUploadsStayWithinTheCacheBudget) {
  TempDir repo_dir;
  TempDir scratch;
  const fs::path pkb = write_msap_body(scratch.path() / "s.pkb", false, 16);
  const fs::path json = write_msap_body(scratch.path() / "d.json", true, 16);
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.repository_dir = repo_dir.path();
  opt.cache_budget = std::numeric_limits<std::size_t>::max();
  Server server(opt);
  Client client(opt.socket_path);
  const auto version = [](int i) { return "u" + std::to_string(i); };

  // One upload's charge sizes the budget: about three of them fit.
  ASSERT_TRUE(client.upload_file("MSAP", "runs", pkb, version(0)).ok());
  const std::size_t one = server.repository().cached_bytes();
  ASSERT_GT(one, 0u);
  const std::size_t budget = 3 * one + one / 2;
  {
    std::unique_lock<std::shared_mutex> lock(server.repository_mutex());
    server.repository().set_cache_budget(budget);
  }

  constexpr int kUploads = 20;
  std::vector<std::vector<std::string>> first(kUploads);
  const auto analyze = [&](int i) {
    auto lines = response_lines(
        client.call("analyze", trial_params("runs", version(i))));
    // Ids differ between rounds; the payload must not.
    for (auto& line : lines) {
      line = std::regex_replace(line, std::regex("\"id\":\"[0-9]+\""), "");
    }
    return lines;
  };
  first[0] = analyze(0);
  for (int i = 1; i < kUploads; ++i) {
    const auto r = client.upload_file("MSAP", "runs", i % 2 ? json : pkb,
                                      version(i));
    ASSERT_TRUE(r.ok()) << version(i) << ": " << r.error_message;
    EXPECT_LE(server.repository().cached_bytes(), budget) << version(i);
    first[i] = analyze(i);
    EXPECT_LE(server.repository().cached_bytes(), budget) << version(i);
  }
  EXPECT_LT(server.repository().resident_trials(),
            static_cast<std::size_t>(kUploads));
  // Evicted uploads reload from their snapshots and analyze the same.
  for (int i = 0; i < kUploads; ++i) {
    EXPECT_EQ(analyze(i), first[i]) << version(i);
    EXPECT_LE(server.repository().cached_bytes(), budget);
  }

  // A reload verifies the snapshot's column checksum: damage the
  // least recently used upload's file on disk.
  std::string rel;
  for (const auto& row : pk::perfdmf::parse_index(
           pk::read_file_bytes(repo_dir.path() / "index.tsv", "index"))) {
    if (row.application == "MSAP" && row.experiment == "runs" &&
        row.trial == "u0") {
      rel = row.path;
    }
  }
  ASSERT_FALSE(rel.empty());
  {
    std::fstream f(repo_dir.path() / rel,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-32, std::ios::end);
    char c = 0;
    f.get(c);
    f.seekp(-32, std::ios::end);
    f.put(static_cast<char>(c ^ 0x01));
  }
  const auto damaged =
      client.call("analyze", trial_params("runs", version(0)));
  EXPECT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.error, wire::ErrorCode::kParse) << damaged.error_message;
  EXPECT_NE(damaged.error_message.find("checksum"), std::string::npos)
      << damaged.error_message;
  server.stop();
}

TEST(ServerDaemon, ConcurrentUploadsChainInTheOrderTheyWereAcknowledged) {
  TempDir repo_dir;
  TempDir scratch;
  const auto [base, cur] = regression_pair(scratch.path());
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.repository_dir = repo_dir.path();
  opt.workers = 3;
  Server server(opt);

  // Clients a and c share one experiment; b has its own.
  using Clock = std::chrono::steady_clock;
  struct Upload {
    std::string version;
    Clock::time_point sent, acked;
  };
  constexpr int kEach = 6;
  const std::vector<std::pair<std::string, std::string>> clients{
      {"a", "shared"}, {"b", "solo"}, {"c", "shared"}};
  std::vector<std::vector<Upload>> log(clients.size());
  std::vector<std::string> failures(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(opt.socket_path);
        for (int i = 1; i <= kEach; ++i) {
          Upload u{clients[c].first + std::to_string(i), Clock::now(), {}};
          const auto r = client.upload_file("perfknow", clients[c].second,
                                            i % 2 ? base : cur, u.version);
          u.acked = Clock::now();
          if (!r.ok()) {
            failures[c] = u.version + ": " + r.error_message;
            return;
          }
          log[c].push_back(u);
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& f : failures) ASSERT_TRUE(f.empty()) << f;
  server.stop();

  const auto repo = pk::perfdmf::Repository::attach(repo_dir.path());
  const auto check = [&](const std::string& exp,
                         const std::vector<std::size_t>& members) {
    const auto chain = repo.history("perfknow", exp);
    std::map<std::string, std::size_t> position;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      position[chain[i]] = i;
      EXPECT_EQ(repo.predecessor_of("perfknow", exp, chain[i]),
                i == 0 ? "" : chain[i - 1])
          << exp << " link " << i;
    }
    std::vector<Upload> uploads;
    for (const std::size_t c : members) {
      uploads.insert(uploads.end(), log[c].begin(), log[c].end());
    }
    ASSERT_EQ(chain.size(), uploads.size()) << exp;
    // An upload acknowledged before another was sent precedes it.
    for (const auto& x : uploads) {
      ASSERT_EQ(position.count(x.version), 1u) << x.version;
      for (const auto& y : uploads) {
        if (x.acked < y.sent) {
          EXPECT_LT(position[x.version], position[y.version])
              << exp << ": " << x.version << " was acked before "
              << y.version << " was sent";
        }
      }
    }
  };
  check("shared", {0, 2});
  check("solo", {1});
  EXPECT_TRUE(temp_files(repo_dir.path()).empty());
}

TEST(ServerDaemon, AFailedCommitStepLeavesTheOldOrTheNewRepository) {
  namespace detail = pk::perfdmf::detail;
  TempDir repo_dir;
  TempDir scratch;
  const auto [base, cur] = regression_pair(scratch.path());
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.repository_dir = repo_dir.path();
  Server server(opt);
  Client client(opt.socket_path);
  ASSERT_TRUE(client.upload_file("perfknow", "bench", base, "v1").ok());

  // The history on disk, every snapshot it names opened and verified.
  using State = std::vector<std::pair<std::string, std::string>>;
  const auto on_disk = [&] {
    const auto repo = pk::perfdmf::Repository::attach(repo_dir.path());
    State out;
    for (const auto& v : repo.history("perfknow", "bench")) {
      EXPECT_NO_THROW((void)repo.verified_view("perfknow", "bench", v)) << v;
      out.emplace_back(v, repo.predecessor_of("perfknow", "bench", v));
    }
    return out;
  };

  const std::uint64_t start = detail::operation_count();
  ASSERT_TRUE(client.upload_file("perfknow", "bench", cur, "v2").ok());
  const std::uint64_t steps = detail::operation_count() - start;
  // The snapshot (write, fsync, rename, directory fsync), then lineage
  // and index together (two each of write, fsync and rename, then one
  // directory fsync).
  EXPECT_GE(steps, 11u);

  for (std::uint64_t k = 1; k <= steps; ++k) {
    const State pre = on_disk();
    const std::string version = "f" + std::to_string(k);
    detail::fail_nth_operation(k);
    const auto r = client.upload_file("perfknow", "bench", cur, version);
    detail::fail_nth_operation(0);
    EXPECT_FALSE(r.ok()) << "step " << k;
    EXPECT_EQ(r.error, wire::ErrorCode::kIo) << r.error_message;

    State post = pre;
    post.emplace_back(version, pre.back().first);
    const State now = on_disk();
    EXPECT_TRUE(now == pre || now == post) << "step " << k;
    EXPECT_TRUE(temp_files(repo_dir.path()).empty()) << "step " << k;

    // The daemon keeps serving, and the next commit persists whatever
    // the failed one left in memory.
    EXPECT_TRUE(client.call("ping").ok());
    const std::string next = "g" + std::to_string(k);
    ASSERT_TRUE(client.upload_file("perfknow", "bench", base, next).ok());
    const auto analyzed =
        client.call("analyze", "{\"application\":\"perfknow\","
                               "\"experiment\":\"bench\",\"trial\":\"" +
                                   next + "\"}");
    EXPECT_TRUE(analyzed.ok()) << analyzed.error_message;
    std::shared_lock<std::shared_mutex> lock(server.repository_mutex());
    EXPECT_EQ(on_disk().size(),
              server.repository().history("perfknow", "bench").size());
  }
  server.stop();
}

// ---- framed upload bodies ---------------------------------------------

TEST(Wire, BodyLengthValidatesTheFramedByteCount) {
  const auto length = [](const std::string& params) {
    return wire::body_length(
        wire::parse_request(R"({"api":"perfknow.api/1","id":"1",)"
                            R"("method":"upload","params":)" +
                            params + "}"),
        100);
  };
  EXPECT_EQ(length(R"({"body":"QUJD"})"), std::nullopt);
  EXPECT_EQ(length(R"({"body_bytes":0})"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(length(R"({"body_bytes":100})"),
            std::optional<std::uint64_t>(100));
  const auto message_of = [&](const std::string& params) {
    try {
      (void)length(params);
    } catch (const wire::WireError& e) {
      EXPECT_EQ(e.code(), wire::ErrorCode::kBadRequest);
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  for (const char* bad : {R"({"body_bytes":-1})", R"({"body_bytes":1.5})",
                          R"({"body_bytes":"4"})", R"({"body_bytes":null})",
                          R"({"body_bytes":1e300})"}) {
    EXPECT_NE(message_of(bad).find("non-negative integer"),
              std::string::npos)
        << bad;
  }
  EXPECT_EQ(message_of(R"({"body_bytes":101})"),
            "request params.body_bytes of 101 exceeds the 100-byte cap");
}

TEST(Wire, LineBufferHandsOutTheRawBytesAfterALine) {
  wire::LineBuffer buffer;
  const std::string in = "head\nRAW\nBYTES\nnext\npartial";
  std::memcpy(buffer.prepare(in.size()), in.data(), in.size());
  buffer.commit(in.size());
  std::string_view line;
  ASSERT_TRUE(buffer.next_line(line));
  EXPECT_EQ(line, "head");
  // A body may hold newlines; they are data, not framing.
  EXPECT_EQ(buffer.take(10), "RAW\nBYTES\n");
  ASSERT_TRUE(buffer.next_line(line));
  EXPECT_EQ(line, "next");
  EXPECT_FALSE(buffer.next_line(line));
  // take() stops at what has arrived.
  EXPECT_EQ(buffer.take(100), "partial");
  EXPECT_EQ(buffer.pending(), 0u);
}

namespace {

/// The sum of every inclusive and exclusive cell of a trial.
double cell_sum(const pk::profile::Trial& t) {
  double sum = 0.0;
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
        sum += t.inclusive(th, e, m) + t.exclusive(th, e, m);
      }
    }
  }
  return sum;
}

/// `lines` with their request ids blanked, so the lines of two requests
/// can be compared.
std::vector<std::string> without_ids(std::vector<std::string> lines) {
  for (auto& line : lines) {
    line = std::regex_replace(line, std::regex("\"id\":\"[0-9]+\""), "");
  }
  return lines;
}

std::vector<std::string> without_ids(const Client::Response& r) {
  return without_ids(response_lines(r));
}

std::string small_csv(int rows) {
  std::string csv = "event,thread,metric,inclusive,exclusive,calls,subcalls\n"
                    "main,0,TIME,5,4,1,1\n";
  for (int i = 0; i < rows; ++i) {
    csv += "main => f" + std::to_string(i) + ",0,TIME,1,1,2,0\n";
  }
  return csv;
}

}  // namespace

TEST(ServerDaemon, FramedUploadsStoreAndAnalyzeLikeALocalOpen) {
  TempDir scratch;
  const std::vector<fs::path> files = {
      write_msap_body(scratch.path() / "s.pkb", false, 8),
      write_msap_body(scratch.path() / "d.json", true, 8),
      write_msap_body(scratch.path() / "c.csv", false, 4),
      [&] {
        const fs::path tau = scratch.path() / "p.tau";
        std::ofstream os(tau);
        os << "2 templated_functions_MULTI_TIME\n"
              "# Name Calls Subrs Excl Incl\n"
              "\"main\" 1 1 5 10 0 GROUP=\"TAU_DEFAULT\"\n"
              "\"main => f\" 1 0 5 5 0 GROUP=\"TAU_CALLPATH\"\n";
        return tau;
      }()};
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);
  Client client(opt.socket_path);
  // The same files opened in-process, under the names the uploads get.
  pk::perfdmf::Repository local;
  for (const fs::path& file : files) {
    const std::string trial = file.stem().string();
    const auto framed = client.upload_file("MSAP", "framed", file);
    ASSERT_TRUE(framed.ok()) << file << ": " << framed.error_message;
    EXPECT_EQ(framed.result,
              "{\"trial\":" + pk::json::quote(trial) + ",\"bytes\":" +
                  std::to_string(fs::file_size(file)) + "}");
    auto opened =
        std::make_shared<pk::profile::Trial>(pk::io::open_trial(file));
    opened->set_name(trial);
    local.put("MSAP", "framed", opened);
    {
      std::shared_lock<std::shared_mutex> lock(server.repository_mutex());
      EXPECT_EQ(
          cell_sum(*server.repository().view("MSAP", "framed", trial)),
          cell_sum(*opened))
          << file;
    }
    const std::string id =
        client.send("analyze", trial_params("framed", trial));
    const auto streamed = client.collect(id);
    ASSERT_TRUE(streamed.ok()) << file << ": " << streamed.error_message;
    pk::server::AnalyzeParams params;
    params.application = "MSAP";
    params.experiment = "framed";
    params.trial = trial;
    pk::rules::RuleHarness harness;
    const auto diagnoses =
        pk::server::run_analysis(local, params, {}, harness);
    std::vector<std::string> expected;
    std::size_t explanations = 0;
    for (const auto& d : diagnoses) {
      expected.push_back(wire::diagnosis_line(id, d));
      if (d.provenance) {
        ++explanations;
        expected.push_back(wire::explanation_line(id, *d.provenance));
      }
    }
    expected.push_back("{\"diagnoses\":" + std::to_string(diagnoses.size()) +
                       ",\"explanations\":" + std::to_string(explanations) +
                       "}");
    EXPECT_EQ(response_lines(streamed), expected) << file;
    if (file.extension() == ".pkb") {
      EXPECT_GT(expected.size(), 1u);
    }
  }
  EXPECT_EQ(server.stats().uploads, files.size());
  server.stop();
}

// Uploads, and only uploads, travel framed. One that still carries its
// trial inside the line (a params.body, no body_bytes) is refused by
// name, as is a body on another method; each line was well framed, so
// the connection keeps serving.
TEST(ServerDaemon, OnlyUploadsAreFramedAndEveryUploadIs) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);
  Client client(opt.socket_path);
  const auto old_form = client.call(
      "upload",
      R"({"application":"app","experiment":"exp","trial":"t","body":"QUJD"})");
  EXPECT_EQ(old_form.error, wire::ErrorCode::kBadRequest);
  EXPECT_EQ(old_form.error_message,
            "upload: params.body_bytes must give the byte count of the "
            "trial body that follows the request line");
  const std::string id = client.send("analyze", R"({"body_bytes":4})");
  client.send_bytes("ABCD");
  EXPECT_EQ(client.collect(id).error_message,
            "method 'analyze' takes no framed body");
  EXPECT_TRUE(client.call("ping").ok());
  EXPECT_EQ(server.stats().uploads, 0u);
  server.stop();
}

TEST(ServerDaemon, AFramedBodyArrivingAcrossManyReadsIsReadWhole) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);
  Client client(opt.socket_path);
  // Bigger than one read chunk, and sent in pieces with pauses, so the
  // daemon finds part of it with the line and reads the rest in many
  // recv calls.
  const std::string csv = small_csv(6000);
  ASSERT_GT(csv.size(), std::size_t{128} << 10);
  client.send_line(framed_header("1", "pieces", csv.size()));
  for (std::size_t at = 0; at < csv.size(); at += 16 << 10) {
    client.send_bytes(std::string_view(csv).substr(at, 16 << 10));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // A request right behind the body is framed from where the body ends.
  client.send_line(R"({"api":"perfknow.api/1","id":"2","method":"ping"})");
  const auto r = client.collect("1");
  ASSERT_TRUE(r.ok()) << r.error_message;
  EXPECT_EQ(r.result, "{\"trial\":\"pieces\",\"bytes\":" +
                          std::to_string(csv.size()) + "}");
  EXPECT_EQ(client.collect("2").result, "{\"pong\":true}");
  server.stop();
}

TEST(ServerDaemon, APeerClosingMidBodyGetsALocatedBadRequest) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);
  Client client(opt.socket_path);
  const std::string csv = small_csv(3);
  client.send_line(framed_header("1", "cut", csv.size() + 100));
  client.send_bytes(csv);
  client.shutdown_send();
  const auto r = client.collect("1");
  EXPECT_EQ(r.error, wire::ErrorCode::kBadRequest);
  EXPECT_EQ(r.error_message,
            wire::short_body_message(csv.size() + 100, csv.size()));
  EXPECT_EQ(server.stats().uploads, 0u);
  server.stop();
}

TEST(ServerDaemon, AFramedBodyOverTheBudgetIsDrainedAndTheConnectionKept) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.client_byte_budget = 1024;
  Server server(opt);
  Client client(opt.socket_path);
  TempDir scratch;
  const fs::path big = scratch.path() / "big.csv";
  const fs::path small = scratch.path() / "small.csv";
  {
    std::ofstream(big) << small_csv(200);
    std::ofstream(small) << small_csv(3);
  }
  ASSERT_GT(fs::file_size(big), opt.client_byte_budget);
  const auto over = client.upload_file("app", "exp", big);
  EXPECT_EQ(over.error, wire::ErrorCode::kBudgetExceeded)
      << over.error_message;
  EXPECT_EQ(server.stats().rejected_budget, 1u);
  // The body was drained, not parsed as request lines: the connection
  // still pings and uploads, charged the exact body size.
  EXPECT_TRUE(client.call("ping").ok());
  EXPECT_EQ(server.stats().requests, 2u);
  const std::uint64_t fits = opt.client_byte_budget / fs::file_size(small);
  for (std::uint64_t i = 0; i < fits; ++i) {
    const auto r = client.upload_file("app", "exp", small);
    EXPECT_TRUE(r.ok()) << i << ": " << r.error_message;
  }
  EXPECT_EQ(client.upload_file("app", "exp", small).error,
            wire::ErrorCode::kBudgetExceeded);
  EXPECT_EQ(server.stats().uploads, fits);
  server.stop();
}

TEST(ServerDaemon, AFramedBodyOverTheLineCapClosesTheConnection) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.client_byte_budget = 1024;  // bodies capped at max(this, 64 KiB)
  Server server(opt);
  Client client(opt.socket_path);
  client.send_line(framed_header("1", "huge", std::uint64_t{1} << 30));
  const auto r = client.collect("1");
  EXPECT_EQ(r.error, wire::ErrorCode::kBadRequest);
  EXPECT_NE(r.error_message.find("exceeds the"), std::string::npos)
      << r.error_message;
  EXPECT_NE(r.error_message.find("closing connection"), std::string::npos);
  EXPECT_THROW((void)client.read_line(), pk::IoError);
  Client again(opt.socket_path);
  EXPECT_TRUE(again.call("ping").ok());
  server.stop();
}

// A framed body refused before the queue stored nothing, so its charge
// goes back to the connection's budget: after a 1000-byte body on an
// analyze, a 100-byte upload still fits a 1024-byte budget.
TEST(ServerDaemon, ARefusedFramedBodyGivesItsBudgetBack) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.client_byte_budget = 1024;
  Server server(opt);
  Client client(opt.socket_path);
  const std::string id = client.send("analyze", R"({"body_bytes":1000})");
  client.send_bytes(std::string(1000, 'x'));
  const auto refused = client.collect(id);
  EXPECT_EQ(refused.error, wire::ErrorCode::kBadRequest);
  EXPECT_EQ(refused.error_message, "method 'analyze' takes no framed body");
  TempDir scratch;
  const fs::path small = scratch.path() / "small.csv";
  std::ofstream(small) << small_csv(1);
  ASSERT_GT(fs::file_size(small), opt.client_byte_budget - 1000);
  const auto r = client.upload_file("app", "exp", small);
  EXPECT_TRUE(r.ok()) << r.error_message;
  EXPECT_EQ(server.stats().rejected_budget, 0u);
  EXPECT_EQ(server.stats().uploads, 1u);
  server.stop();
}

// A file that ends before the byte count its request line announced
// cannot complete the frame: the client names the file and closes the
// connection, and the daemon stores nothing.
TEST(ServerDaemon, AFileShorterThanItsFrameClosesTheConnection) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  Server server(opt);
  TempDir scratch;
  const fs::path file = scratch.path() / "short.csv";
  std::ofstream(file) << small_csv(1);
  const std::uint64_t size = fs::file_size(file);
  {
    Client client(opt.socket_path);
    client.send_line(framed_header("1", "short", size + 50));
    const int fd = ::open(file.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    try {
      client.send_file(fd, size + 50, file);
      ADD_FAILURE() << "a short file completed its frame";
    } catch (const pk::IoError& e) {
      EXPECT_EQ(std::string(e.what()),
                "Client::upload_file: " + file.string() + " ended after " +
                    std::to_string(size) + " of " +
                    std::to_string(size + 50) + " bytes");
    }
    ::close(fd);
    EXPECT_THROW((void)client.read_line(), pk::IoError);
  }
  Client again(opt.socket_path);
  EXPECT_TRUE(again.call("ping").ok());
  EXPECT_EQ(server.stats().uploads, 0u);
  server.stop();
}

// The daemon closes a connection whose frame is over the cap as soon as
// it reads the request line: the client's send of the file then fails
// with a typed error, not a SIGPIPE that would kill the process.
TEST(ServerDaemon, AnUploadCutOffMidSendFailsWithoutSigpipe) {
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.client_byte_budget = 1024;
  Server server(opt);
  TempDir scratch;
  const fs::path big = scratch.path() / "big.csv";
  std::ofstream(big) << small_csv(200000);
  ASSERT_GT(fs::file_size(big), std::uint64_t{4} << 20);
  Client client(opt.socket_path);
  try {
    const auto r = client.upload_file("app", "exp", big);
    EXPECT_EQ(r.error, wire::ErrorCode::kBadRequest) << r.error_message;
  } catch (const pk::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("connection"), std::string::npos)
        << e.what();
  }
  Client again(opt.socket_path);
  EXPECT_TRUE(again.call("ping").ok());
  server.stop();
}

TEST(ServerDaemon, AnAnalysisKeepsItsPinnedTrialThroughEviction) {
  TempDir repo_dir;
  TempDir scratch;
  const fs::path body = write_msap_body(scratch.path() / "s.pkb", false, 16);
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.repository_dir = repo_dir.path();
  opt.cache_budget = 1;  // every entry is evicted as soon as it is charged
  opt.workers = 2;
  Server server(opt);
  Client client(opt.socket_path);
  // Stored under its file's stem, "s"; uploading it again replaces it.
  ASSERT_TRUE(client.upload_file("MSAP", "runs", body).ok());
  const auto expected =
      without_ids(client.call("analyze", trial_params("runs", "s")));
  ASSERT_GT(expected.size(), 1u);

  // Resolve and pin, evict and replace the entry, then compute.
  pk::analysis::AnalyzeParams params;
  params.application = "MSAP";
  params.experiment = "runs";
  params.trial = "s";
  pk::perfdmf::ConstTrialPtr pinned;
  {
    std::shared_lock<std::shared_mutex> lock(server.repository_mutex());
    pinned = pk::analysis::resolve_analysis(server.repository(), params);
    EXPECT_EQ(server.repository().resident_trials(), 0u);
  }
  ASSERT_TRUE(client.upload_file("MSAP", "runs", body).ok());
  pk::rules::RuleHarness harness;
  const auto diagnoses =
      pk::analysis::analyze_resolved(*pinned, params, {}, harness);
  std::vector<std::string> lines;
  for (const auto& d : diagnoses) {
    lines.push_back(wire::diagnosis_line("0", d));
    if (d.provenance) {
      lines.push_back(wire::explanation_line("0", *d.provenance));
    }
  }
  std::vector<std::string> streamed = expected;
  streamed.pop_back();  // the result line
  EXPECT_EQ(without_ids(lines), streamed);

  // Analyses racing uploads that evict their trial give the same lines.
  std::atomic<bool> done{false};
  std::thread uploader([&] {
    Client up(opt.socket_path);
    for (int i = 0; !done.load(); ++i) {
      if (!up.upload_file("MSAP", "runs", body, "w" + std::to_string(i))
               .ok()) {
        break;
      }
    }
  });
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(without_ids(client.call("analyze", trial_params("runs", "s"))),
              expected)
        << i;
  }
  done.store(true);
  uploader.join();
  server.stop();
}
