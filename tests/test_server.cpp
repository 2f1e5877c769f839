// The analysis service end to end: perfknow.api/1 envelope round-trips,
// the daemon under >= 8 concurrent clients, byte-identical streamed
// diagnoses vs in-process runs, budget/backpressure admission, and the
// closed loop where a saturated server diagnoses itself
// (ServerQueueSaturated) with a grounded proof tree.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "io/bench_json.hpp"
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

TEST(Wire, Base64RoundTripsAndRejectsGarbage) {
  for (const std::string& s :
       {std::string(), std::string("a"), std::string("ab"),
        std::string("abc"), std::string("hello world"),
        std::string("\x00\xff\x7f\x01", 4)}) {
    EXPECT_EQ(wire::base64_decode(wire::base64_encode(s)), s);
  }
  EXPECT_THROW((void)wire::base64_decode("not base64!"), wire::WireError);
  EXPECT_THROW((void)wire::base64_decode("QQ=="
                                         "QQ=="),
               wire::WireError);
  // A dangling 6-bit group (non-padding length of 1 mod 4) is truncated
  // input even when its leftover bits happen to be zero ('A' == 0).
  EXPECT_THROW((void)wire::base64_decode("A"), wire::WireError);
  EXPECT_THROW((void)wire::base64_decode("QQQQA"), wire::WireError);
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
  opt.client_byte_budget = 1024;  // line cap ~= 64 KiB slack + 4/3 * this
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

TEST(ServerDaemon, OverloadRejectedUploadsDoNotConsumeBudget) {
  TempDir scratch;
  ServerOptions opt;
  opt.socket_path = socket_path();
  opt.workers = 1;
  opt.queue_limit = 1;
  opt.client_queue_limit = 16;

  const auto file = write_bench_json(scratch.path() / "t.json",
                                     {{"BM_Parse", 120.0}});
  std::string bytes;
  {
    std::ifstream is(file, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  const std::string body = wire::base64_encode(bytes);
  // The admission charge per upload, as the server estimates it.
  const std::size_t charge = body.size() / 4 * 3;
  opt.client_byte_budget = charge * 10;  // room for exactly 10 stored
  Server server(opt);

  Client client(opt.socket_path);
  int seq = 0;
  const auto upload_params = [&] {
    return "{\"application\":\"perfknow\",\"experiment\":\"bench\","
           "\"trial\":\"t" +
           std::to_string(seq++) + "\",\"body\":" + pk::json::quote(body) +
           "}";
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
      uploads.push_back(client.send("upload", upload_params()));
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
    const auto r = client.call("upload", upload_params());
    ASSERT_TRUE(r.ok()) << r.error_message;
  }
  // ...and only the 11th hits the (still enforced) budget.
  const auto over = client.call("upload", upload_params());
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
  opt.enable_telemetry = true;
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
