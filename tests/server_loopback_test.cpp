// ExtractionServer loopback integration (PR 8): a report served over the
// wire API is bit-identical to a direct ExtractionEngine::run on the same
// materialized request; SSE progress streams replay and tail in order and
// end with a done frame; a client disconnect mid-stream cancels the job;
// admission sheds as HTTP 503; /stats serves the queue counters; and the
// server starts/stops cleanly with streams open (ASan watches the joins).
// ServerKeepAliveTest covers persistent connections: several requests per
// connection, when the server closes, the client's one retry on a stale
// kept connection, the idle and whole-request deadlines, and reaping of
// finished threads.
#include "server/extraction_server.hpp"
#include "server/http_client.hpp"
#include "wire/json.hpp"

#include "test_support.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace qvg::server {
namespace {

const bool g_force_threads = testsupport::force_multithread_pool();

wire::WireRequest device_wire_request() {
  wire::WireRequest r;
  r.method = ExtractionMethod::kFast;
  r.backend = wire::WireBackendKind::kDevice;
  r.device.params.n_dots = 2;
  r.device.params.cross_ratio = 0.25;
  r.device.params.jitter = 0.05;
  r.device.has_jitter = true;
  r.device.jitter_seed = 7;
  r.device.noise_seed = 123;
  r.device.pixels_per_axis = 64;
  r.device.white_noise_sigma = 0.02;
  r.label = "loopback";
  return r;
}

/// A job that runs until cancelled (for all practical purposes): every
/// probe batch faults transiently, and each retry waits out a wall-clock
/// backoff that polls the CancelToken every millisecond.
wire::WireRequest slow_wire_request() {
  wire::WireRequest r = device_wire_request();
  r.label = "slow";
  r.faults.seed = 1;
  r.faults.transient_rate = 1.0;
  r.retry.max_attempts = 100000;
  r.retry.base_backoff_seconds = 0.05;
  r.retry.backoff_multiplier = 1.0;
  r.retry.jitter_fraction = 0.0;
  r.retry.wall_clock_backoff = true;
  return r;
}

std::string_view as_view(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::span<const std::uint8_t> as_bytes(const std::string& body) {
  return {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()};
}

/// Submit over the wire and return the job id from {"v":1,"job":N}.
/// Returns npos (with a recorded failure) on any unexpected response so a
/// bad submit can't cascade into a null dereference.
constexpr std::size_t kBadJobId = static_cast<std::size_t>(-1);
std::size_t submit(std::uint16_t port, const wire::WireRequest& request,
                   const std::string& query = "") {
  Result<ClientResponse> response = http_call(
      port, "POST", "/v1/jobs" + query, as_view(wire::encode(request)));
  EXPECT_TRUE(response.ok()) << response.status().message();
  if (!response.ok()) return kBadJobId;
  EXPECT_EQ(response.value().status, 200) << response.value().body;
  Result<wire::JsonValue> doc = wire::parse_json(response.value().body);
  EXPECT_TRUE(doc.ok()) << response.value().body;
  const wire::JsonValue* job = doc.ok() ? doc.value().find("job") : nullptr;
  EXPECT_NE(job, nullptr) << response.value().body;
  if (job == nullptr) return kBadJobId;
  return static_cast<std::size_t>(job->as_u64());
}

/// Block until `tenant` has had at least `count` jobs handed to a worker.
/// Admission bounds count *pending* (accepted, not yet dispatched) jobs and
/// dispatch happens asynchronously on the pool, so a test that wants to
/// fill a tenant's pending slot must first let the previous submit leave it.
void wait_until_dispatched(const JobQueue& queue, const std::string& tenant,
                           std::size_t count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const QueueStats stats = queue.stats();
    for (const TenantStats& row : stats.tenants) {
      if (row.tenant == tenant && row.dispatched >= count) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ADD_FAILURE() << "tenant '" << tenant << "' never reached " << count
                << " dispatched jobs";
}

/// The repo's "bit-identical" report contract (the deterministic fields;
/// wall/compute seconds are wall-clock and excluded by design).
void expect_wire_reports_identical(const wire::WireReport& a,
                                   const wire::WireReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.virtual_gates.alpha12, b.virtual_gates.alpha12);
  EXPECT_EQ(a.virtual_gates.alpha21, b.virtual_gates.alpha21);
  EXPECT_EQ(a.slope_steep, b.slope_steep);
  EXPECT_EQ(a.slope_shallow, b.slope_shallow);
  EXPECT_EQ(a.stats.unique_probes, b.stats.unique_probes);
  EXPECT_EQ(a.stats.total_requests, b.stats.total_requests);
  EXPECT_DOUBLE_EQ(a.stats.simulated_seconds, b.stats.simulated_seconds);
  EXPECT_EQ(a.fault_stats.transient_faults, b.fault_stats.transient_faults);
  EXPECT_EQ(a.fault_stats.drift_events, b.fault_stats.drift_events);
  EXPECT_EQ(a.fault_stats.retries, b.fault_stats.retries);
  EXPECT_EQ(a.fault_stats.reacquired_rows, b.fault_stats.reacquired_rows);
  EXPECT_EQ(a.job_attempts, b.job_attempts);
  EXPECT_EQ(a.has_verdict, b.has_verdict);
  EXPECT_EQ(a.verdict.success, b.verdict.success);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.method, b.method);
}

TEST(ServerLoopbackTest, ServedReportIsBitIdenticalToDirectEngineRun) {
  const wire::WireRequest request = device_wire_request();

  // The ground truth: materialize the same wire request locally and run the
  // engine on it directly.
  Result<wire::MaterializedRequest> direct = wire::materialize(request);
  ASSERT_TRUE(direct.ok()) << direct.status().message();
  const ExtractionEngine engine;
  const wire::WireReport expected =
      wire::WireReport::from(engine.run(direct.value().request));

  ExtractionServer server;
  ASSERT_TRUE(server.start().ok());
  const std::size_t id = submit(server.port(), request);

  // Binary lane, blocking fetch.
  Result<ClientResponse> response = http_call(
      server.port(), "GET", "/v1/jobs/" + std::to_string(id) + "?wait=1");
  ASSERT_TRUE(response.ok()) << response.status().message();
  ASSERT_EQ(response.value().status, 200);
  Result<wire::WireReport> served =
      wire::decode_report(as_bytes(response.value().body));
  ASSERT_TRUE(served.ok()) << served.status().message();
  expect_wire_reports_identical(served.value(), expected);
  EXPECT_TRUE(served.value().status.ok()) << served.value().status.message();

  // JSON lane: the same report through format=json must carry the same
  // deterministic fields.
  Result<ClientResponse> json_response =
      http_call(server.port(), "GET",
                "/v1/jobs/" + std::to_string(id) + "?wait=1&format=json");
  ASSERT_TRUE(json_response.ok());
  ASSERT_EQ(json_response.value().status, 200);
  Result<wire::WireReport> json_served =
      wire::report_from_json(json_response.value().body);
  ASSERT_TRUE(json_served.ok()) << json_served.status().message();
  expect_wire_reports_identical(json_served.value(), expected);
  server.stop();
}

TEST(ServerLoopbackTest, JsonSubmitLaneMatchesTheBinaryLane) {
  const wire::WireRequest request = device_wire_request();
  Result<wire::MaterializedRequest> direct = wire::materialize(request);
  ASSERT_TRUE(direct.ok());
  const ExtractionEngine engine;
  const wire::WireReport expected =
      wire::WireReport::from(engine.run(direct.value().request));

  ExtractionServer server;
  ASSERT_TRUE(server.start().ok());
  Result<ClientResponse> posted =
      http_call(server.port(), "POST", "/v1/jobs", wire::to_json(request),
                "application/json");
  ASSERT_TRUE(posted.ok());
  ASSERT_EQ(posted.value().status, 200) << posted.value().body;
  Result<wire::JsonValue> doc = wire::parse_json(posted.value().body);
  ASSERT_TRUE(doc.ok());
  const std::string id = std::to_string(doc.value().find("job")->as_u64());

  Result<ClientResponse> response =
      http_call(server.port(), "GET", "/v1/jobs/" + id + "?wait=1");
  ASSERT_TRUE(response.ok());
  Result<wire::WireReport> served =
      wire::decode_report(as_bytes(response.value().body));
  ASSERT_TRUE(served.ok());
  expect_wire_reports_identical(served.value(), expected);
}

TEST(ServerLoopbackTest, ProgressStreamReplaysInOrderAndEndsWithDone) {
  ExtractionServer server;
  ASSERT_TRUE(server.start().ok());
  const std::size_t id = submit(server.port(), device_wire_request());
  // Let the job finish first: the stream must still replay the full history
  // (late subscribers see everything), then the done frame.
  (void)http_call(server.port(), "GET",
                  "/v1/jobs/" + std::to_string(id) + "?wait=1");

  SseClient sse;
  ASSERT_TRUE(
      sse.connect(server.port(), "/v1/jobs/" + std::to_string(id) + "/events")
          .ok());
  std::vector<ProgressEvent> events;
  bool done_frame = false;
  for (;;) {
    Result<std::optional<std::string>> frame = sse.next_event();
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    if (!frame.value().has_value()) break;
    const std::string& text = *frame.value();
    if (text.rfind("event: done", 0) == 0) {
      done_frame = true;
      continue;
    }
    ASSERT_EQ(text.rfind("data: ", 0), 0u) << text;
    Result<ProgressEvent> event = wire::progress_from_json(text.substr(6));
    ASSERT_TRUE(event.ok()) << event.status().message();
    events.push_back(std::move(event).value());
  }
  EXPECT_TRUE(done_frame);
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().stage, "engine");
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].sequence, i);
    if (i == 0) continue;
    EXPECT_GE(events[i].probes_used, events[i - 1].probes_used);
    EXPECT_GE(events[i].elapsed_seconds, events[i - 1].elapsed_seconds);
    EXPECT_GE(events[i].timestamp_seconds, events[i - 1].timestamp_seconds);
  }
  // The satellite field: a streamed event carries its own wall-clock stamp.
  EXPECT_GT(events.back().timestamp_seconds, 0.0);
}

TEST(ServerLoopbackTest, ClientDisconnectMidStreamCancelsTheJob) {
  ExtractionServer server;
  ASSERT_TRUE(server.start().ok());
  const std::size_t id = submit(server.port(), slow_wire_request());

  // Stream until the first real event proves the job is running, then walk
  // away without saying goodbye.
  {
    SseClient sse;
    ASSERT_TRUE(sse.connect(server.port(),
                            "/v1/jobs/" + std::to_string(id) + "/events")
                    .ok());
    Result<std::optional<std::string>> first = sse.next_event();
    ASSERT_TRUE(first.ok()) << first.status().message();
    ASSERT_TRUE(first.value().has_value());
    sse.close();
  }

  // The server notices on its next keepalive/event write and fires the
  // job's CancelToken; the retry backoff polls it every millisecond.
  Result<ClientResponse> response = http_call(
      server.port(), "GET", "/v1/jobs/" + std::to_string(id) + "?wait=1");
  ASSERT_TRUE(response.ok()) << response.status().message();
  ASSERT_EQ(response.value().status, 200);
  Result<wire::WireReport> report =
      wire::decode_report(as_bytes(response.value().body));
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report.value().status.code(), ErrorCode::kCancelled)
      << report.value().status.message();
  server.stop();
}

TEST(ServerLoopbackTest, CancelEndpointStopsAPendingJob) {
  // One-worker pool, occupied by the slow job: the second job sits pending
  // until the cancel endpoint reaps it.
  ThreadPool pool(1);
  ServerOptions options;
  options.pool = &pool;
  ExtractionServer server(options);
  ASSERT_TRUE(server.start().ok());
  const std::size_t slow_id = submit(server.port(), slow_wire_request());
  const std::size_t pending_id = submit(server.port(), device_wire_request());

  Result<ClientResponse> cancel_pending = http_call(
      server.port(), "POST",
      "/v1/jobs/" + std::to_string(pending_id) + "/cancel");
  ASSERT_TRUE(cancel_pending.ok());
  EXPECT_NE(cancel_pending.value().body.find("\"cancelled\":true"),
            std::string::npos);
  Result<ClientResponse> cancel_slow = http_call(
      server.port(), "POST", "/v1/jobs/" + std::to_string(slow_id) + "/cancel");
  ASSERT_TRUE(cancel_slow.ok());

  for (const std::size_t id : {pending_id, slow_id}) {
    Result<ClientResponse> response = http_call(
        server.port(), "GET", "/v1/jobs/" + std::to_string(id) + "?wait=1");
    ASSERT_TRUE(response.ok());
    Result<wire::WireReport> report =
        wire::decode_report(as_bytes(response.value().body));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().status.code(), ErrorCode::kCancelled) << id;
  }
  // The never-started job issued zero probes.
  Result<ClientResponse> response = http_call(
      server.port(), "GET", "/v1/jobs/" + std::to_string(pending_id));
  Result<wire::WireReport> report =
      wire::decode_report(as_bytes(response.value().body));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().stats.unique_probes, 0);
}

TEST(ServerLoopbackTest, AdmissionShedsWithHttp503AndTypedStatus) {
  ThreadPool pool(1);
  ServerOptions options;
  options.pool = &pool;
  ExtractionServer server(options);
  TenantConfig config;
  config.max_pending = 1;
  server.configure_tenant("quota", config);
  ASSERT_TRUE(server.start().ok());

  // Occupy the worker, fill the tenant's one pending slot, then overflow.
  // The first submit only frees the pending slot once a worker picks the
  // job up, so wait for that dispatch before the submit that must queue.
  const std::size_t running =
      submit(server.port(), slow_wire_request(), "?tenant=quota");
  ASSERT_NE(running, kBadJobId);
  wait_until_dispatched(server.queue(), "quota", 1);
  const std::size_t queued =
      submit(server.port(), device_wire_request(), "?tenant=quota");
  ASSERT_NE(queued, kBadJobId);
  Result<ClientResponse> shed =
      http_call(server.port(), "POST", "/v1/jobs?tenant=quota",
                as_view(wire::encode(device_wire_request())));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.value().status, 503) << shed.value().body;
  Status status;
  ASSERT_TRUE(wire::status_from_json(shed.value().body, status).ok())
      << shed.value().body;
  EXPECT_EQ(status.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(status.stage(), "queue");

  // A malformed body is a 400 with a typed parse error, not a shed.
  Result<ClientResponse> malformed =
      http_call(server.port(), "POST", "/v1/jobs", "not a wire message");
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed.value().status, 400);

  // Unblock the worker and drain.
  (void)http_call(server.port(), "POST",
                  "/v1/jobs/" + std::to_string(running) + "/cancel");
  (void)http_call(server.port(), "POST",
                  "/v1/jobs/" + std::to_string(queued) + "/cancel");
  server.queue().wait_all();

  // The shed submit never became a job: only the two accepted ones reached
  // a worker, so the shed one issued no probe.
  const QueueStats stats = server.queue().stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  std::size_t dispatched = 0;
  for (const TenantStats& row : stats.tenants) dispatched += row.dispatched;
  EXPECT_EQ(dispatched, 2u);
}

TEST(ServerLoopbackTest, StatsEndpointServesQueueAndTenantCounters) {
  ExtractionServer server;
  server.configure_tenant("acme", {.weight = 3.0});
  ASSERT_TRUE(server.start().ok());
  const std::size_t id =
      submit(server.port(), device_wire_request(), "?tenant=acme");
  (void)http_call(server.port(), "GET",
                  "/v1/jobs/" + std::to_string(id) + "?wait=1");

  for (const char* path : {"/v1/stats", "/stats"}) {
    Result<ClientResponse> response = http_call(server.port(), "GET", path);
    ASSERT_TRUE(response.ok()) << path;
    ASSERT_EQ(response.value().status, 200) << path;
    Result<wire::JsonValue> doc = wire::parse_json(response.value().body);
    ASSERT_TRUE(doc.ok()) << path;
    EXPECT_EQ(doc.value().find("submitted")->as_u64(), 1u);
    EXPECT_EQ(doc.value().find("completed")->as_u64(), 1u);
    const wire::JsonValue* tenants = doc.value().find("tenants");
    ASSERT_NE(tenants, nullptr);
    ASSERT_EQ(tenants->items().size(), 1u);
    EXPECT_EQ(tenants->items()[0].find("tenant")->as_string(), "acme");
    EXPECT_EQ(tenants->items()[0].find("weight")->as_double(), 3.0);
    EXPECT_EQ(tenants->items()[0].find("completed")->as_u64(), 1u);
  }
}

TEST(ServerLoopbackTest, UnknownEndpointsAndBadIdsAreClean4xx) {
  ExtractionServer server;
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(http_call(server.port(), "GET", "/nope").value().status, 404);
  EXPECT_EQ(http_call(server.port(), "GET", "/v1/jobs/abc").value().status,
            400);
  EXPECT_EQ(http_call(server.port(), "GET", "/v1/jobs/999").value().status,
            404);
  EXPECT_EQ(http_call(server.port(), "DELETE", "/v1/stats").value().status,
            405);
}

TEST(ServerLoopbackTest, ShutdownEndpointUnblocksWaitForShutdown) {
  ExtractionServer server;
  ASSERT_TRUE(server.start().ok());
  EXPECT_FALSE(server.shutdown_requested());
  std::thread waiter([&] { server.wait_for_shutdown(); });
  Result<ClientResponse> response =
      http_call(server.port(), "POST", "/v1/shutdown");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);
  waiter.join();
  EXPECT_TRUE(server.shutdown_requested());
}

TEST(ServerLoopbackTest, StopWithALiveStreamJoinsCleanly) {
  // stop() closes the listener and shuts open connections down; the SSE
  // handler's next write fails, it unwinds, and every worker thread joins.
  // ASan/TSan-visible leaks or use-after-frees here would fail CI.
  auto server = std::make_unique<ExtractionServer>();
  ASSERT_TRUE(server->start().ok());
  const std::size_t id = submit(server->port(), slow_wire_request());
  SseClient sse;
  ASSERT_TRUE(
      sse.connect(server->port(), "/v1/jobs/" + std::to_string(id) + "/events")
          .ok());
  Result<std::optional<std::string>> first = sse.next_event();
  ASSERT_TRUE(first.ok());

  server->stop();  // also cancels nothing by itself — but the stream dies...
  server.reset();  // ...and the destructor drains the queue.
  SUCCEED();
}

// ------------------------------------------------ persistent connections ---

/// An HttpServer answering every request with "ok" and counting the
/// connections it served (each has its own thread, so a connection's first
/// request is the first its thread handles).
class EchoServer {
 public:
  EchoServer()
      : server_([this](const HttpRequest& request, ResponseWriter& writer) {
          thread_local std::size_t handled_on_this_thread = 0;
          if (handled_on_this_thread++ == 0) ++connections_;
          writer.send(200, "text/plain", "ok " + request.path + "\n");
        }) {}

  Status start(std::uint16_t port = 0) { return server_.start(port); }
  void stop() { server_.stop(); }
  std::uint16_t port() const { return server_.port(); }
  std::size_t connections_served() const { return connections_.load(); }

 private:
  std::atomic<std::size_t> connections_{0};
  HttpServer server_;  // last: its threads use the members above
};

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
          0)
    return fd;
  if (fd >= 0) ::close(fd);
  return -1;
}

/// Send `text` on a fresh connection and read until the server closes it.
std::string raw_exchange(std::uint16_t port, std::string_view text) {
  const int fd = connect_raw(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  EXPECT_EQ(::send(fd, text.data(), text.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(text.size()));
  std::string out;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::size_t count_of(const std::string& text, std::string_view needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1))
    ++count;
  return count;
}

/// A numeric /proc/self/status field ("Threads", "VmSize" in kB).
long proc_status(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind(key + ":", 0) == 0)
      return std::strtol(line.c_str() + key.size() + 1, nullptr, 10);
  ADD_FAILURE() << "no " << key << " in /proc/self/status";
  return -1;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(ServerKeepAliveTest, TwoRequestsOnOneConnectionGetTwoResponses) {
  EchoServer server;
  ASSERT_TRUE(server.start().ok());
  // Both requests in one write: the bytes past the first request's body
  // must be kept as the start of the second.
  const std::string replies = raw_exchange(
      server.port(),
      "POST /first HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
      "GET /second HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(count_of(replies, "HTTP/1.1 200 OK\r\n"), 2u) << replies;
  const std::size_t second = replies.find("ok /second\n");
  ASSERT_NE(second, std::string::npos) << replies;
  EXPECT_LT(replies.find("ok /first\n"), second) << replies;
  EXPECT_EQ(replies.substr(second), "ok /second\n");
  EXPECT_EQ(server.connections_served(), 1u);
}

TEST(ServerKeepAliveTest, ConnectionCloseAndHttp10AreAnsweredWithClose) {
  EchoServer server;
  ASSERT_TRUE(server.start().ok());
  // raw_exchange reads to EOF, so returning at all means the server closed.
  for (const char* request :
       {"GET /a HTTP/1.1\r\nConnection: close\r\n\r\n",
        "GET /a HTTP/1.1\r\nConnection: Keep-Alive, CLOSE\r\n\r\n",
        "GET /a HTTP/1.0\r\n\r\n"}) {
    const std::string reply = raw_exchange(server.port(), request);
    EXPECT_EQ(count_of(reply, "HTTP/1.1 200 OK\r\n"), 1u) << request;
    EXPECT_NE(reply.find("Connection: close\r\n"), std::string::npos)
        << reply;
  }
}

TEST(ServerKeepAliveTest, ChunkedRequestBodyIsRejectedAndClosed) {
  EchoServer server;
  ASSERT_TRUE(server.start().ok());
  // Were the chunk read as the next request, a second response would come.
  const std::string reply = raw_exchange(
      server.port(),
      "POST /a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "13\r\nGET /b HTTP/1.1\r\n\r\n\r\n0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u) << reply;
  EXPECT_EQ(count_of(reply, "HTTP/1.1 "), 1u) << reply;
  EXPECT_NE(reply.find("Connection: close\r\n"), std::string::npos) << reply;
}

TEST(ServerKeepAliveTest, SequentialCallsReuseOneConnectionWithoutStalls) {
  EchoServer server;
  ASSERT_TRUE(server.start().ok());
  // A Nagle/delayed-ACK stall costs ~40 ms per round trip: 50 calls would
  // take 2 s. Unstalled loopback round trips are well under 1 ms.
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50; ++i) {
    Result<ClientResponse> response =
        http_call(server.port(), i % 2 ? "GET" : "POST", "/n", "body");
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response.value().body, "ok /n\n");
  }
  EXPECT_LT(seconds_since(t0), 1.0);
  EXPECT_EQ(server.connections_served(), 1u);
}

TEST(ServerKeepAliveTest, ReusedConnectionToARestartedServerRetriesOnce) {
  std::uint16_t port = 0;
  {
    EchoServer first;
    ASSERT_TRUE(first.start().ok());
    port = first.port();
    ASSERT_TRUE(http_call(port, "GET", "/x").ok());  // parks a connection
  }  // stop() closes the parked connection under the client
  EchoServer second;
  ASSERT_TRUE(second.start(port).ok());
  Result<ClientResponse> response = http_call(port, "GET", "/y");
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response.value().body, "ok /y\n");
}

TEST(ServerKeepAliveTest, PostsOverReusedConnectionsAreSubmittedOnce) {
  ExtractionServer server;
  ASSERT_TRUE(server.start().ok());
  constexpr std::size_t kPosts = 8;
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < kPosts; ++i)
    ids.push_back(submit(server.port(), device_wire_request()));
  for (const std::size_t id : ids) ASSERT_NE(id, kBadJobId);
  server.queue().wait_all();
  Result<ClientResponse> stats = http_call(server.port(), "GET", "/v1/stats");
  ASSERT_TRUE(stats.ok());
  Result<wire::JsonValue> doc = wire::parse_json(stats.value().body);
  ASSERT_TRUE(doc.ok()) << stats.value().body;
  EXPECT_EQ(doc.value().find("submitted")->as_u64(), kPosts);
  EXPECT_EQ(doc.value().find("completed")->as_u64(), kPosts);
}

TEST(ServerKeepAliveTest, StopWithAnIdleKeptConnectionReturnsPromptly) {
  EchoServer server;
  ASSERT_TRUE(server.start().ok());
  ASSERT_TRUE(http_call(server.port(), "GET", "/x").ok());  // now idle
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  EXPECT_LT(seconds_since(t0), 0.2 * HttpServer::kIdleTimeoutSeconds);
}

TEST(ServerKeepAliveTest, IdleConnectionsCloseAtTheDeadlineAndClientsRetry) {
  EchoServer server;
  ASSERT_TRUE(server.start().ok());
  const int idle = connect_raw(server.port());
  ASSERT_GE(idle, 0);
  ASSERT_TRUE(http_call(server.port(), "GET", "/x").ok());  // parked
  const auto t0 = std::chrono::steady_clock::now();
  char byte = 0;
  EXPECT_EQ(::recv(idle, &byte, 1, 0), 0);  // the server's idle close
  const double waited = seconds_since(t0);
  ::close(idle);
  EXPECT_GT(waited, 0.5 * HttpServer::kIdleTimeoutSeconds);
  EXPECT_LT(waited, 2.0 * HttpServer::kIdleTimeoutSeconds);
  // The parked client connection has passed its deadline too.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  Result<ClientResponse> response = http_call(server.port(), "GET", "/y");
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response.value().body, "ok /y\n");
  EXPECT_EQ(server.connections_served(), 2u);
}

TEST(ServerKeepAliveTest, TrickledRequestIsAnswered408AtTheRequestDeadline) {
  EchoServer server;
  ASSERT_TRUE(server.start().ok());
  const int fd = connect_raw(server.port());
  ASSERT_GE(fd, 0);
  // One header byte per second never trips the idle deadline; only the
  // whole-request deadline, counted from the first byte, ends the request.
  timeval pace{};
  pace.tv_sec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &pace, sizeof pace);
  const std::string head = "GET /slow HTTP/1.1\r\nX-Trickle: ";
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(::send(fd, head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));
  const double limit = 2.0 * HttpServer::kRequestTimeoutSeconds;
  std::string reply;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) break;  // the server closed the connection
    if (n > 0) {
      reply.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (seconds_since(t0) > limit) break;
    if (reply.empty()) (void)::send(fd, "a", 1, MSG_NOSIGNAL);
  }
  const double waited = seconds_since(t0);
  ::close(fd);
  EXPECT_EQ(reply.rfind("HTTP/1.1 408 Request Timeout\r\n", 0), 0u) << reply;
  EXPECT_NE(reply.find("Connection: close\r\n"), std::string::npos) << reply;
  EXPECT_GE(waited, HttpServer::kRequestTimeoutSeconds - 1.0);
  EXPECT_LT(waited, limit);
}

TEST(ServerKeepAliveTest, ClosedConnectionThreadsAreReaped) {
  EchoServer server;
  ASSERT_TRUE(server.start().ok());
  const long threads0 = proc_status("Threads");
  const long vm0 = proc_status("VmSize");
  for (int i = 0; i < 500; ++i) {
    const std::string reply = raw_exchange(
        server.port(), "GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
    ASSERT_EQ(reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << reply;
  }
  EXPECT_EQ(server.connections_served(), 500u);
  // An exited thread leaves /proc's count at once, but until it is joined
  // its stack stays mapped: 500 unjoined threads would add ~4 GB of VmSize.
  EXPECT_LE(proc_status("Threads"), threads0 + 4);
  EXPECT_LT(proc_status("VmSize") - vm0, 256L * 1024);
}

}  // namespace
}  // namespace qvg::server
