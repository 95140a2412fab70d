#include "server/extraction_server.hpp"

#include "common/thread_pool.hpp"
#include "wire/json.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace qvg::server {

namespace {

using wire::JsonValue;

/// Per-job progress history: the SSE streamer replays it from the start, so
/// a client that connects late still sees every event in order.
struct EventLog {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<ProgressEvent> events;
};

/// Everything the server keeps per submitted job. The materialized request
/// owns the backend (Csd / BuiltDevice) the queued ExtractionRequest
/// borrows, so the entry must outlive the run; entries live for the
/// server's lifetime.
struct JobEntry {
  wire::MaterializedRequest materialized;
  JobHandle handle;
  std::shared_ptr<EventLog> log;
};

std::string job_id_json(std::size_t id) {
  JsonValue obj = JsonValue::object();
  obj.set("v", JsonValue::unsigned_integer(wire::kWireVersion));
  obj.set("job", JsonValue::unsigned_integer(id));
  return obj.dump();
}

int http_status_for(const Status& status) {
  switch (status.code()) {
    case ErrorCode::kParseError: return 400;
    case ErrorCode::kInvalidRequest: return 400;
    case ErrorCode::kOverloaded: return 503;
    default: return 500;
  }
}

void send_status(ResponseWriter& writer, const Status& status) {
  writer.send(http_status_for(status), "application/json",
              wire::status_to_json(status) + "\n");
}

Priority parse_priority(const std::string& name) {
  if (name == "interactive") return Priority::kInteractive;
  if (name == "batch") return Priority::kBatch;
  return Priority::kNormal;
}

JsonValue stats_json(const QueueStats& stats) {
  JsonValue obj = JsonValue::object();
  obj.set("v", JsonValue::unsigned_integer(wire::kWireVersion));
  obj.set("submitted", JsonValue::unsigned_integer(stats.submitted));
  obj.set("completed", JsonValue::unsigned_integer(stats.completed));
  obj.set("pending", JsonValue::unsigned_integer(stats.pending));
  obj.set("rejected", JsonValue::unsigned_integer(stats.rejected));
  obj.set("driver_batches", JsonValue::integer(stats.driver_batches));
  obj.set("driver_aborted_transfers",
          JsonValue::integer(stats.driver_aborted_transfers));
  obj.set("driver_max_inflight", JsonValue::integer(stats.driver_max_inflight));
  obj.set("transport_stall_seconds",
          JsonValue::number(stats.transport_stall_seconds));
  JsonValue tenants = JsonValue::array();
  for (const TenantStats& t : stats.tenants) {
    JsonValue row = JsonValue::object();
    row.set("tenant", JsonValue::string(t.tenant));
    row.set("weight", JsonValue::number(t.weight));
    row.set("submitted", JsonValue::unsigned_integer(t.submitted));
    row.set("dispatched", JsonValue::unsigned_integer(t.dispatched));
    row.set("completed", JsonValue::unsigned_integer(t.completed));
    row.set("rejected", JsonValue::unsigned_integer(t.rejected));
    row.set("pending", JsonValue::unsigned_integer(t.pending));
    tenants.push_back(std::move(row));
  }
  obj.set("tenants", std::move(tenants));
  return obj;
}

}  // namespace

struct ExtractionServer::Impl {
  ServerOptions options;
  /// On a single-core host the global pool has no workers and post() runs
  /// tasks inline in the calling thread — here that would run the job
  /// inside the HTTP connection handler, so the submit response could not
  /// be sent until the job finished (and cancel-on-disconnect could never
  /// fire). A served job must always run concurrently with its
  /// connections: fall back to an owned single-worker pool when the caller
  /// did not provide one and the global pool would execute inline.
  std::unique_ptr<ThreadPool> owned_pool;
  JobQueue jobs;
  std::unique_ptr<HttpServer> http;

  std::mutex mutex;  // guards entries
  std::map<std::size_t, std::unique_ptr<JobEntry>> entries;

  std::mutex shutdown_mutex;
  std::condition_variable shutdown_cv;
  bool shutdown = false;

  static ThreadPool* effective_pool(const ServerOptions& opts,
                                    std::unique_ptr<ThreadPool>& owned) {
    if (opts.pool != nullptr) return opts.pool;
    if (ThreadPool::global().size() > 1) return nullptr;  // has real workers
    owned = std::make_unique<ThreadPool>(1);
    return owned.get();
  }

  explicit Impl(ServerOptions opts)
      : options(opts), jobs(effective_pool(opts, owned_pool)) {
    if (options.max_pending > 0) jobs.set_max_pending(options.max_pending);
  }

  [[nodiscard]] JobEntry* find(std::size_t id) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = entries.find(id);
    return it == entries.end() ? nullptr : it->second.get();
  }

  void handle(const HttpRequest& request, ResponseWriter& writer) {
    if (request.path == "/v1/jobs" && request.method == "POST")
      return handle_submit(request, writer);
    if (request.path == "/v1/stats" || request.path == "/stats") {
      if (request.method != "GET")
        return writer.send(405, "text/plain", "GET only\n");
      return writer.send(200, "application/json",
                         stats_json(jobs.stats()).dump() + "\n");
    }
    if (request.path == "/v1/shutdown" && request.method == "POST") {
      // Answer BEFORE signalling: wait_for_shutdown() wakes stop(), which
      // tears this very connection down — a response written after the
      // signal races with that teardown and the client can see an empty
      // reply. Once send() queues the bytes, the socket shutdown flushes
      // them (FIN follows the queued data).
      writer.send(200, "application/json", "{\"v\":1,\"ok\":true}\n");
      {
        std::lock_guard<std::mutex> lock(shutdown_mutex);
        shutdown = true;
      }
      shutdown_cv.notify_all();
      return;
    }

    // /v1/jobs/<id>[/cancel|/events]
    constexpr std::string_view prefix = "/v1/jobs/";
    if (request.path.rfind(prefix, 0) == 0) {
      std::string rest = request.path.substr(prefix.size());
      std::string action;
      if (const std::size_t slash = rest.find('/');
          slash != std::string::npos) {
        action = rest.substr(slash + 1);
        rest.resize(slash);
      }
      char* end = nullptr;
      const unsigned long long id = std::strtoull(rest.c_str(), &end, 10);
      if (end == rest.c_str() || *end != '\0')
        return writer.send(400, "text/plain", "malformed job id\n");
      JobEntry* entry = find(static_cast<std::size_t>(id));
      if (entry == nullptr)
        return writer.send(404, "text/plain", "no such job\n");
      if (action.empty() && request.method == "GET")
        return handle_report(*entry, request, writer);
      if (action == "cancel" && request.method == "POST") {
        const bool cancelled = entry->handle.cancel();
        return writer.send(200, "application/json",
                           std::string("{\"v\":1,\"cancelled\":") +
                               (cancelled ? "true" : "false") + "}\n");
      }
      if (action == "events" && request.method == "GET")
        return handle_events(*entry, writer);
    }
    writer.send(404, "text/plain", "unknown endpoint\n");
  }

  void handle_submit(const HttpRequest& request, ResponseWriter& writer) {
    // Decode the WireRequest from whichever lane the client used.
    wire::WireRequest decoded;
    const auto content_type = request.headers.find("content-type");
    const bool is_json = content_type != request.headers.end() &&
                         content_type->second.rfind("application/json", 0) == 0;
    if (is_json) {
      auto result = wire::request_from_json(request.body);
      if (!result.ok()) return send_status(writer, result.status());
      decoded = std::move(result).value();
    } else {
      auto result = wire::decode_request(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(request.body.data()),
          request.body.size()));
      if (!result.ok()) return send_status(writer, result.status());
      decoded = std::move(result).value();
    }

    auto materialized = wire::materialize(decoded);
    if (!materialized.ok()) return send_status(writer, materialized.status());

    auto entry = std::make_unique<JobEntry>();
    entry->materialized = std::move(materialized).value();
    entry->log = std::make_shared<EventLog>();

    SubmitOptions submit;
    submit.tenant = request.query_param("tenant");
    submit.priority = parse_priority(request.query_param("priority", "normal"));
    const std::string retries = request.query_param("max_job_retries", "0");
    submit.max_job_retries = std::atoi(retries.c_str());
    submit.on_progress = [log = entry->log](const ProgressEvent& event) {
      {
        std::lock_guard<std::mutex> lock(log->mutex);
        log->events.push_back(event);
      }
      log->cv.notify_all();
    };

    entry->handle = jobs.submit(entry->materialized.request, std::move(submit));
    const JobHandle handle = entry->handle;
    const std::size_t id = handle.id();
    {
      std::lock_guard<std::mutex> lock(mutex);
      entries.emplace(id, std::move(entry));
    }
    // A shed job comes back already done with kOverloaded: surface it as
    // HTTP 503 right here instead of a job id the client would poll.
    if (const auto report = handle.try_report();
        report.has_value() && report->status.code() == ErrorCode::kOverloaded)
      return send_status(writer, report->status);
    writer.send(200, "application/json", job_id_json(id) + "\n");
  }

  void handle_report(JobEntry& entry, const HttpRequest& request,
                     ResponseWriter& writer) {
    const bool wait = request.query_param("wait") == "1";
    std::optional<ExtractionReport> report;
    if (wait) {
      report = entry.handle.wait();
    } else {
      report = entry.handle.try_report();
      if (!report.has_value())
        return writer.send(202, "application/json",
                           "{\"v\":1,\"done\":false}\n");
    }
    const wire::WireReport wire_report = wire::WireReport::from(*report);
    if (request.query_param("format") == "json")
      return writer.send(200, "application/json",
                         wire::to_json(wire_report) + "\n");
    const std::vector<std::uint8_t> bytes = wire::encode(wire_report);
    writer.send(200, "application/octet-stream",
                std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                 bytes.size()));
  }

  /// SSE progress stream. Replays the job's full event history, then tails
  /// it; sends a comment keepalive on idle ticks so a vanished client is
  /// detected promptly. A failed chunk write = client disconnected -> fire
  /// the job's CancelToken (walking away cancels the work).
  void handle_events(JobEntry& entry, ResponseWriter& writer) {
    writer.begin_stream(200, "text/event-stream");
    std::size_t next = 0;
    for (;;) {
      std::vector<ProgressEvent> fresh;
      {
        std::unique_lock<std::mutex> lock(entry.log->mutex);
        entry.log->cv.wait_for(lock, std::chrono::milliseconds(25), [&] {
          return entry.log->events.size() > next;
        });
        for (; next < entry.log->events.size(); ++next)
          fresh.push_back(entry.log->events[next]);
      }
      bool alive = true;
      if (fresh.empty() && !entry.handle.done()) {
        alive = writer.write_chunk(": keepalive\n\n");
      } else {
        for (const ProgressEvent& event : fresh) {
          alive = writer.write_chunk("data: " + wire::to_json(event) + "\n\n");
          if (!alive) break;
        }
      }
      if (!alive) {
        // Client went away mid-stream: cancel the job it was watching.
        (void)entry.handle.cancel();
        return;
      }
      if (entry.handle.done()) {
        // Drain any events that landed between the snapshot and done().
        std::vector<ProgressEvent> tail;
        {
          std::lock_guard<std::mutex> lock(entry.log->mutex);
          for (; next < entry.log->events.size(); ++next)
            tail.push_back(entry.log->events[next]);
        }
        for (const ProgressEvent& event : tail)
          if (!writer.write_chunk("data: " + wire::to_json(event) + "\n\n")) {
            (void)entry.handle.cancel();
            return;
          }
        (void)writer.write_chunk("event: done\ndata: {\"v\":1}\n\n");
        writer.end_stream();
        return;
      }
    }
  }
};

ExtractionServer::ExtractionServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

ExtractionServer::~ExtractionServer() { stop(); }

Status ExtractionServer::start() {
  impl_->http = std::make_unique<HttpServer>(
      [impl = impl_.get()](const HttpRequest& request,
                           ResponseWriter& writer) {
        impl->handle(request, writer);
      });
  return impl_->http->start(impl_->options.port);
}

std::uint16_t ExtractionServer::port() const noexcept {
  return impl_->http ? impl_->http->port() : 0;
}

void ExtractionServer::configure_tenant(const std::string& tenant,
                                        TenantConfig config) {
  impl_->jobs.configure_tenant(tenant, std::move(config));
}

JobQueue& ExtractionServer::queue() { return impl_->jobs; }

void ExtractionServer::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(impl_->shutdown_mutex);
  impl_->shutdown_cv.wait(lock, [&] { return impl_->shutdown; });
}

bool ExtractionServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(impl_->shutdown_mutex);
  return impl_->shutdown;
}

void ExtractionServer::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->shutdown_mutex);
    impl_->shutdown = true;
  }
  impl_->shutdown_cv.notify_all();
  if (impl_->http) impl_->http->stop();
  impl_->jobs.wait_all();
}

}  // namespace qvg::server
