// ExtractionServer: the embedded HTTP front end of the extraction service.
//
// The stack so far serves one process: ExtractionEngine for synchronous
// calls, JobQueue for asynchronous priority/fairness scheduling. The paper's
// deployment target is a tuning service the lab's orchestration stack talks
// to over the network; ExtractionServer is that last layer — JobQueue
// behind a small, dependency-free HTTP/1.1 wire API (server/http.hpp,
// wire/messages.hpp):
//
//   POST /v1/jobs?tenant=T&priority=P[&max_job_retries=N]
//        Body: a WireRequest — binary (application/octet-stream, default)
//        or JSON (content-type application/json). Replies 200 with
//        {"v":1,"job":<id>}; 400 with a Status body on a malformed or
//        invalid request; 503 with a Status body when admission sheds the
//        job (kOverloaded).
//   GET  /v1/jobs/<id>[?wait=1][&format=json]
//        The job's WireReport — binary by default, JSON with format=json.
//        wait=1 blocks until the job finishes; otherwise an unfinished job
//        answers 202 {"v":1,"done":false}.
//   GET  /v1/jobs/<id>/events
//        Server-sent events: one `data: <progress JSON>` frame per
//        ProgressEvent, a comment keepalive while idle, and a final
//        `event: done` frame when the job finishes. A client that
//        disconnects mid-stream fires the job's CancelToken — walking away
//        from a tuning job cancels the instrument time it was consuming.
//   POST /v1/jobs/<id>/cancel      -> {"v":1,"cancelled":bool}
//   GET  /v1/stats  (alias /stats) -> queue + per-tenant counters as JSON
//   POST /v1/shutdown              -> asks the host to exit
//                                     (wait_for_shutdown() unblocks)
//
// Multi-tenancy: the `tenant` query parameter routes each submission into
// the JobQueue's deficit-weighted fairness scheduler; configure_tenant()
// (pre-start or live) sets weights, per-job budget caps, and per-tenant
// backlog bounds. Completed jobs are kept for the server's lifetime — an
// embedded control-plane registry, not a horizontally-scaled store.
#pragma once

#include "server/http.hpp"
#include "service/job_queue.hpp"
#include "wire/messages.hpp"

#include <cstdint>
#include <memory>
#include <string>

namespace qvg::server {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Worker pool override (nullptr = the global pool).
  ThreadPool* pool = nullptr;
  /// Queue-wide admission bound (JobQueue::set_max_pending); 0 = unlimited.
  std::size_t max_pending = 0;
};

class ExtractionServer {
 public:
  explicit ExtractionServer(ServerOptions options = {});
  ~ExtractionServer();
  ExtractionServer(const ExtractionServer&) = delete;
  ExtractionServer& operator=(const ExtractionServer&) = delete;

  /// Bind and start serving. Fails with kIoError when the port is taken.
  [[nodiscard]] Status start();
  /// The bound port (after a successful start()).
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Tenant fairness/admission configuration, forwarded to the JobQueue.
  /// Safe before start() and while serving.
  void configure_tenant(const std::string& tenant, TenantConfig config);

  /// The embedded queue (stats(), wait_all(), ...).
  [[nodiscard]] JobQueue& queue();

  /// Block until a POST /v1/shutdown arrives (or stop() is called).
  void wait_for_shutdown();
  /// Whether a shutdown request has arrived.
  [[nodiscard]] bool shutdown_requested() const;

  /// Stop the HTTP server (open SSE streams unwind), then drain the queue.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qvg::server
