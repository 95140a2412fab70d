// Minimal embedded HTTP/1.1 server over POSIX sockets — no third-party
// dependencies, enough protocol for the extraction wire API:
//
//   * persistent connections, thread-per-connection: an HTTP/1.1
//     connection carries requests one after another until the client sends
//     `Connection: close` (RFC 9112 §9.3); HTTP/1.0 requests, protocol
//     errors and streams are answered with `Connection: close`;
//   * a connection idle for kIdleTimeoutSeconds (or a client that stalls
//     that long mid-request) is closed; the thread serving it is joined at
//     the next accept, so live threads track open connections;
//   * a request still incomplete kRequestTimeoutSeconds after its first
//     byte is answered 408 and closed, so a client trickling bytes cannot
//     hold a connection thread indefinitely;
//   * Content-Length request bodies (bounded; an oversize body is rejected
//     with 413 before it is read); a request with Transfer-Encoding is
//     answered 400 and closed;
//   * fixed-length responses written head and body in one send(), with
//     TCP_NODELAY, so a kept connection never waits out a delayed ACK; or
//     chunked transfer encoding for streams — the SSE progress lane holds
//     the connection open and writes one chunk per event;
//   * a chunk write observes client disconnect (EPIPE/ECONNRESET) and
//     reports it to the handler, which is how job cancel-on-disconnect
//     works;
//   * port 0 binds an ephemeral port (the bound port is reported back),
//     so tests and benches never race over a fixed port;
//   * stop() closes the listener, shuts down every open connection (idle
//     kept ones included), and joins every worker thread — no leaked
//     threads or fds (the loopback tests run under ASan and TSan).
//
// This is an embedded control-plane server for one trusted operator network,
// not an internet-facing one: no TLS, no chunked request bodies, no
// connection cap.
#pragma once

#include "common/status.hpp"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qvg::server {

/// One parsed request. Header names are lowercased; the body is fully read
/// (and bounded) before the handler runs.
struct HttpRequest {
  std::string method;  // "GET", "POST", ...
  std::string path;    // target path, query stripped
  std::string query;   // raw query string ("" when absent)
  std::map<std::string, std::string> headers;
  std::string body;

  /// Value of a `k=v` query parameter; fallback when absent. No %-decoding
  /// (the wire API's parameters are plain tokens).
  [[nodiscard]] std::string query_param(std::string_view key,
                                        std::string_view fallback = "") const;
};

/// The handler's reply channel. Exactly one of send() or begin_stream()
/// must be called; after begin_stream(), write chunks until done (or until
/// a write reports the client gone) and finish with end_stream().
class ResponseWriter {
 public:
  /// `keep_alive`: the request lets the connection carry another request
  /// after this response.
  explicit ResponseWriter(int fd, bool keep_alive = false)
      : fd_(fd), keep_alive_(keep_alive) {}

  /// Fixed-length response.
  void send(int status, std::string_view content_type, std::string_view body,
            const std::vector<std::pair<std::string, std::string>>&
                extra_headers = {});

  /// Start a chunked stream (SSE: content_type "text/event-stream").
  void begin_stream(int status, std::string_view content_type);
  /// One chunk; false when the client is gone (connection reset / closed).
  /// A false return is sticky — the stream is dead.
  [[nodiscard]] bool write_chunk(std::string_view data);
  /// Terminate the chunked stream cleanly.
  void end_stream();

  /// Whether any response bytes have been committed.
  [[nodiscard]] bool responded() const noexcept { return responded_; }

  /// Whether the connection may carry another request: keep-alive was
  /// allowed, and a complete fixed-length response went out.
  [[nodiscard]] bool keep_alive() const noexcept {
    return keep_alive_ && responded_ && !streaming_ && !dead_;
  }

 private:
  bool write_all(std::string_view data);
  int fd_ = -1;
  bool keep_alive_ = false;
  bool responded_ = false;
  bool streaming_ = false;
  bool dead_ = false;
};

/// The server. Construct, set the handler, start(); stop() (or the
/// destructor) tears everything down.
class HttpServer {
 public:
  using Handler = std::function<void(const HttpRequest&, ResponseWriter&)>;

  /// Request bodies above this bound are rejected with 413 (the largest
  /// legitimate wire payload is a playback CSD; 64 MiB is ~8 Mpixels).
  static constexpr std::size_t kMaxBodyBytes = 64u << 20;
  static constexpr std::size_t kMaxHeaderBytes = 64u << 10;
  /// A connection with no request bytes arriving for this long is closed
  /// (a receive timeout on every connection socket).
  static constexpr int kIdleTimeoutSeconds = 5;
  /// A request (headers and body) must arrive in full within this long of
  /// its first byte, or it is answered 408 and the connection closed.
  static constexpr int kRequestTimeoutSeconds = 10;

  explicit HttpServer(Handler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start accepting. Fails with
  /// kIoError when the socket cannot be bound.
  [[nodiscard]] Status start(std::uint16_t port);

  /// The bound port (valid after a successful start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stop accepting, shut down open connections (in-flight handlers observe
  /// dead sockets and unwind), join all threads. Idempotent.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
};

/// Reason phrase for the status codes the wire API uses.
[[nodiscard]] const char* http_status_reason(int status) noexcept;

}  // namespace qvg::server
