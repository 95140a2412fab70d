// Minimal blocking HTTP/1.1 client for the extraction wire API — the
// counterpart of server/http.hpp, used by the loopback tests, perfbench's
// served workload, and csd_tool's client mode. Loopback only (127.0.0.1),
// dependency-free. http_call keeps the connection open after a response
// and reuses it for the calling thread's next call to the same port.
#pragma once

#include "common/status.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace qvg::server {

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lowercased keys
  std::string body;
};

/// One request against 127.0.0.1:port. Reads the full response (including
/// de-chunking a chunked body). Each calling thread keeps one idle
/// connection, which the next call to the same port reuses. If a reused
/// connection fails before any response byte arrives (the server closed it
/// while idle, or stopped), the request is sent once more on a fresh
/// connection; a live server closes a connection only between requests,
/// so it never runs one twice.
/// Fails with kIoError on connect/socket trouble and kParseError on a
/// malformed response.
[[nodiscard]] Result<ClientResponse> http_call(
    std::uint16_t port, const std::string& method, const std::string& target,
    std::string_view body = {},
    const std::string& content_type = "application/octet-stream");

/// A live server-sent-events subscription. next_event() returns one frame
/// at a time; close() (or destruction) mid-stream is the client-disconnect
/// the server turns into job cancellation.
class SseClient {
 public:
  SseClient() = default;
  ~SseClient() { close(); }
  SseClient(const SseClient&) = delete;
  SseClient& operator=(const SseClient&) = delete;

  /// Connect and issue `GET target`; fails unless the server answers 200
  /// with a chunked stream.
  [[nodiscard]] Status connect(std::uint16_t port, const std::string& target);

  /// The next SSE frame (the text between blank lines, e.g.
  /// "data: {...}"), with comment-only keepalive frames skipped.
  /// std::nullopt at clean end of stream; kIoError if the connection died
  /// mid-frame.
  [[nodiscard]] Result<std::optional<std::string>> next_event();

  /// Drop the connection (mid-stream drop = cancel-on-disconnect upstream).
  void close();

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

 private:
  [[nodiscard]] bool fill();  // read more bytes into raw_
  int fd_ = -1;
  std::string raw_;      // undecoded bytes from the socket
  std::string decoded_;  // de-chunked stream payload
  bool headers_done_ = false;
  bool stream_ended_ = false;
};

}  // namespace qvg::server
