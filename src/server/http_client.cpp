#include "server/http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace qvg::server {

namespace {

Status io_error(std::string detail) {
  return Status::failure(ErrorCode::kIoError, "http_client",
                         std::move(detail));
}

Status parse_error(std::string detail) {
  return Status::failure(ErrorCode::kParseError, "http_client",
                         std::move(detail));
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;  // close() must not clobber the caller's errno
    ::close(fd);
    errno = saved;
    return -1;
  }
  // Requests leave in one send(); without this, a request sent right after
  // the previous response can wait out the server's delayed ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// The calling thread's idle kept connection: one per thread, tagged with
/// the port it reaches. Closed when replaced or when the thread exits.
class IdleConnection {
 public:
  IdleConnection() = default;
  IdleConnection(const IdleConnection&) = delete;
  IdleConnection& operator=(const IdleConnection&) = delete;
  ~IdleConnection() { drop(); }

  /// Hand over the connection to `port`, or -1 when there is none (a
  /// connection to another port is closed).
  int take(std::uint16_t port) {
    if (port != port_) drop();
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void keep(int fd, std::uint16_t port) {
    drop();
    fd_ = fd;
    port_ = port;
  }

 private:
  void drop() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

thread_local IdleConnection t_idle;

bool send_all(int fd, std::string_view data) {
  const char* p = data.data();
  std::size_t size = data.size();
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string request_text(const std::string& method, const std::string& target,
                         std::string_view body,
                         const std::string& content_type) {
  std::string out = method + " " + target + " HTTP/1.1\r\n";
  out += "Host: 127.0.0.1\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Type: " + content_type + "\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "Connection: keep-alive\r\n\r\n";
  out.append(body);
  return out;
}

/// Parse "HTTP/1.1 NNN ..." + headers out of `raw`; returns the body offset
/// or npos if the header block is not complete yet.
std::size_t parse_head(const std::string& raw, int& status,
                       std::map<std::string, std::string>& headers) {
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return std::string::npos;
  const std::size_t line_end = raw.find("\r\n");
  const std::string line = raw.substr(0, line_end);
  const std::size_t sp = line.find(' ');
  status = sp == std::string::npos ? 0 : std::atoi(line.c_str() + sp + 1);
  std::size_t pos = line_end + 2;
  while (pos < head_end) {
    const std::size_t eol = raw.find("\r\n", pos);
    const std::string header = raw.substr(pos, eol - pos);
    pos = eol + 2;
    const std::size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    std::string key = header.substr(0, colon);
    std::transform(key.begin(), key.end(), key.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    std::size_t vstart = colon + 1;
    while (vstart < header.size() && header[vstart] == ' ') ++vstart;
    headers[std::move(key)] = header.substr(vstart);
  }
  return head_end + 4;
}

/// De-chunk the chunked body at the front of `input` into `out` (which it
/// overwrites). Returns the bytes the body spans through its final blank
/// line, 0 while it is incomplete, npos when it is malformed.
std::size_t dechunk(std::string_view input, std::string& out) {
  out.clear();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t eol = input.find("\r\n", pos);
    if (eol == std::string_view::npos) return 0;
    const std::string size_line(input.substr(pos, eol - pos));
    char* end = nullptr;
    const unsigned long long size = std::strtoull(size_line.c_str(), &end, 16);
    if (end == size_line.c_str()) return std::string_view::npos;
    pos = eol + 2;
    if (size == 0) break;
    if (input.size() - pos < size + 2) return 0;
    out.append(input.substr(pos, size));
    pos += size + 2;  // chunk + trailing CRLF
  }
  // No trailers: the blank line follows the last chunk.
  if (input.size() - pos < 2) return 0;
  return input.compare(pos, 2, "\r\n") == 0 ? pos + 2
                                             : std::string_view::npos;
}

/// Append what one recv() returns to `raw`: the byte count, 0 at EOF, -1 on
/// error.
ssize_t recv_some(int fd, std::string& raw) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n > 0) raw.append(chunk, static_cast<std::size_t>(n));
    return n;
  }
}

/// One request/response exchange on an open connection.
struct Exchange {
  Status status;
  bool response_started = false;  // some response byte arrived
  bool reusable = false;          // the connection can carry another request
};

/// Send `request` on `fd` and read one complete response, framed by its
/// Content-Length or by its terminal chunk.
Exchange exchange(int fd, const std::string& request,
                  ClientResponse& response) {
  Exchange out;
  if (!send_all(fd, request)) {
    out.status = io_error("send failed");
    return out;
  }
  std::string raw;
  std::size_t body_start = std::string::npos;
  while ((body_start = parse_head(raw, response.status, response.headers)) ==
         std::string::npos) {
    const ssize_t n = recv_some(fd, raw);
    out.response_started = !raw.empty();
    if (n <= 0) {
      out.status = out.response_started
                       ? parse_error("response headers never completed")
                       : io_error("connection closed before a response");
      return out;
    }
  }
  const auto header = [&](const char* key) {
    const auto it = response.headers.find(key);
    return it == response.headers.end() ? std::string() : it->second;
  };
  bool complete = false;
  if (header("transfer-encoding") == "chunked") {
    for (;;) {
      const std::size_t span = dechunk(
          std::string_view(raw).substr(body_start), response.body);
      if (span == std::string_view::npos) {
        out.status = parse_error("malformed chunked body");
        return out;
      }
      if (span > 0) {
        complete = body_start + span == raw.size();
        break;
      }
      if (recv_some(fd, raw) <= 0) {
        out.status = parse_error("malformed chunked body");
        return out;
      }
    }
  } else {
    const std::string length = header("content-length");
    char* end = nullptr;
    const unsigned long long size = std::strtoull(length.c_str(), &end, 10);
    if (end == length.c_str() || *end != '\0') {
      out.status = parse_error("bad content length '" + length + "'");
      return out;
    }
    while (raw.size() - body_start < size) {
      if (recv_some(fd, raw) <= 0) {
        out.status = io_error("connection closed mid-body");
        return out;
      }
    }
    response.body.assign(raw, body_start, static_cast<std::size_t>(size));
    complete = body_start + size == raw.size();
  }
  // Stray bytes past the response would misframe the next one: reuse only
  // a connection that ended exactly at a framed response.
  const std::string connection = header("connection");
  out.reusable = complete && connection.find("close") == std::string::npos;
  return out;
}

/// Park a finished connection for the next call, or close it.
Result<ClientResponse> finish(int fd, std::uint16_t port,
                              const Exchange& result,
                              ClientResponse response) {
  if (result.status.ok() && result.reusable) {
    t_idle.keep(fd, port);
  } else {
    ::close(fd);
  }
  if (!result.status.ok()) return result.status;
  return response;
}

}  // namespace

Result<ClientResponse> http_call(std::uint16_t port, const std::string& method,
                                 const std::string& target,
                                 std::string_view body,
                                 const std::string& content_type) {
  const std::string request = request_text(method, target, body, content_type);
  if (const int idle = t_idle.take(port); idle >= 0) {
    ClientResponse response;
    const Exchange reused = exchange(idle, request, response);
    // A kept connection that fails before any response byte was closed by
    // the server while idle (its deadline, or a restart) without reading
    // the request, so one retry on a fresh connection cannot submit it
    // twice. After a response byte, the failure is the caller's.
    if (reused.status.ok() || reused.response_started)
      return finish(idle, port, reused, std::move(response));
    ::close(idle);
  }
  const int fd = connect_loopback(port);
  if (fd < 0)
    return io_error("connect to 127.0.0.1:" + std::to_string(port) + ": " +
                    std::strerror(errno));
  ClientResponse response;
  const Exchange result = exchange(fd, request, response);
  return finish(fd, port, result, std::move(response));
}

// ------------------------------------------------------------ SseClient ---

Status SseClient::connect(std::uint16_t port, const std::string& target) {
  close();
  fd_ = connect_loopback(port);
  if (fd_ < 0)
    return io_error("connect to 127.0.0.1:" + std::to_string(port) + ": " +
                    std::strerror(errno));
  if (!send_all(fd_, request_text("GET", target, {}, ""))) {
    close();
    return io_error("send failed");
  }
  // Read until the header block is complete.
  while (!headers_done_) {
    if (!fill()) {
      close();
      return io_error("connection closed before response headers");
    }
    int status = 0;
    std::map<std::string, std::string> headers;
    const std::size_t body_start = parse_head(raw_, status, headers);
    if (body_start == std::string::npos) continue;
    if (status != 200) {
      close();
      return io_error("server answered " + std::to_string(status));
    }
    raw_.erase(0, body_start);
    headers_done_ = true;
  }
  return Status();
}

bool SseClient::fill() {
  if (fd_ < 0) return false;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    raw_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

Result<std::optional<std::string>> SseClient::next_event() {
  if (fd_ < 0 && decoded_.empty() && !stream_ended_)
    return io_error("not connected");
  for (;;) {
    // 1. A complete frame already decoded?
    while (true) {
      const std::size_t sep = decoded_.find("\n\n");
      if (sep == std::string::npos) break;
      std::string frame = decoded_.substr(0, sep);
      decoded_.erase(0, sep + 2);
      if (!frame.empty() && frame[0] == ':') continue;  // keepalive comment
      return std::optional<std::string>(std::move(frame));
    }
    if (stream_ended_) return std::optional<std::string>(std::nullopt);

    // 2. De-chunk what we have.
    for (;;) {
      const std::size_t eol = raw_.find("\r\n");
      if (eol == std::string::npos) break;
      const std::string size_line = raw_.substr(0, eol);
      char* end = nullptr;
      const unsigned long long size =
          std::strtoull(size_line.c_str(), &end, 16);
      if (end == size_line.c_str())
        return parse_error("malformed chunk size '" + size_line + "'");
      if (size == 0) {
        stream_ended_ = true;
        break;
      }
      if (raw_.size() - (eol + 2) < size + 2) break;  // chunk incomplete
      decoded_.append(raw_, eol + 2, size);
      raw_.erase(0, eol + 2 + size + 2);
    }
    if (stream_ended_) continue;
    if (decoded_.find("\n\n") != std::string::npos) continue;

    // 3. Need more bytes.
    if (!fill()) {
      if (decoded_.empty()) return std::optional<std::string>(std::nullopt);
      return io_error("connection dropped mid-stream");
    }
  }
}

void SseClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  raw_.clear();
  decoded_.clear();
  headers_done_ = false;
  stream_ended_ = false;
}

}  // namespace qvg::server
