#include "server/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>

namespace qvg::server {

namespace {

// MSG_NOSIGNAL keeps a write to a dead peer from raising SIGPIPE (we want
// the EPIPE return instead — that is the disconnect signal).
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

/// Whether the comma-separated header value `list` names `token` (given in
/// lowercase), ignoring case and surrounding whitespace.
bool has_token(const std::string& list, std::string_view token) {
  const std::string lower = lowercase(list);
  std::string_view rest = lower;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    while (!item.empty() && (item.front() == ' ' || item.front() == '\t'))
      item.remove_prefix(1);
    while (!item.empty() && (item.back() == ' ' || item.back() == '\t'))
      item.remove_suffix(1);
    if (item == token) return true;
  }
  return false;
}

std::string status_line(int status) {
  return "HTTP/1.1 " + std::to_string(status) + " " +
         http_status_reason(status) + "\r\n";
}

}  // namespace

const char* http_status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string HttpRequest::query_param(std::string_view key,
                                     std::string_view fallback) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) continue;
    if (pair.substr(0, eq) == key) return std::string(pair.substr(eq + 1));
  }
  return std::string(fallback);
}

// ---------------------------------------------------- ResponseWriter ------

bool ResponseWriter::write_all(std::string_view data) {
  if (dead_) return false;
  if (!send_all(fd_, data.data(), data.size())) {
    dead_ = true;
    return false;
  }
  return true;
}

void ResponseWriter::send(
    int status, std::string_view content_type, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  responded_ = true;
  // Head and body leave in one send(): split, the body would wait for the
  // peer's delayed ACK of the head on a kept connection.
  std::string message = status_line(status);
  message += "Content-Type: " + std::string(content_type) + "\r\n";
  message += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  for (const auto& [k, v] : extra_headers) message += k + ": " + v + "\r\n";
  message += keep_alive_ ? "Connection: keep-alive\r\n\r\n"
                         : "Connection: close\r\n\r\n";
  message.append(body);
  (void)write_all(message);
}

void ResponseWriter::begin_stream(int status, std::string_view content_type) {
  responded_ = true;
  streaming_ = true;
  std::string head = status_line(status);
  head += "Content-Type: " + std::string(content_type) + "\r\n";
  head += "Cache-Control: no-store\r\n";
  head += "Transfer-Encoding: chunked\r\n";
  head += "Connection: close\r\n\r\n";
  (void)write_all(head);
}

bool ResponseWriter::write_chunk(std::string_view data) {
  if (data.empty()) return !dead_;  // an empty chunk would terminate
  char size_line[32];
  std::snprintf(size_line, sizeof size_line, "%zx\r\n", data.size());
  std::string chunk = size_line;
  chunk.append(data);
  chunk += "\r\n";
  return write_all(chunk);
}

void ResponseWriter::end_stream() {
  if (streaming_) (void)write_all("0\r\n\r\n");
}

// --------------------------------------------------------- HttpServer -----

struct HttpServer::Impl {
  /// One accepted connection and the thread serving it. List nodes never
  /// move, so the thread holds a reference to its own entry.
  struct Connection {
    explicit Connection(int f) : fd(f) {}
    int fd;
    bool done = false;  // guarded by mutex; set before fd is closed
    std::thread thread;
  };

  Handler handler;
  // Atomic: stop() closes and clears the listener from the caller's thread
  // while the accept thread is still reading it for the next accept().
  std::atomic<int> listen_fd{-1};
  std::atomic<bool> stopping{false};

  std::mutex mutex;  // guards connections
  std::list<Connection> connections;

  std::thread accept_thread;

  explicit Impl(Handler h) : handler(std::move(h)) {}

  void serve_connection(Connection& connection) {
    const int fd = connection.fd;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval idle{};
    idle.tv_sec = kIdleTimeoutSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &idle, sizeof idle);

    std::string buffer;  // received bytes not yet consumed by a request
    while (handle_one(fd, buffer)) {
    }
    // Mark done BEFORE closing: once close() returns the kernel may hand
    // the same fd number to a new accept(), and stop() must then not
    // shutdown() this entry's stale number — that would hit a reused,
    // unrelated descriptor.
    {
      std::lock_guard<std::mutex> lock(mutex);
      connection.done = true;
    }
    ::close(fd);
  }

  /// Read one request (starting from the bytes already in `buffer`), then
  /// dispatch it. Bytes past its body stay in `buffer` for the next
  /// request. Returns whether the connection stays open for another one.
  /// Any protocol problem answers with a 4xx and closes.
  bool handle_one(int fd, std::string& buffer) {
    const auto reject = [fd](int status, std::string_view why) {
      ResponseWriter(fd).send(status, "text/plain", why);
      return false;
    };
    // The idle deadline bounds each recv alone, so a client trickling one
    // byte per read would hold this thread for up to kMaxHeaderBytes idle
    // deadlines. The whole request must arrive within kRequestTimeoutSeconds
    // of its first byte; the clock is read once per recv.
    using Clock = std::chrono::steady_clock;
    Clock::time_point first_byte{};  // epoch: no byte of this request yet
    if (!buffer.empty()) first_byte = Clock::now();  // pipelined bytes
    const auto overdue = [&first_byte] {
      const Clock::time_point now = Clock::now();
      if (first_byte == Clock::time_point{}) first_byte = now;
      return now - first_byte > std::chrono::seconds(kRequestTimeoutSeconds);
    };
    std::size_t header_end = buffer.find("\r\n\r\n");
    char chunk[4096];
    while (header_end == std::string::npos) {
      if (buffer.size() > kMaxHeaderBytes)
        return reject(413, "headers too large\n");
      // 0: the client closed (or stop() shut the socket down); -1: the idle
      // deadline passed, or the connection broke.
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      if (overdue()) return reject(408, "request timeout\n");
      buffer.append(chunk, static_cast<std::size_t>(n));
      header_end = buffer.find("\r\n\r\n");
    }

    HttpRequest request;
    bool keep_alive = false;
    {
      // Request line: METHOD SP target SP version.
      const std::size_t line_end = buffer.find("\r\n");
      const std::string line = buffer.substr(0, line_end);
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 =
          sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
      if (sp2 == std::string::npos)
        return reject(400, "malformed request line\n");
      request.method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::size_t qmark = target.find('?');
      if (qmark == std::string::npos) {
        request.path = std::move(target);
      } else {
        request.path = target.substr(0, qmark);
        request.query = target.substr(qmark + 1);
      }
      // HTTP/1.1 connections persist by default (RFC 9112 §9.3); HTTP/1.0
      // ones close after one exchange.
      keep_alive = line.compare(sp2 + 1, std::string::npos, "HTTP/1.1") == 0;
      // Header lines up to the blank line.
      std::size_t pos = line_end + 2;
      while (pos < header_end) {
        const std::size_t eol = buffer.find("\r\n", pos);
        const std::string header = buffer.substr(pos, eol - pos);
        pos = eol + 2;
        const std::size_t colon = header.find(':');
        if (colon == std::string::npos) continue;
        std::string key = lowercase(header.substr(0, colon));
        std::size_t vstart = colon + 1;
        while (vstart < header.size() && header[vstart] == ' ') ++vstart;
        request.headers[std::move(key)] = header.substr(vstart);
      }
    }
    if (auto it = request.headers.find("connection");
        it != request.headers.end() && has_token(it->second, "close"))
      keep_alive = false;
    // A chunked body is unsupported; reading past it as if it were the
    // next request would misframe the connection, so refuse and close.
    if (request.headers.count("transfer-encoding") != 0)
      return reject(400, "request transfer-encoding not supported\n");

    std::size_t content_length = 0;
    if (auto it = request.headers.find("content-length");
        it != request.headers.end()) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
      if (end == it->second.c_str() || *end != '\0' || v > kMaxBodyBytes)
        return reject(v > kMaxBodyBytes ? 413 : 400, "bad content length\n");
      content_length = static_cast<std::size_t>(v);
    }

    // Read exactly to the end of the body, so no byte of a following
    // request is consumed here.
    const std::size_t body_start = header_end + 4;
    const std::size_t request_end = body_start + content_length;
    if (std::size_t filled = buffer.size(); filled < request_end) {
      buffer.resize(request_end);
      while (filled < request_end) {
        const ssize_t n =
            ::recv(fd, buffer.data() + filled, request_end - filled, 0);
        if (n <= 0) return false;  // truncated body: client gone
        if (overdue()) return reject(408, "request timeout\n");
        filled += static_cast<std::size_t>(n);
      }
    }
    request.body.assign(buffer, body_start, content_length);
    buffer.erase(0, request_end);

    ResponseWriter writer(fd, keep_alive);
    handler(request, writer);
    if (!writer.responded())
      writer.send(500, "text/plain", "handler produced no response\n");
    writer.end_stream();
    return writer.keep_alive();
  }

  void accept_loop() {
    for (;;) {
      const int fd = ::accept(listen_fd.load(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // listener closed: stop() is running
      }
      if (stopping.load()) {
        ::close(fd);
        return;
      }
      std::lock_guard<std::mutex> lock(mutex);
      // Reap the threads of closed connections, so live threads track open
      // connections rather than every connection since start(). A done
      // thread only has close() left to run, never this mutex, so joining
      // it here is brief and cannot deadlock.
      for (auto it = connections.begin(); it != connections.end();) {
        if (!it->done) {
          ++it;
          continue;
        }
        it->thread.join();
        it = connections.erase(it);
      }
      Connection& connection = connections.emplace_back(fd);
      connection.thread =
          std::thread([this, &connection] { serve_connection(connection); });
    }
  }
};

HttpServer::HttpServer(Handler handler)
    : impl_(std::make_unique<Impl>(std::move(handler))) {}

HttpServer::~HttpServer() { stop(); }

Status HttpServer::start(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    return Status::failure(ErrorCode::kIoError, "http",
                           std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::failure(ErrorCode::kIoError, "http", "bind: " + detail);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::failure(ErrorCode::kIoError, "http",
                           "getsockname: " + detail);
  }
  port_ = ntohs(addr.sin_port);
  impl_->listen_fd = fd;
  impl_->accept_thread = std::thread([impl = impl_.get()] {
    impl->accept_loop();
  });
  return Status();
}

void HttpServer::stop() {
  if (impl_ == nullptr) return;
  // From here on the accept loop closes whatever it accepts.
  impl_->stopping.store(true);
  if (const int fd = impl_->listen_fd.exchange(-1); fd >= 0) {
    // Closing the listener pops accept() with EBADF/ECONNABORTED and ends
    // the accept loop.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (impl_->accept_thread.joinable()) impl_->accept_thread.join();
  // Shut down open connections, idle kept ones included: blocked recv()s
  // return 0, blocked send()s fail, handlers unwind, then join everyone.
  // The nodes move to the local list intact, so each thread's reference to
  // its entry stays valid until the join.
  std::list<Impl::Connection> connections;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    for (const Impl::Connection& c : impl_->connections)
      if (!c.done) ::shutdown(c.fd, SHUT_RDWR);
    connections.swap(impl_->connections);
  }
  for (Impl::Connection& c : connections) c.thread.join();
}

}  // namespace qvg::server
