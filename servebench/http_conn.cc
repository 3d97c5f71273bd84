#include "http_conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cerrno>
#include <charconv>
#include <cstring>

namespace servebench {

using amber::Status;

HttpConn::~HttpConn() {
  if (fd_ >= 0) ::close(fd_);
}

Status HttpConn::Connect(uint16_t port) {
  if (fd_ >= 0) return Status::Internal("already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::IOError(std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  // A reply slower than this is a failed request (the requests' own
  // deadline is 10 s); busy polling applies the same limit in Fill().
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    return Status::IOError(std::string("connect: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status HttpConn::Fill() {
  rbuf_.erase(0, rpos_);
  rpos_ = 0;
  char buf[64 << 10];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (uint64_t spins = 0;; ++spins) {
    const ssize_t n =
        ::recv(fd_, buf, sizeof buf, busy_poll_ ? MSG_DONTWAIT : 0);
    if (n > 0) {
      rbuf_.append(buf, static_cast<size_t>(n));
      return Status::OK();
    }
    if (n == 0) return Status::IOError("connection closed by server");
    if (busy_poll_ && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (spins % 1024 == 0 && std::chrono::steady_clock::now() > deadline) {
        return Status::IOError("recv: timed out");
      }
      continue;
    }
    if (errno != EINTR) {
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
  }
}

Status HttpConn::ReadLine(std::string* line) {
  size_t eol;
  while ((eol = rbuf_.find("\r\n", rpos_)) == std::string::npos) {
    AMBER_RETURN_IF_ERROR(Fill());
  }
  line->assign(rbuf_, rpos_, eol - rpos_);
  rpos_ = eol + 2;
  return Status::OK();
}

Status HttpConn::ReadExact(size_t n, std::string* out) {
  while (rbuf_.size() - rpos_ < n) AMBER_RETURN_IF_ERROR(Fill());
  out->append(rbuf_, rpos_, n);
  rpos_ += n;
  return Status::OK();
}

Status HttpConn::RoundTrip(std::string_view request, Reply* out) {
  if (fd_ < 0) return Status::IOError("not connected");
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }

  out->status = 0;
  out->body.clear();
  std::string line;
  AMBER_RETURN_IF_ERROR(ReadLine(&line));
  if (line.size() < 12 || line.compare(0, 9, "HTTP/1.1 ") != 0) {
    return Status::IOError("bad status line: " + line);
  }
  std::from_chars(line.data() + 9, line.data() + 12, out->status);
  bool chunked = false;
  size_t content_length = 0;
  for (;;) {
    AMBER_RETURN_IF_ERROR(ReadLine(&line));
    if (line.empty()) break;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    size_t v = colon + 1;
    while (v < line.size() && line[v] == ' ') ++v;
    if (key == "content-length") {
      std::from_chars(line.data() + v, line.data() + line.size(),
                      content_length);
    } else if (key == "transfer-encoding") {
      chunked = line.find("chunked", v) != std::string::npos;
    }
  }
  if (!chunked) return ReadExact(content_length, &out->body);
  for (;;) {
    AMBER_RETURN_IF_ERROR(ReadLine(&line));
    size_t size = 0;
    const auto [p, ec] =
        std::from_chars(line.data(), line.data() + line.size(), size, 16);
    if (ec != std::errc()) return Status::IOError("bad chunk size: " + line);
    AMBER_RETURN_IF_ERROR(ReadExact(size, &out->body));
    AMBER_RETURN_IF_ERROR(ReadLine(&line));  // CRLF after the payload
    if (size == 0) return Status::OK();
  }
}

Status HttpConn::Get(std::string_view path, Reply* out) {
  std::string request = "GET ";
  request += path;
  request += " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n";
  return RoundTrip(request, out);
}

}  // namespace servebench
