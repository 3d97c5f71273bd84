// A minimal HTTP/1.1 keep-alive client for the load generator. It connects
// once and never reconnects: a connection the server drops is a failed
// request, not a silent retry (reconnecting races the server's slot
// release and turns into spurious 503s). It is separate from
// server/http_client.h, which retries on a fresh connection, so that the
// load generator stays fixed while the program's own client changes.
// Bodies are returned as payload bytes only: Content-Length bodies as-is,
// chunked bodies as the concatenation of their chunk payloads.

#ifndef AMBER_SERVEBENCH_HTTP_CONN_H_
#define AMBER_SERVEBENCH_HTTP_CONN_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace servebench {

struct Reply {
  int status = 0;
  std::string body;
};

class HttpConn {
 public:
  HttpConn() = default;
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Opens the connection to 127.0.0.1:`port`.
  amber::Status Connect(uint16_t port);

  /// Sends `request` (complete HTTP bytes) and reads the whole response.
  amber::Status RoundTrip(std::string_view request, Reply* out);

  /// GET `path` on this connection.
  amber::Status Get(std::string_view path, Reply* out);

  /// Wait for replies by polling the socket instead of sleeping in recv().
  /// Only for a load generator with CPUs of its own: it spares each reply
  /// the wake-up of a halted CPU, and it would steal time from a server on
  /// the same CPUs.
  void set_busy_poll(bool on) { busy_poll_ = on; }

 private:
  amber::Status Fill();  // reads more bytes into rbuf_; EOF is an error
  amber::Status ReadLine(std::string* line);
  amber::Status ReadExact(size_t n, std::string* out);

  int fd_ = -1;
  bool busy_poll_ = false;
  std::string rbuf_;
  size_t rpos_ = 0;  // consumed prefix of rbuf_
};

}  // namespace servebench

#endif  // AMBER_SERVEBENCH_HTTP_CONN_H_
