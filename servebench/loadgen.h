// The load generator: reference answers computed in-process, keep-alive
// clients that check every answer, closed-loop phases over a workload's
// request sequence, and readers for the server process's own counters.

#ifndef AMBER_SERVEBENCH_LOADGEN_H_
#define AMBER_SERVEBENCH_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/amber_engine.h"
#include "http_conn.h"
#include "util/json.h"
#include "util/status.h"
#include "workloads.h"

namespace servebench {

/// What a correct answer to one request looks like.
struct Expected {
  uint64_t digest = 0;      // var names + delivered rows, in order
  uint64_t total_rows = 0;  // total_rows of a page; rows_streamed of a stream
  uint64_t rows = 0;        // rows delivered to the client
};

/// The reference answer, computed straight from the engine: the retained
/// rows under the service's row cap (the stream's row limit for streams),
/// sliced to the request's page. Independent of the service's cache,
/// normalization and pagination code, which the check thereby covers.
amber::Result<Expected> Reference(amber::AmberEngine& engine,
                                  const Workload& w, const Request& r);

/// Outcome of one request.
struct Outcome {
  bool ok = false;
  double ms = 0;       // wall time seen by the client
  uint64_t rows = 0;   // rows delivered
  uint64_t bytes = 0;  // response payload bytes
  std::string error;   // set when !ok
};

/// One keep-alive connection plus a memo of verified response bodies:
/// every body is hashed, and only a body not seen before for its request
/// is parsed and compared with the reference.
class Client {
 public:
  explicit Client(const Workload& w, const std::vector<Expected>& expected)
      : w_(w), expected_(expected), verified_(w.requests.size()) {}

  amber::Status Connect(uint16_t port, bool busy_poll) {
    conn_.set_busy_poll(busy_poll);
    return conn_.Connect(port);
  }
  HttpConn& conn() { return conn_; }

  /// Sends request `index` of the workload and checks the answer.
  Outcome Send(uint32_t index);

 private:
  const Workload& w_;
  const std::vector<Expected>& expected_;
  HttpConn conn_;
  Reply reply_;
  // Per request: (body hash, rows) of bodies already verified.
  std::vector<std::vector<std::pair<size_t, uint64_t>>> verified_;
};

/// Result of one closed-loop phase.
struct Phase {
  std::vector<double> latencies_ms;  // in sequence order
  std::vector<double> pass_s;        // wall time of each pass, in order
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  double wall_s = 0;
};

/// Runs `passes` whole passes over the workload's sequence, one thread per
/// client, each sending its next request when the previous one completed.
Phase RunPhase(const Workload& w, std::vector<std::unique_ptr<Client>>& clients,
               uint64_t passes);

/// Median of `values`.
double Median(std::vector<double> values);

/// The nearest-rank percentile `p` of each block of whole passes holding
/// at least 1000 requests, lowered where needed to the highest percentile
/// with ten samples above it, and the median over the blocks; one block of
/// everything when there are fewer than three. A burst of host
/// interference then moves a few blocks, not the result.
double BlockPercentile(const std::vector<double>& latencies_ms,
                       size_t pass_len, double p);

/// User+system CPU seconds of process `pid` (all threads).
double ProcessCpuSeconds(int pid);
/// Peak resident set (VmHWM) of process `pid`, in MiB.
double ProcessPeakRssMb(int pid);

/// GET /stats on `conn`, parsed.
amber::Result<amber::json::Value> FetchStats(HttpConn& conn);
/// A counter of a /stats document, e.g. ("server", "bytes_written").
uint64_t StatsCounter(const amber::json::Value& stats, const char* section,
                      const char* key);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace servebench

#endif  // AMBER_SERVEBENCH_LOADGEN_H_
