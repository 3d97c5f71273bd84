// The traced run: each request of the workload goes over HTTP as usual and
// is then replayed in-process through the public functions the server
// calls, in the server's order (wire::ParseRequest -> QueryService ->
// engine -> wire::Serialize*), with a span around each call. Engine
// internals the service does not expose separately (plan, CandInit, count,
// factorize, materialize) are timed by probe calls right after the replay.
// Spans stay in memory; the per-layer means are computed at the end.

#ifndef AMBER_SERVEBENCH_TRACE_H_
#define AMBER_SERVEBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/amber_engine.h"
#include "loadgen.h"
#include "util/status.h"
#include "workloads.h"

namespace servebench {

struct TraceResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Runs an untraced and then a traced single-client phase of about
/// `seconds` together, on `client` (already connected and warmed up).
/// `engine` is the in-process engine opened from the server's artifact.
amber::Result<TraceResult> RunTrace(const Workload& w,
                                    amber::AmberEngine* engine,
                                    Client* client, double seconds);

}  // namespace servebench

#endif  // AMBER_SERVEBENCH_TRACE_H_
