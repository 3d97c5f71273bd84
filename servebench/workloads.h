// Workload definitions of the serving benchmark: the dataset every process
// regenerates, the service configuration both the server and the traced
// in-process replay use, and the seeded request sequences of the three
// workloads. Why each workload exists, and which layer metric should move
// on it, is recorded in workloads.cc next to the definitions.

#ifndef AMBER_SERVEBENCH_WORKLOADS_H_
#define AMBER_SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/amber_engine.h"
#include "rdf/term.h"
#include "server/query_service.h"
#include "util/status.h"

namespace servebench {

/// The DBPEDIA-profile dataset the server builds (scale 1: 60k entities,
/// 180k edge triples). Fixed: the workload seed varies the request stream,
/// not the data (see workloads.cc, "Seeds").
std::vector<amber::Triple> MakeDataset();

/// The server's ServiceOptions: service defaults (thread budget 1, cache
/// on) plus the retained-row cap every request needs to stay bounded.
amber::ServiceOptions BenchServiceOptions();

/// One distinct request: a spelling of a pool query plus its page.
struct Request {
  std::string text;  // SPARQL text as sent
  uint64_t offset = 0;
  uint64_t limit = 0;
  std::string body;  // JSON request body
  std::string http;  // the full HTTP/1.1 request bytes
};

/// Everything a run derives from (workload name, seed).
struct Workload {
  std::string name;
  int clients = 1;
  bool stream = false;  // POST /query/stream instead of POST /query
  std::vector<std::string> pool;   // distinct queries, original spelling
  std::vector<Request> requests;   // distinct requests
  std::vector<uint32_t> sequence;  // one pass, as indexes into `requests`
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload for `seed`. `engine` answers the counts the
/// pool filters need; the triples feed the query generator.
amber::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                     const std::vector<amber::Triple>& triples,
                                     amber::AmberEngine& engine);

}  // namespace servebench

#endif  // AMBER_SERVEBENCH_WORKLOADS_H_
