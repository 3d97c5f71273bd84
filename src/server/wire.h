// The transport-neutral wire layer of the serving runtime
// (docs/ARCHITECTURE.md, "Transport"): request/response DTOs with
// Parse/Serialize that map 1:1 onto RequestOptions / QueryResponse, so
// ANY transport (the HTTP server of http_server.h today, shard RPCs
// tomorrow) speaks the same schema and the server itself stays a thin
// socket loop.
//
// Schema (one JSON object per message, field order fixed by the
// serializers so equal payloads are equal BYTES — the Query-vs-HTTP
// bit-identity tests depend on it):
//
//   request   {"query": s, "deadline_ms": u, "offset": u, "limit": u,
//              "count_only": b, "bypass_cache": b,
//              "result_form": "rows"|"groups", "include_stats": b}
//              — "query" required, everything else optional; unknown
//              keys are rejected (a typo'd option silently ignored is a
//              protocol bug).
//
//   response  {"result_form": "rows"|"count"|"groups", "var_names": [s],
//              "rows": [[s]] | "groups": [...] + "slot_list": [u|null],
//              "total_rows": u, "truncated": b, "timed_out": b,
//              "cancelled": b (, "cache_hit": b, "stats": {...})}
//              — stats/cache_hit appear only when the request asked
//              (include_stats): they are nondeterministic (elapsed_ms),
//              and the default payload is deterministic byte for byte.
//
//   group     {"fixed": [s|null], "lists": [[s]], "multiplicity": u}
//              — null fixed slots are satellites drawing from the list
//              slot_list[i] names; client-side expansion (ExpandGroups)
//              replays the engine's odometer order exactly, trimmed to
//              total_rows (a truncated handle keeps its boundary group
//              whole).
//
//   stream    one NDJSON line per page {"first_row": u, "rows": [[s]]}
//              (or "groups": [...]), then one summary line
//              {"summary": {...}} carrying var_names / slot_list /
//              end-state flags. A stream that dies mid-flight simply
//              never delivers its summary line.
//
//   error     {"error": {"code": s, "http": u, "message": s}}
//
// Everything here is pure string <-> struct transformation — no sockets,
// no service calls — so it fuzzes in-process (tests/http_server_test.cc).

#ifndef AMBER_SERVER_WIRE_H_
#define AMBER_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "server/query_service.h"
#include "util/status.h"

namespace amber {
namespace wire {

/// One parsed request: the query text plus its 1:1-mapped RequestOptions.
struct WireRequest {
  std::string query;
  RequestOptions options;
  /// Response should carry stats + cache_hit (nondeterministic fields —
  /// opt-in so the default payload stays byte-deterministic).
  bool include_stats = false;
};

/// Parses a /query request body. Every malformed input — bad JSON, a
/// wrong-typed field, an unknown key, "query" missing — returns
/// kInvalidArgument (HTTP 400 through StatusCodeToHttp), never crashes.
Result<WireRequest> ParseRequest(std::string_view body);

/// Serializes a QueryService::Query response. Field order is fixed;
/// without `include_stats` the payload depends only on the result.
std::string SerializeResponse(const QueryResponse& resp,
                              bool include_stats = false);

/// One NDJSON stream-page line (no trailing newline). Empty terminator
/// pages serialize to an empty string — the summary line is the real
/// terminator on the wire.
std::string SerializeStreamPage(const StreamPage& page);

/// The stream's trailing summary line (no trailing newline).
std::string SerializeStreamSummary(const StreamResponse& resp,
                                   bool include_stats = false);

/// The error body every non-2xx response carries.
std::string SerializeError(const Status& status);

/// Stats objects (GET /stats; reused inside SerializeResponse).
std::string ExecStatsToJson(const ExecStats& stats);
std::string ServiceStatsToJson(const ServiceStats& stats);

/// Client-side decode of a /query response body (HttpClient, tests, the
/// example). Fills rows or groups according to the payload's
/// result_form; "stats" is ignored (count responses set total_rows
/// only).
Result<QueryResponse> ParseResponse(std::string_view body);

/// Client-side replay of the factorized expansion order (list 0 advances
/// fastest; each row repeats `multiplicity` times consecutively),
/// trimmed to `limit_rows` (0 = no trim). With the groups a "groups"
/// response ships, this reproduces the rows-mode payload exactly.
std::vector<std::vector<std::string>> ExpandGroups(
    const std::vector<uint32_t>& slot_list,
    const std::vector<ResultGroup>& groups, uint64_t limit_rows = 0);

}  // namespace wire
}  // namespace amber

#endif  // AMBER_SERVER_WIRE_H_
