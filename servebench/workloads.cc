// The three workloads of the serving benchmark.
//
// Seeds. The dataset and each workload's pool of distinct queries are
// fixed; `--seed` drives everything a client chooses: the order of the
// requests, the spelling each one is sent in, which star query is hot
// (star-hot), and which page or row limit goes with which query. A query
// pool drawn afresh per seed would make a run's mean cost a property of the
// draw: complex queries differ in cost by two orders of magnitude, so ten
// seeds would disagree by far more than any bound a regression gate could
// use. Fixing the pool keeps the work per pass constant across seeds while
// the seed still changes the inputs the server sees.
//
// Workloads and the layer metrics they should move (names as printed by a
// traced run; see README.md for the end-to-end metrics):
//
//  complex-solo  1 client, POST /query, rows form, cache bypassed, a
//                10-row page out of a 1000-row retained cap. Pool: 40
//                random-walk ("complex") queries of 10-50 triple patterns,
//                the class of the paper's Table 1 / Fig. 7. Chosen because
//                almost all of a request is spent in `core` (CandInit,
//                recursion, translation) while HTTP, JSON and the cache do
//                little: an engine change shows here and nowhere else.
//                Moves: sparql.parse_ms, plan.ms, engine.candinit_ms,
//                engine.count_ms, engine.factorize_ms,
//                engine.materialize_ms and the engine counters
//                (recursion_calls, initial_candidates, probe_hit_ratio,
//                galloped_elements, peak_arena_bytes) -> latency_p50_ms,
//                latency_p90_ms, throughput_qps, cpu_ms_per_req.
//
//  star-hot      2 clients, POST /query, cache on. Zipf-skewed (s = 1.1)
//                repeats of 32 distinct 4-pattern star queries, each sent
//                in four spellings (as generated, re-spaced, commented,
//                variables renamed) and at four LIMIT/OFFSET pages. Every
//                pool query has at least 20 rows, so every page is full;
//                with one query size, rows are about as wide whichever
//                query the seed made hot, so the response size is set by
//                the page. The 32 keys fit the 64-entry cache; after
//                the discarded warm-up the engine does nothing and a
//                request is normalize + cache lookup + BuildResponse +
//                serialize + sockets. The mirror image of complex-solo:
//                where service, wire and transport changes show.
//                Moves: service.normalize_ms, service.self_ms,
//                service.cache_hit_ratio, wire.parse_ms, wire.serialize_ms,
//                http.self_ms -> throughput_qps, latency_p50_ms,
//                cpu_ms_per_req. Prediction for engine changes: no change.
//
//  fanout-stream 2 clients, POST /query/stream, rows form (no cache, no
//                retained handle). Pool: 24 star queries with three
//                projected satellites (WorkloadOptions::satellite_fanout),
//                each with at least 100 rows, streamed with row limits of
//                100-400 — far below any deadline. Chosen because it uses
//                the result layer differently from the other two: the
//                streaming path (QueryStream, PageSink, chunked NDJSON,
//                incremental satellite expansion and translation). A
//                change that unifies result handles must not regress it.
//                Moves: engine.stream_ms, engine.rows_expanded,
//                wire.serialize_ms, wire.bytes -> rows_per_s,
//                wire_bytes_per_row, latency_p50_ms.
//
// Setup metrics (build.*, amf.*, server.ready_s) move setup_s and, with
// the cache and arena bytes, peak_rss_mb, on every workload.

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "gen/scale_free.h"
#include "gen/workload.h"
#include "util/random.h"

namespace servebench {
namespace {

using amber::Result;
using amber::Status;

constexpr double kDatasetScale = 1.0;
constexpr uint64_t kRetainedRowCap = 1000;
constexpr uint64_t kDeadlineMs = 10'000;
// Pool seeds: fixed per workload (see "Seeds" above).
constexpr uint64_t kComplexPoolSeed = 0xC0FFEE;
constexpr uint64_t kStarPoolSeed = 0x57A2;
constexpr uint64_t kFanoutPoolSeed = 0xFA40;

std::string ReplaceAll(std::string s, std::string_view from,
                       std::string_view to) {
  for (size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

// Four spellings of one query that normalize to the same cache key.
std::string Respell(const std::string& text, int variant) {
  switch (variant) {
    case 1:
      return ReplaceAll(ReplaceAll(text, "\n  ", "\n\t \t"), " .", "   .");
    case 2:
      return "# servebench: commented spelling\n" +
             ReplaceAll(text, "{\n", "{  # body\n");
    case 3:
      return ReplaceAll(text, "?X", "?node_");
    default:
      return text;
  }
}

void AppendJsonString(std::string* out, std::string_view s) {
  static const char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (c < 0x20) {
          *out += "\\u00";
          out->push_back(kHex[c >> 4]);
          out->push_back(kHex[c & 15]);
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

Request MakeRequest(const Workload& w, uint32_t query, int spelling,
                    uint64_t offset, uint64_t limit, bool bypass_cache) {
  Request r;
  r.text = Respell(w.pool[query], spelling);
  r.offset = offset;
  r.limit = limit;
  r.body = "{\"query\":";
  AppendJsonString(&r.body, r.text);
  if (offset != 0) r.body += ",\"offset\":" + std::to_string(offset);
  r.body += ",\"limit\":" + std::to_string(limit);
  if (bypass_cache) r.body += ",\"bypass_cache\":true";
  r.body += ",\"deadline_ms\":" + std::to_string(kDeadlineMs) + "}";
  r.http = std::string("POST ") + (w.stream ? "/query/stream" : "/query") +
           " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
           "Content-Type: application/json\r\nContent-Length: " +
           std::to_string(r.body.size()) +
           "\r\nConnection: keep-alive\r\n\r\n" + r.body;
  return r;
}

// Appends a request to the pass, reusing an identical earlier one.
void Emit(Workload* w, std::unordered_map<std::string, uint32_t>* seen,
          Request r) {
  auto [it, fresh] =
      seen->try_emplace(r.body, static_cast<uint32_t>(w->requests.size()));
  if (fresh) w->requests.push_back(std::move(r));
  w->sequence.push_back(it->second);
}

template <typename T>
void Shuffle(std::vector<T>* v, amber::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

// Generated queries with at least `min_rows` answers, first `want` of them.
Result<std::vector<std::string>> Pool(
    const amber::WorkloadGenerator& gen, amber::AmberEngine& engine,
    amber::QueryShape shape, amber::WorkloadOptions options, size_t want,
    uint64_t min_rows) {
  options.count = static_cast<int>(want * 16);
  std::vector<std::string> out;
  for (const std::string& q : gen.Generate(shape, options)) {
    amber::ExecOptions exec;
    exec.max_rows = min_rows;
    Result<amber::CountResult> c = engine.CountSparql(q, exec);
    if (!c.ok()) return c.status();
    if (c->count >= min_rows) out.push_back(q);
    if (out.size() == want) return out;
  }
  return Status::Internal("servebench: query pool too small");
}

Result<Workload> ComplexSolo(uint64_t seed,
                             const amber::WorkloadGenerator& gen,
                             amber::AmberEngine& engine) {
  Workload w;
  w.name = "complex-solo";
  w.clients = 1;
  for (int size = 10; size <= 50; size += 10) {
    amber::WorkloadOptions o;
    o.seed = kComplexPoolSeed + static_cast<uint64_t>(size);
    o.query_size = size;
    AMBER_ASSIGN_OR_RETURN(
        std::vector<std::string> part,
        Pool(gen, engine, amber::QueryShape::kComplex, o, 8, 1));
    w.pool.insert(w.pool.end(), part.begin(), part.end());
  }
  // One pass: every query twice, once per page, each in a seeded spelling.
  amber::Rng rng(seed);
  std::vector<std::pair<uint32_t, uint64_t>> slots;
  for (uint32_t q = 0; q < w.pool.size(); ++q) {
    slots.emplace_back(q, 0);
    slots.emplace_back(q, 10);
  }
  Shuffle(&slots, &rng);
  std::unordered_map<std::string, uint32_t> seen;
  for (const auto& [q, offset] : slots) {
    Emit(&w, &seen,
         MakeRequest(w, q, static_cast<int>(rng.Uniform(4)), offset, 10,
                     /*bypass_cache=*/true));
  }
  return w;
}

Result<Workload> StarHot(uint64_t seed, const amber::WorkloadGenerator& gen,
                         amber::AmberEngine& engine) {
  Workload w;
  w.name = "star-hot";
  w.clients = 2;
  amber::WorkloadOptions o;
  o.seed = kStarPoolSeed;
  o.query_size = 4;
  AMBER_ASSIGN_OR_RETURN(
      w.pool, Pool(gen, engine, amber::QueryShape::kStar, o, 32, 20));
  // Zipf(1.1) ranks over a seeded permutation of the pool: the seed picks
  // which queries are hot. Pages cycle so each pass has the same shape.
  amber::Rng rng(seed);
  std::vector<uint32_t> rank(w.pool.size());
  std::iota(rank.begin(), rank.end(), 0u);
  Shuffle(&rank, &rng);
  std::vector<double> cdf(rank.size());
  double sum = 0;
  for (size_t i = 0; i < cdf.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
    cdf[i] = sum;
  }
  static constexpr std::pair<uint64_t, uint64_t> kPages[] = {
      {0, 10}, {10, 10}, {0, 5}, {5, 5}};
  std::unordered_map<std::string, uint32_t> seen;
  constexpr int kPassLength = 3000;
  for (int i = 0; i < kPassLength; ++i) {
    const double u = rng.NextDouble() * sum;
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const uint32_t q = rank[std::min(r, rank.size() - 1)];
    const auto [offset, limit] = kPages[i % 4];
    Emit(&w, &seen,
         MakeRequest(w, q, static_cast<int>(rng.Uniform(4)), offset, limit,
                     /*bypass_cache=*/false));
  }
  return w;
}

Result<Workload> FanoutStream(uint64_t seed,
                              const amber::WorkloadGenerator& gen,
                              amber::AmberEngine& engine) {
  Workload w;
  w.name = "fanout-stream";
  w.clients = 2;
  w.stream = true;
  amber::WorkloadOptions o;
  o.seed = kFanoutPoolSeed;
  o.query_size = 4;
  o.satellite_fanout = 3;
  AMBER_ASSIGN_OR_RETURN(
      w.pool, Pool(gen, engine, amber::QueryShape::kStar, o, 24, 100));
  // One pass: every query four times, once per row limit, in a seeded
  // order and spelling — the rows a pass streams do not depend on the seed.
  amber::Rng rng(seed);
  std::vector<std::pair<uint32_t, uint64_t>> slots;
  for (uint32_t q = 0; q < w.pool.size(); ++q) {
    for (uint64_t limit : {100, 200, 300, 400}) slots.emplace_back(q, limit);
  }
  Shuffle(&slots, &rng);
  std::unordered_map<std::string, uint32_t> seen;
  for (const auto& [q, limit] : slots) {
    Emit(&w, &seen,
         MakeRequest(w, q, static_cast<int>(rng.Uniform(4)), 0, limit,
                     /*bypass_cache=*/false));
  }
  return w;
}

}  // namespace

std::vector<amber::Triple> MakeDataset() {
  return amber::GenerateScaleFree(amber::DbpediaProfile(kDatasetScale));
}

amber::ServiceOptions BenchServiceOptions() {
  amber::ServiceOptions o;
  o.max_result_rows = kRetainedRowCap;
  return o;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "complex-solo", "star-hot", "fanout-stream"};
  return kNames;
}

Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                              const std::vector<amber::Triple>& triples,
                              amber::AmberEngine& engine) {
  const amber::WorkloadGenerator gen(triples);
  if (name == "complex-solo") return ComplexSolo(seed, gen, engine);
  if (name == "star-hot") return StarHot(seed, gen, engine);
  if (name == "fanout-stream") return FanoutStream(seed, gen, engine);
  return Status::InvalidArgument("unknown workload \"" + std::string(name) +
                                 "\"");
}

}  // namespace servebench
