// Closed-loop serving-throughput benchmark for the QueryService runtime
// (ROADMAP "query-serving runtime"; docs/BENCHMARKS.md "Throughput").
//
// N concurrent clients (swept over AMBER_BENCH_CLIENTS, default
// 1,2,4,8,16,32,64) each issue requests back-to-back for a fixed wall
// window, against these configurations (every query executes serially):
//
//   service-pooled   QueryService with the cache bypassed: every request
//                    executes on its client thread.
//   service-cached   QueryService with the plan/result cache on: the
//                    steady-state repeat-heavy serving mix.
//   service-streaming
//                    QueryStream at the same row cap (request.limit =
//                    AMBER_BENCH_MAX_ROWS): pages leave through a draining
//                    PageSink instead of materializing the response. Every
//                    point additionally reports peak_buffered_bytes — the
//                    high-water mark of the in-flight page across the
//                    whole window, the O(buffer) memory bound the
//                    streaming path claims. tools/bench_diff.py gates it
//                    with a ceiling (a streamed point ballooning toward
//                    O(result) memory is a regression even at equal qps).
//   service-http     The same cache-bypassed closed loop through the
//                    HTTP/1.1 transport (server/http_server.h): every
//                    request crosses a real loopback socket, the wire
//                    serializers, and the keep-alive request loop. The
//                    spread against service-pooled IS the transport tax
//                    (framing + JSON + syscalls), measured, not guessed.
//   service-degraded-<R>pct
//                    One series per AMBER_BENCH_FAULT_RATE entry: the
//                    cache-bypassed service under a seeded R% transient
//                    fault probability at the service.execute site, with
//                    deadline-aware retries (2, 1ms initial backoff)
//                    enabled. The robustness floor the gate defends: the
//                    runtime must keep answering — degraded qps, not a
//                    collapse to zero.
//
// A second, fixed-workload section measures BYTES ON THE WIRE: one
// star query per satellite count (2 / 4 / 6 extra satellite patterns over
// fanout-3 hubs) streamed over HTTP as rows and as factorized groups
// ("result_form":"groups"). The http-wire-rows / http-wire-groups series
// attach `bytes_on_wire` (total streamed payload bytes) to each point;
// tools/bench_diff.py gates groups-mode bytes with a ceiling — the
// factorized transport losing its compression (shipping the expanded
// cross-product again) is a regression even at equal qps.
//
// Reported per (series, clients) point: sustained qps plus p50/p99 request
// latency. Expected shape: service-cached far above service-pooled at
// every client count. Emits BENCH_throughput.json — the harness series schema with qps /
// p50_ms / p99_ms attached to every point; tools/bench_diff.py gates qps.
//
// Env knobs (bench_common.h): AMBER_BENCH_SCALE / _QUERIES / _TIMEOUT_MS /
// _SIZES / _JSON_DIR, plus:
//   AMBER_BENCH_CLIENTS      comma list of client counts (default
//                            1,2,4,8,16,32,64)
//   AMBER_BENCH_DURATION_MS  measured window per point (default 1000)
//   AMBER_BENCH_MAX_ROWS     row cap per response, applied identically to
//                            every series (default 512). A serving mix
//                            returns bounded pages, not unbounded star
//                            joins; without the cap, row materialization
//                            drowns the serving-path signal.
//   AMBER_BENCH_FAULT_RATE   comma list of transient-fault percentages for
//                            the service-degraded series (default 1,10;
//                            empty string disables the sweep).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_common.h"
#include "rdf/term.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "util/fault_injector.h"
#include "util/json.h"
#include "util/string_util.h"

namespace {

using namespace amber;
using namespace amber::bench;
using Clock = std::chrono::steady_clock;

/// One (series, clients) measurement.
struct ThroughputPoint {
  int clients = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double avg_ms = 0.0;
  int answered = 0;  // completed without timing out
  int total = 0;     // requests issued
  // Streaming series only: max StreamResponse::peak_buffered_bytes seen
  // across the window — the in-flight-page high-water mark. 0 elsewhere.
  uint64_t peak_buffered_bytes = 0;
  // Wire series only: total streamed payload bytes. 0 elsewhere.
  uint64_t bytes_on_wire = 0;
};

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

/// Runs `clients` closed-loop client threads for `window`; `issue` answers
/// one request for query index `qi` and returns false on timeout.
ThroughputPoint RunPoint(int clients, std::chrono::milliseconds window,
                         size_t num_queries,
                         const std::function<bool(size_t)>& issue) {
  std::mutex mu;
  std::vector<double> latencies;
  std::atomic<int> answered{0};
  std::atomic<int> total{0};

  const auto start = Clock::now();
  const auto stop = start + window;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> local;
      size_t qi = static_cast<size_t>(c);  // stagger the query mix
      while (Clock::now() < stop) {
        const auto t0 = Clock::now();
        const bool ok = issue(qi % num_queries);
        const auto t1 = Clock::now();
        ++total;
        if (ok) ++answered;
        local.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        ++qi;
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  ThroughputPoint point;
  point.clients = clients;
  point.total = total.load();
  point.answered = answered.load();
  point.qps = elapsed_s > 0 ? point.total / elapsed_s : 0.0;
  std::sort(latencies.begin(), latencies.end());
  point.p50_ms = Percentile(latencies, 0.50);
  point.p99_ms = Percentile(latencies, 0.99);
  double sum = 0;
  for (double v : latencies) sum += v;
  point.avg_ms = latencies.empty() ? 0.0 : sum / latencies.size();
  return point;
}

/// BENCH_throughput.json: the harness series schema ("size" = client
/// count) with qps / p50_ms / p99_ms attached to every point.
void WriteThroughputJson(
    const std::vector<std::string>& names,
    const std::vector<std::vector<ThroughputPoint>>& series,
    const BenchConfig& config) {
  const char* dir = std::getenv("AMBER_BENCH_JSON_DIR");
  if (!dir || !*dir) return;
  const std::string path = std::string(dir) + "/BENCH_throughput.json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  os << "{\n  \"figure\": \"Throughput\",\n";
  os << "  \"config\": {\"scale\": " << config.scale
     << ", \"queries_per_point\": " << config.queries_per_point
     << ", \"timeout_ms\": " << config.timeout_ms << "},\n";
  os << "  \"engines\": [\n";
  for (size_t e = 0; e < names.size(); ++e) {
    os << "    {\"name\": \"" << names[e] << "\", \"series\": [";
    for (size_t i = 0; i < series[e].size(); ++i) {
      const ThroughputPoint& p = series[e][i];
      const double unanswered =
          100.0 * (p.total - p.answered) / std::max(1, p.total);
      os << (i ? ", " : "") << "{\"size\": " << p.clients
         << ", \"avg_ms\": " << p.avg_ms
         << ", \"unanswered_pct\": " << unanswered
         << ", \"answered\": " << p.answered << ", \"total\": " << p.total
         << ", \"qps\": " << p.qps << ", \"p50_ms\": " << p.p50_ms
         << ", \"p99_ms\": " << p.p99_ms
         << ", \"peak_buffered_bytes\": " << p.peak_buffered_bytes
         << ", \"bytes_on_wire\": " << p.bytes_on_wire << "}";
    }
    os << "]}" << (e + 1 < names.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::fprintf(stderr, "  wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  BenchConfig config = BenchConfig::FromEnv();
  // Throughput defaults (overridable by the usual env knobs): small fast
  // queries — a serving mix, not the paper's heavyweight figure shapes.
  if (std::getenv("AMBER_BENCH_SIZES") == nullptr) config.sizes = {4, 6};

  std::vector<int> client_counts = {1, 2, 4, 8, 16, 32, 64};
  if (const char* env = std::getenv("AMBER_BENCH_CLIENTS")) {
    client_counts.clear();
    for (std::string_view piece : StrSplit(env, ',')) {
      int v = std::atoi(std::string(piece).c_str());
      if (v > 0) client_counts.push_back(v);
    }
    if (client_counts.empty()) client_counts = {4};
  }
  std::chrono::milliseconds window(1000);
  if (const char* env = std::getenv("AMBER_BENCH_DURATION_MS")) {
    const int v = std::atoi(env);
    if (v > 0) window = std::chrono::milliseconds(v);
  }
  uint64_t max_rows = 512;
  if (const char* env = std::getenv("AMBER_BENCH_MAX_ROWS")) {
    const int v = std::atoi(env);
    if (v > 0) max_rows = static_cast<uint64_t>(v);
  }
  std::vector<int> fault_rates = {1, 10};
  if (const char* env = std::getenv("AMBER_BENCH_FAULT_RATE")) {
    fault_rates.clear();  // empty string disables the sweep
    for (std::string_view piece : StrSplit(env, ',')) {
      // Skip empty pieces: "" disables the sweep, "1,,10" has two rates.
      if (TrimWhitespace(piece).empty()) continue;
      const int v = std::atoi(std::string(piece).c_str());
      if (v >= 0 && v <= 100) fault_rates.push_back(v);
    }
  }

  DatasetBundle dataset = MakeDataset("LUBM", config.scale);
  std::fprintf(stderr, "[Throughput] dataset: %zu triples, %lld ms/point\n",
               dataset.triples.size(),
               static_cast<long long>(window.count()));
  auto built = AmberEngine::Build(dataset.triples);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  AmberEngine engine = std::move(built).value();

  // One flat pool of query texts drawn from the per-size workloads.
  std::vector<std::string> queries;
  for (auto& sized : MakeWorkloads(dataset, QueryShape::kStar, config)) {
    for (auto& q : sized) queries.push_back(std::move(q));
  }
  if (queries.empty()) {
    std::fprintf(stderr, "no queries generated\n");
    return 1;
  }

  const int max_clients =
      *std::max_element(client_counts.begin(), client_counts.end());
  ServiceOptions service_options;
  service_options.max_in_flight = max_clients;  // admission never rejects
  service_options.max_queued = max_clients;
  service_options.cache_entries = 2 * queries.size();
  service_options.max_result_rows = max_rows;
  service_options.default_deadline =
      std::chrono::milliseconds(config.timeout_ms);

  std::vector<std::string> names = {"service-pooled", "service-cached",
                                    "service-streaming", "service-http"};
  for (int rate : fault_rates) {
    names.push_back("service-degraded-" + std::to_string(rate) + "pct");
  }
  std::vector<std::vector<ThroughputPoint>> series(names.size());

  for (int clients : client_counts) {
    std::fprintf(stderr, "  %d clients...\n", clients);

    {  // service-pooled: every request executes, in process.
      QueryService service(&engine, service_options);
      series[0].push_back(RunPoint(clients, window, queries.size(),
                                   [&](size_t qi) {
                                     RequestOptions req;
                                     req.bypass_cache = true;
                                     auto resp =
                                         service.Query(queries[qi], req);
                                     return resp.ok() && !resp->timed_out;
                                   }));
    }
    {  // service-cached: the repeat-heavy steady state.
      QueryService service(&engine, service_options);
      series[1].push_back(RunPoint(clients, window, queries.size(),
                                   [&](size_t qi) {
                                     auto resp = service.Query(queries[qi]);
                                     return resp.ok() && !resp->timed_out;
                                   }));
    }
    {  // service-streaming: QueryStream at the same row cap; pages drain
       // through a no-op sink, so the point measures the streaming path's
       // pipeline cost plus its bounded-buffer memory high-water mark.
      QueryService service(&engine, service_options);
      struct DrainSink : PageSink {
        bool OnPage(StreamPage&&) override { return true; }
      };
      std::atomic<uint64_t> peak_bytes{0};
      ThroughputPoint point = RunPoint(
          clients, window, queries.size(), [&](size_t qi) {
            DrainSink sink;
            RequestOptions req;
            req.limit = max_rows;  // cap-comparable to the other series
            auto resp = service.QueryStream(queries[qi], req, &sink);
            if (!resp.ok()) return false;
            uint64_t seen = peak_bytes.load(std::memory_order_relaxed);
            while (resp->peak_buffered_bytes > seen &&
                   !peak_bytes.compare_exchange_weak(
                       seen, resp->peak_buffered_bytes,
                       std::memory_order_relaxed)) {
            }
            return resp->complete;
          });
      point.peak_buffered_bytes = peak_bytes.load();
      series[2].push_back(point);
    }
    {  // service-http: the same closed loop through the loopback HTTP
       // transport, one connection handler per client.
      QueryService service(&engine, service_options);
      HttpServerOptions http_options;
      http_options.max_connections = clients;
      HttpServer server(&service, http_options);
      if (Status s = server.Start(); !s.ok()) {
        std::fprintf(stderr, "http server: %s\n", s.ToString().c_str());
        series[3].push_back(ThroughputPoint{clients});
      } else {
        const uint16_t port = server.port();
        series[3].push_back(RunPoint(
            clients, window, queries.size(), [&, port](size_t qi) {
              // One keep-alive client per closed-loop thread (threads are
              // per-point, so so are the connections).
              thread_local std::unique_ptr<HttpClient> client;
              thread_local uint16_t client_port = 0;
              if (!client || client_port != port) {
                client = std::make_unique<HttpClient>(port);
                client_port = port;
              }
              json::Writer w;
              w.BeginObject();
              w.KV("query", queries[qi]);
              w.KV("limit", max_rows);
              w.KV("bypass_cache", true);
              w.EndObject();
              auto resp = client->Post("/query", w.Take());
              if (!resp.ok()) client->Close();
              return resp.ok() && resp->status == 200;
            }));
        server.Stop();
      }
    }
    for (size_t f = 0; f < fault_rates.size(); ++f) {
      // service-degraded: the cache-bypassed service under a seeded R%
      // transient fault probability at service.execute, with retries on.
      // "answered" here counts requests that survived the faults — the
      // robustness floor the diff gate defends.
      ServiceOptions degraded = service_options;
      degraded.max_retries = 2;
      degraded.initial_backoff = std::chrono::milliseconds(1);
      QueryService service(&engine, degraded);
      std::optional<ScopedFault> fault;
      if (fault_rates[f] > 0) {
        FaultSpec spec;  // default code kUnavailable: retryable
        spec.probability = fault_rates[f] / 100.0;
        spec.seed = 1000u * static_cast<uint64_t>(clients) + f;
        fault.emplace(faults::kServiceExecute, spec);
      }
      series[4 + f].push_back(RunPoint(clients, window, queries.size(),
                                       [&](size_t qi) {
                                         RequestOptions req;
                                         req.bypass_cache = true;
                                         auto resp =
                                             service.Query(queries[qi], req);
                                         return resp.ok() && !resp->timed_out;
                                       }));
    }
  }

  std::printf("\nServing throughput (closed loop, %zu-query star mix)\n",
              queries.size());
  std::printf("%-10s", "clients");
  for (const std::string& n : names) {
    std::printf("  %16s", (n + " qps").c_str());
  }
  std::printf("  %12s  %12s\n", "pooled p50", "pooled p99");
  for (size_t i = 0; i < client_counts.size(); ++i) {
    std::printf("%-10d", client_counts[i]);
    for (const auto& s : series) {
      std::printf("  %16.1f", s[i].qps);
    }
    std::printf("  %10.3fms  %10.3fms\n", series[0][i].p50_ms,
                series[0][i].p99_ms);
  }
  std::printf("\nExpected shape: service-cached far above service-pooled "
              "at every client count, service-streaming near service-pooled qps with "
              "peak_buffered_bytes bounded by the page buffer, and every "
              "service-degraded series still answering (reduced qps, "
              "never zero).\n");
  if (!series[2].empty()) {
    uint64_t high = 0;
    for (const auto& p : series[2]) {
      high = std::max(high, p.peak_buffered_bytes);
    }
    std::printf("service-streaming peak buffered bytes (max over points): "
                "%llu\n",
                static_cast<unsigned long long>(high));
  }

  // ---- Bytes on the wire: rows vs factorized groups ----------------------
  // A fixed synthetic star workload (fanout-3 hubs, k satellite patterns)
  // streamed over HTTP in both result forms. "size" = satellite count k;
  // rows mode ships 3^k rows per hub, groups mode ships one group of k
  // short lists — the compression the factorized transport claims.
  {
    std::vector<Triple> star;
    for (int h = 0; h < 6; ++h) {
      Term hub = Term::Iri("urn:hub" + std::to_string(h));
      for (int s = 0; s < 3; ++s) {
        star.emplace_back(hub, Term::Iri("urn:p0"),
                          Term::Iri("urn:hub" + std::to_string(h) + "sat" +
                                    std::to_string(s)));
      }
    }
    auto star_built = AmberEngine::Build(star);
    if (star_built.ok()) {
      AmberEngine star_engine = std::move(star_built).value();
      QueryService service(&star_engine, ServiceOptions());
      HttpServer server(&service);
      if (Status s = server.Start(); s.ok()) {
        HttpClient client(server.port());
        std::vector<ThroughputPoint> rows_points, groups_points;
        std::printf("\nBytes on the wire, rows vs groups (star query, "
                    "fanout-3 hubs)\n%-12s  %12s  %14s  %8s\n",
                    "satellites", "rows bytes", "groups bytes", "ratio");
        for (int sats : {2, 4, 6}) {
          std::string q = "SELECT ?h";
          for (int i = 0; i < sats; ++i) q += " ?s" + std::to_string(i);
          q += " WHERE {";
          for (int i = 0; i < sats; ++i) {
            q += " ?h <urn:p0> ?s" + std::to_string(i) + " .";
          }
          q += " }";
          uint64_t form_bytes[2] = {0, 0};
          for (int form = 0; form < 2; ++form) {  // 0 = rows, 1 = groups
            json::Writer w;
            w.BeginObject();
            w.KV("query", q);
            w.KV("bypass_cache", true);
            if (form == 1) w.KV("result_form", "groups");
            w.EndObject();
            const auto t0 = Clock::now();
            auto resp = client.PostStream("/query/stream", w.Take(),
                                          [](std::string_view) {
                                            return true;
                                          });
            const double ms = std::chrono::duration<double, std::milli>(
                                  Clock::now() - t0)
                                  .count();
            ThroughputPoint point;
            point.clients = sats;  // "size" axis = satellite count
            point.total = 1;
            point.avg_ms = point.p50_ms = point.p99_ms = ms;
            if (resp.ok() && resp->status == 200 &&
                resp->chunked_complete) {
              point.answered = 1;
              point.bytes_on_wire = resp->body.size();
            }
            form_bytes[form] = point.bytes_on_wire;
            (form == 0 ? rows_points : groups_points).push_back(point);
          }
          std::printf("%-12d  %12llu  %14llu  %7.1fx\n", sats,
                      static_cast<unsigned long long>(form_bytes[0]),
                      static_cast<unsigned long long>(form_bytes[1]),
                      form_bytes[1] > 0
                          ? static_cast<double>(form_bytes[0]) /
                                static_cast<double>(form_bytes[1])
                          : 0.0);
        }
        server.Stop();
        names.push_back("http-wire-rows");
        series.push_back(std::move(rows_points));
        names.push_back("http-wire-groups");
        series.push_back(std::move(groups_points));
      } else {
        std::fprintf(stderr, "wire section: %s\n", s.ToString().c_str());
      }
    }
  }
  std::fflush(stdout);

  WriteThroughputJson(names, series, config);
  return 0;
}
