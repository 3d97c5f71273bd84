#include "trace.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "core/matcher.h"
#include "core/query_plan.h"
#include "server/query_service.h"
#include "server/wire.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"

namespace servebench {
namespace {

using amber::Result;
using amber::Status;
using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double MsSince(Clock::time_point t0) { return Ms(t0, Clock::now()); }

// Forwards every call to the real engine and accumulates its span and
// ExecStats: the "engine" child span of the service's Query/QueryStream.
class TimedEngine : public amber::QueryEngine {
 private:
  // Times one engine call and keeps its ExecStats.
  template <typename F>
  auto Timed(F&& call) {
    const auto t0 = Clock::now();
    auto r = call();
    tally_.ms += MsSince(t0);
    ++tally_.calls;
    if (r.ok()) tally_.stats.MergeFrom(r->stats);
    return r;
  }

 public:
  struct Tally {
    int calls = 0;
    double ms = 0;         // all engine calls
    double stream_ms = 0;  // Stream calls, minus sink time inside them
    double nested_ms = 0;  // sink time spent inside engine calls
    amber::ExecStats stats;
  };

  // `sink_ms` is the running total of time spent in the replay's page
  // sink, which the engine calls from inside Stream.
  TimedEngine(amber::AmberEngine* inner, const double* sink_ms)
      : inner_(inner), sink_ms_(sink_ms) {}

  Tally Take() { return std::exchange(tally_, Tally()); }

  std::string name() const override { return inner_->name(); }

  Result<amber::CountResult> Count(const amber::SelectQuery& q,
                                   const amber::ExecOptions& o) override {
    return Timed([&] { return inner_->Count(q, o); });
  }
  Result<amber::MaterializedRows> Materialize(
      const amber::SelectQuery& q, const amber::ExecOptions& o) override {
    return Timed([&] { return inner_->Materialize(q, o); });
  }
  Result<amber::FactorizedRows> Factorize(
      const amber::SelectQuery& q, const amber::ExecOptions& o) override {
    return Timed([&] { return inner_->Factorize(q, o); });
  }
  Result<amber::StreamResult> Stream(const amber::SelectQuery& q,
                                     const amber::ExecOptions& o,
                                     amber::RowSink* sink) override {
    const double sink_before = *sink_ms_;
    const double ms_before = tally_.ms;
    auto r = Timed([&] { return inner_->Stream(q, o, sink); });
    const double nested = *sink_ms_ - sink_before;
    tally_.nested_ms += nested;
    tally_.stream_ms += tally_.ms - ms_before - nested;
    return r;
  }
  std::vector<std::string> TranslateRow(
      std::span<const amber::VertexId> row) const override {
    const auto t0 = Clock::now();
    std::vector<std::string> out = inner_->TranslateRow(row);
    tally_.ms += MsSince(t0);
    return out;
  }

 private:
  amber::AmberEngine* inner_;
  const double* sink_ms_;
  mutable Tally tally_;
};

// The replay's PageSink: serializes each page exactly as the server does.
class TraceSink : public amber::PageSink {
 public:
  bool OnPage(amber::StreamPage&& page) override {
    const auto t0 = Clock::now();
    const std::string line = amber::wire::SerializeStreamPage(page);
    if (!line.empty()) bytes += line.size() + 1;  // + the NDJSON newline
    ms += MsSince(t0);
    return true;
  }
  double ms = 0;
  uint64_t bytes = 0;
};

// Per-request sums; the metrics are their means.
struct Sums {
  uint64_t requests = 0;
  double http_self = 0, wire_parse = 0, wire_serialize = 0, wire_bytes = 0;
  double normalize = 0, service_self = 0, sparql_parse = 0, plan = 0;
  double engine = 0, candinit = 0, count = 0, factorize = 0;
  double materialize = 0, expand = 0, stream = 0, coverage = 0;
  uint64_t recursion_calls = 0, initial_candidates = 0, galloped = 0;
  uint64_t rows_expanded = 0, groups_emitted = 0, probe_hits = 0;
  uint64_t probe_checks = 0, peak_arena = 0;
};

// Replays request `r` in-process and adds its spans to `sums`. Returns the
// replay's wall time.
Result<double> Replay(const Workload& w, const Request& r,
                      amber::QueryService& service, TimedEngine& timed,
                      TraceSink& sink, amber::AmberEngine& engine,
                      Sums* sums) {
  timed.Take();
  sink.ms = 0;
  sink.bytes = 0;
  const auto t0 = Clock::now();
  Result<amber::wire::WireRequest> wr = amber::wire::ParseRequest(r.body);
  const auto t1 = Clock::now();
  if (!wr.ok()) return wr.status();
  std::string tail;
  Clock::time_point t2;
  if (w.stream) {
    Result<amber::StreamResponse> sr =
        service.QueryStream(wr->query, wr->options, &sink);
    t2 = Clock::now();
    if (!sr.ok()) return sr.status();
    tail = amber::wire::SerializeStreamSummary(*sr, wr->include_stats);
    sink.bytes += tail.size() + 1;
  } else {
    Result<amber::QueryResponse> resp =
        service.Query(wr->query, wr->options);
    t2 = Clock::now();
    if (!resp.ok()) return resp.status();
    tail = amber::wire::SerializeResponse(*resp, wr->include_stats);
    sink.bytes += tail.size();
  }
  const auto t3 = Clock::now();
  const double ms = Ms(t0, t3);
  const double parse_ms = Ms(t0, t1);
  const double service_ms = Ms(t1, t2);
  const double tail_ms = Ms(t2, t3);
  const TimedEngine::Tally tally = timed.Take();

  // Probes for the children the service does not expose as calls.
  auto t = Clock::now();
  Result<amber::SelectQuery> parsed = amber::SparqlParser::Parse(r.text);
  const double sparql_ms = MsSince(t);
  t = Clock::now();
  Result<amber::NormalizedQuery> nq = amber::NormalizeQuery(r.text);
  const double normalize_ms = MsSince(t);
  if (!parsed.ok()) return parsed.status();
  if (!nq.ok()) return nq.status();

  const double engine_ms = tally.ms - tally.nested_ms;
  sums->requests += 1;
  sums->wire_parse += parse_ms;
  sums->wire_serialize += sink.ms + tail_ms;
  sums->wire_bytes += static_cast<double>(sink.bytes);
  sums->sparql_parse += sparql_ms;
  sums->normalize += normalize_ms;
  sums->engine += engine_ms;
  sums->stream += tally.stream_ms;
  sums->service_self +=
      std::max(0.0, service_ms - engine_ms - sink.ms - normalize_ms);
  sums->coverage += (parse_ms + service_ms + tail_ms) / ms;
  sums->recursion_calls += tally.stats.recursion_calls;
  sums->initial_candidates += tally.stats.initial_candidates;
  sums->galloped += tally.stats.galloped_elements;
  sums->rows_expanded += tally.stats.rows_expanded;
  sums->groups_emitted += tally.stats.groups_emitted;
  sums->probe_hits += tally.stats.probe_hits;
  sums->probe_checks += tally.stats.probe_checks;
  sums->peak_arena = std::max(sums->peak_arena, tally.stats.peak_arena_bytes);
  if (tally.calls == 0) return ms;  // served from the cache

  amber::ExecOptions exec;
  exec.max_rows =
      w.stream ? r.offset + r.limit : BenchServiceOptions().max_result_rows;
  t = Clock::now();
  AMBER_ASSIGN_OR_RETURN(
      amber::QueryGraph qg,
      amber::QueryGraph::Build(nq->query, engine.dictionaries()));
  const amber::QueryPlan plan =
      amber::PlanQuery(qg, exec.plan, &engine.indexes().value,
                       engine.graph().NumVertices());
  sums->plan += MsSince(t);
  if (!qg.unsatisfiable() && !plan.components.empty()) {
    amber::Matcher matcher(engine.graph(), engine.indexes(), qg, plan, exec);
    t = Clock::now();
    matcher.ComputeRootCandidates();
    sums->candinit += MsSince(t);
  }
  t = Clock::now();
  AMBER_RETURN_IF_ERROR(engine.Count(nq->query, exec).status());
  sums->count += MsSince(t);
  amber::ExecOptions fexec = exec;
  fexec.result_form = amber::ResultForm::kAuto;
  t = Clock::now();
  AMBER_RETURN_IF_ERROR(engine.Factorize(nq->query, fexec).status());
  const double factorize_ms = MsSince(t);
  t = Clock::now();
  AMBER_RETURN_IF_ERROR(engine.Materialize(nq->query, exec).status());
  const double materialize_ms = MsSince(t);
  sums->factorize += factorize_ms;
  sums->materialize += materialize_ms;
  sums->expand += std::max(0.0, materialize_ms - factorize_ms);
  return ms;
}

// Sends whole passes over `client` until `budget_s` is used (at least
// one), calling `after(index, outcome)` after each request.
template <typename After>
void Passes(const Workload& w, Client* client, double budget_s,
            TraceResult* out, After after) {
  const auto start = Clock::now();
  do {
    for (const uint32_t index : w.sequence) {
      const Outcome o = client->Send(index);
      ++out->attempted;
      if (!o.ok) ++out->failed;
      after(index, o);
    }
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
           budget_s);
}

}  // namespace

Result<TraceResult> RunTrace(const Workload& w, amber::AmberEngine* engine,
                             Client* client, double seconds) {
  TraceSink sink;
  TimedEngine timed(engine, &sink.ms);
  amber::QueryService service(&timed, BenchServiceOptions());
  Sums sums;
  // Bring the in-process service to the server's state: one untimed pass
  // fills its cache the way the warm-up filled the server's.
  for (const uint32_t index : w.sequence) {
    Sums discard;
    AMBER_RETURN_IF_ERROR(Replay(w, w.requests[index], service, timed, sink,
                                 *engine, &discard)
                              .status());
  }

  // The untraced passes also give each request's mean round trip, against
  // which http.self_ms is taken: a traced round trip follows the previous
  // request's replay, which leaves the server idle and its caches cold.
  TraceResult out;
  std::vector<double> untraced_ms;
  std::vector<double> rtt_sum(w.requests.size(), 0.0);
  std::vector<int> rtt_n(w.requests.size(), 0);
  Passes(w, client, seconds / 3, &out, [&](uint32_t index, const Outcome& o) {
    untraced_ms.push_back(o.ms);
    rtt_sum[index] += o.ms;
    ++rtt_n[index];
  });

  AMBER_ASSIGN_OR_RETURN(amber::json::Value before,
                         FetchStats(client->conn()));
  std::vector<double> traced_ms;
  Status replay_status = Status::OK();
  Passes(w, client, seconds * 2 / 3, &out,
         [&](uint32_t index, const Outcome& o) {
           traced_ms.push_back(o.ms);
           Result<double> replay_ms = Replay(
               w, w.requests[index], service, timed, sink, *engine, &sums);
           if (!replay_ms.ok()) {
             replay_status = replay_ms.status();
             return;
           }
           sums.http_self += rtt_sum[index] / rtt_n[index] - *replay_ms;
         });
  AMBER_RETURN_IF_ERROR(replay_status);
  AMBER_ASSIGN_OR_RETURN(amber::json::Value after,
                         FetchStats(client->conn()));
  auto delta = [&](const char* section, const char* key) {
    return static_cast<double>(StatsCounter(after, section, key) -
                               StatsCounter(before, section, key));
  };

  const double n = static_cast<double>(std::max<uint64_t>(sums.requests, 1));
  const double hits = delta("service", "cache_hits");
  const double lookups = hits + delta("service", "cache_misses");
  auto count = [&](uint64_t v) { return static_cast<double>(v) / n; };
  std::vector<Metric>& m = out.metrics;
  m = {
      {"http.self_ms", sums.http_self / n, "ms"},
      {"http.bytes_written", delta("server", "bytes_written") / n,
       "bytes/req"},
      {"http.connections_rejected",
       static_cast<double>(
           StatsCounter(after, "server", "connections_rejected")),
       "count"},
      {"http.aborted_responses",
       static_cast<double>(StatsCounter(after, "server", "aborted_responses")),
       "count"},
      {"wire.parse_ms", sums.wire_parse / n, "ms"},
      {"wire.serialize_ms", sums.wire_serialize / n, "ms"},
      {"wire.bytes", sums.wire_bytes / n, "bytes/req"},
      {"service.normalize_ms", sums.normalize / n, "ms"},
      {"service.self_ms", sums.service_self / n, "ms"},
      {"service.cache_hit_ratio", lookups > 0 ? hits / lookups : 0, "ratio"},
      {"service.single_flight_hits",
       static_cast<double>(
           StatsCounter(after, "service", "single_flight_hits")),
       "count"},
      {"service.timed_out",
       static_cast<double>(StatsCounter(after, "service", "timed_out")),
       "count"},
      {"sparql.parse_ms", sums.sparql_parse / n, "ms"},
      {"plan.ms", sums.plan / n, "ms"},
      {"engine.ms", sums.engine / n, "ms"},
      {"engine.candinit_ms", sums.candinit / n, "ms"},
      {"engine.count_ms", sums.count / n, "ms"},
      {"engine.factorize_ms", sums.factorize / n, "ms"},
      {"engine.materialize_ms", sums.materialize / n, "ms"},
      {"engine.expand_translate_ms", sums.expand / n, "ms"},
      {"engine.stream_ms", sums.stream / n, "ms"},
      {"engine.recursion_calls", count(sums.recursion_calls), "count/req"},
      {"engine.initial_candidates", count(sums.initial_candidates),
       "count/req"},
      {"engine.probe_hit_ratio",
       sums.probe_checks > 0 ? static_cast<double>(sums.probe_hits) /
                                   static_cast<double>(sums.probe_checks)
                             : 0,
       "ratio"},
      {"engine.galloped_elements", count(sums.galloped), "count/req"},
      {"engine.rows_expanded", count(sums.rows_expanded), "count/req"},
      {"engine.groups_emitted", count(sums.groups_emitted), "count/req"},
      {"engine.peak_arena_bytes", static_cast<double>(sums.peak_arena),
       "bytes"},
      {"trace.overhead_ms", Median(traced_ms) - Median(untraced_ms), "ms"},
      {"trace.coverage", sums.coverage / n, "ratio"},
  };
  return out;
}

}  // namespace servebench
