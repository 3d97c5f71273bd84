// servebench: the serving benchmark's two processes.
//
//   servebench serve --amf PATH
//     The server process. Generates the dataset, prints "generated", then
//     builds the engine, saves it as AMF, reopens it through OpenFile and
//     starts QueryService + HttpServer on a loopback port. Prints
//     "listening <port> <encode_s> <graph_s> <index_s> <save_s> <open_s>
//     <amf_bytes> <ready_s>" and serves until its stdin closes.
//
//   servebench drive --port P --server-pid PID --amf PATH --workload NAME
//                    --seed N --seconds S --trace 0|1 --busy-poll 0|1
//     The load generator. Builds the workload from the seed, computes a
//     reference answer per distinct request from the same artifact, opens
//     its keep-alive connections, runs discarded warm-up passes, then
//     either the timed closed-loop phase (--trace 0) or the traced replay
//     (--trace 1). The last line of its stdout is one JSON object.
//
// servebench/run.py drives both; see servebench/README.md.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/amber_engine.h"
#include "loadgen.h"
#include "server/http_server.h"
#include "server/query_service.h"
#include "trace.h"
#include "workloads.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  return 1;
}

int Serve(const std::map<std::string, std::string>& args) {
  const std::string amf = args.at("amf");
  std::vector<amber::Triple> triples = MakeDataset();
  std::printf("generated\n");
  std::fflush(stdout);

  amber::AmberEngine::BuildTimings timings;
  double save_s = 0;
  {
    amber::Result<amber::AmberEngine> built = amber::AmberEngine::Build(triples);
    if (!built.ok()) return Fail("build: " + built.status().ToString());
    triples = {};
    timings = built->timings();
    const auto t = Clock::now();
    const amber::Status saved = built->SaveFile(amf);
    if (!saved.ok()) return Fail("save: " + saved.ToString());
    save_s = SecondsSince(t);
  }
  auto t = Clock::now();
  amber::Result<amber::AmberEngine> engine = amber::AmberEngine::OpenFile(amf);
  if (!engine.ok()) return Fail("open: " + engine.status().ToString());
  const double open_s = SecondsSince(t);

  t = Clock::now();
  amber::QueryService service(&*engine, BenchServiceOptions());
  amber::HttpServer server(&service);
  const amber::Status started = server.Start();
  if (!started.ok()) return Fail("start: " + started.ToString());
  const double ready_s = SecondsSince(t);

  struct stat st{};
  ::stat(amf.c_str(), &st);
  std::printf("listening %u %.9f %.9f %.9f %.9f %.9f %lld %.9f\n",
              static_cast<unsigned>(server.port()), timings.encode_seconds,
              timings.graph_seconds, timings.index_seconds, save_s, open_s,
              static_cast<long long>(st.st_size), ready_s);
  std::fflush(stdout);
  while (std::fgetc(stdin) != EOF) {
  }
  server.Stop();
  return 0;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Drive(const std::map<std::string, std::string>& args) {
  const auto port = static_cast<uint16_t>(std::stoi(args.at("port")));
  const int server_pid = std::stoi(args.at("server-pid"));
  const uint64_t seed = std::stoull(args.at("seed"));
  const double seconds = std::stod(args.at("seconds"));
  const bool trace = args.at("trace") == "1";
  const bool busy_poll = args.at("busy-poll") == "1";

  amber::Result<amber::AmberEngine> engine =
      amber::AmberEngine::OpenFile(args.at("amf"));
  if (!engine.ok()) return Fail("open: " + engine.status().ToString());
  amber::Result<Workload> made =
      MakeWorkload(args.at("workload"), seed, MakeDataset(), *engine);
  if (!made.ok()) return Fail(made.status().ToString());
  const Workload& w = *made;

  std::vector<Expected> expected;
  for (const Request& r : w.requests) {
    amber::Result<Expected> e = Reference(*engine, w, r);
    if (!e.ok()) return Fail("reference: " + e.status().ToString());
    expected.push_back(*e);
  }

  // Every connection is opened once, here, and never reopened.
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.push_back(std::make_unique<Client>(w, expected));
    const amber::Status st = clients.back()->Connect(port, busy_poll);
    if (!st.ok()) return Fail("connect: " + st.ToString());
  }

  // Discarded warm-up: one pass warms the caches and checks every distinct
  // answer; further passes, for at least a tenth of the run, size the
  // timed phase in whole passes.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const Phase warm = RunPhase(w, clients, 1);
  attempted += warm.attempted;
  failed += warm.failed;
  uint64_t sizing_passes = 0;
  double sizing_s = 0;
  while (sizing_s < seconds / 10) {
    const Phase sizing = RunPhase(w, clients, 1);
    attempted += sizing.attempted;
    failed += sizing.failed;
    sizing_s += sizing.wall_s;
    ++sizing_passes;
  }
  const uint64_t passes = static_cast<uint64_t>(std::max(
      1.0, std::round(seconds * static_cast<double>(sizing_passes) /
                      sizing_s)));
  std::fprintf(stderr,
               "servebench: %s seed %llu: %zu distinct requests, %zu per "
               "pass, %d client(s), %llu timed passes\n",
               w.name.c_str(), static_cast<unsigned long long>(seed),
               w.requests.size(), w.sequence.size(), w.clients,
               static_cast<unsigned long long>(passes));

  if (trace) {
    amber::Result<TraceResult> tr =
        RunTrace(w, &*engine, clients[0].get(), seconds);
    if (!tr.ok()) return Fail("trace: " + tr.status().ToString());
    attempted += tr->attempted;
    failed += tr->failed;
    PrintResult(failed == 0, attempted, failed, tr->metrics);
    return 0;
  }

  const double cpu0 = ProcessCpuSeconds(server_pid);
  const Phase p = RunPhase(w, clients, passes);
  const double cpu_s = ProcessCpuSeconds(server_pid) - cpu0;
  attempted += p.attempted;
  failed += p.failed;

  // The tail is reported as p90: on a shared VM the p99 of a millisecond
  // request is set by host scheduling stalls and swings several-fold from
  // run to run; p99 goes to stderr only.
  const size_t pass_len = w.sequence.size();
  const double p50 = BlockPercentile(p.latencies_ms, pass_len, 0.50);
  const double p90 = BlockPercentile(p.latencies_ms, pass_len, 0.90);
  const double p99 = BlockPercentile(p.latencies_ms, pass_len, 0.99);
  // Every pass sends the same requests, so rates are taken over the median
  // pass: a burst of interference on the host moves a few passes, not the
  // result.
  const double n = static_cast<double>(p.attempted);
  const double pass_s = Median(p.pass_s);
  const double per_pass = 1.0 / static_cast<double>(passes);
  const std::vector<Metric> metrics = {
      {"throughput_qps", n * per_pass / pass_s, "1/s"},
      {"latency_p50_ms", p50, "ms"},
      {"latency_p90_ms", p90, "ms"},
      {"rows_per_s", static_cast<double>(p.rows) * per_pass / pass_s,
       "rows/s"},
      {"wire_bytes_per_row",
       static_cast<double>(p.bytes) /
           static_cast<double>(std::max<uint64_t>(p.rows, 1)),
       "bytes/row"},
      {"cpu_ms_per_req", cpu_s * 1000.0 / n, "ms"},
      {"peak_rss_mb", ProcessPeakRssMb(server_pid), "MiB"},
      {"answered_ratio", (n - static_cast<double>(p.failed)) / n, "ratio"},
  };
  std::fprintf(stderr,
               "servebench: timed phase: %llu requests (%llu failed) in "
               "%.3f s; %zu latency samples, p99 %.3f ms\n",
               static_cast<unsigned long long>(p.attempted),
               static_cast<unsigned long long>(p.failed), p.wall_s,
               p.latencies_ms.size(), p99);
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: servebench serve|drive --key value ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "servebench: unexpected argument %s\n", argv[i]);
      return 2;
    }
    args[key.substr(2)] = argv[i + 1];
  }
  try {
    if (mode == "serve") return servebench::Serve(args);
    if (mode == "drive") return servebench::Drive(args);
  } catch (const std::exception& e) {  // a missing or malformed argument
    std::fprintf(stderr, "servebench: bad arguments: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "servebench: unknown mode %s\n", mode.c_str());
  return 2;
}
