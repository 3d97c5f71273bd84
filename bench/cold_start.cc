// Cold-start benchmark: how fast can a QueryEngine instance go from a
// persisted offline artifact to answering its first query? Measures the
// mmap'ed AMF artifact (SaveFile/OpenFile) per dataset: artifact size, save
// time, open time, and first-query latency on the freshly opened engine.
//
// This is the driver behind the ROADMAP "persisted-artifact performance"
// item: a sharded deployment fans out over many engine instances, so
// restore cost is paid per shard and dominates elasticity.
//
// Extra knobs on top of the common AMBER_BENCH_* ones:
//   AMBER_COLD_START_REPS  open repetitions per dataset (default 5)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/bench_common.h"
#include "gen/workload.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace {

std::string TempArtifactPath(const std::string& dataset) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp && *tmp) ? tmp : "/tmp";
  return dir + "/amber_cold_start_" + dataset + ".amf";
}

}  // namespace

int main() {
  using namespace amber;
  using namespace amber::bench;

  BenchConfig config = BenchConfig::FromEnv();
  const int reps = [] {
    const char* v = std::getenv("AMBER_COLD_START_REPS");
    int n = v ? std::atoi(v) : 5;
    return n > 0 ? n : 5;
  }();

  const std::vector<std::string> metric_names = {
      "amf_open_ms", "amf_first_query_ms", "amf_save_ms", "amf_bytes_mb"};
  // One series per metric; each point's `size` is the dataset ordinal
  // (0=DBPEDIA, 1=YAGO, 2=LUBM) and `avg_ms` carries the value.
  std::vector<std::vector<SeriesPoint>> series(metric_names.size());

  std::printf("Cold start: mmap AMF (scale %.2f, %d reps)\n\n", config.scale,
              reps);
  std::printf("%-10s %12s %12s %12s %14s\n", "dataset", "size", "save (ms)",
              "open (ms)", "1st query (ms)");

  const char* dataset_names[] = {"DBPEDIA", "YAGO", "LUBM"};
  for (int di = 0; di < 3; ++di) {
    const std::string name = dataset_names[di];
    DatasetBundle dataset = MakeDataset(name, config.scale);
    auto built = AmberEngine::Build(dataset.triples);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }

    // One representative query, grown from the data like the paper's
    // workloads, issued once on every freshly restored engine.
    WorkloadGenerator gen(dataset.triples);
    WorkloadOptions wopts;
    wopts.query_size = 4;
    wopts.count = 1;
    wopts.seed = 42 + di;
    std::vector<std::string> queries = gen.Generate(QueryShape::kStar, wopts);
    if (queries.empty()) {
      std::fprintf(stderr, "no query generated for %s\n", name.c_str());
      return 1;
    }
    const std::string& query = queries.front();

    double save_ms = 0;
    double open_ms = 0;
    double first_query_ms = 0;
    uint64_t bytes = 0;
    const std::string amf_path = TempArtifactPath(name);
    {
      Stopwatch sw;
      if (!built->SaveFile(amf_path).ok()) return 1;
      save_ms = sw.ElapsedMillis();
      std::ifstream size_probe(amf_path, std::ios::binary | std::ios::ate);
      bytes = static_cast<uint64_t>(size_probe.tellg());
    }
    for (int r = 0; r < reps; ++r) {
      Stopwatch sw;
      auto opened = AmberEngine::OpenFile(amf_path);
      if (!opened.ok()) {
        std::fprintf(stderr, "AMF open failed: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      open_ms += sw.ElapsedMillis();
      sw.Reset();
      auto count = opened->CountSparql(query, {});
      if (!count.ok()) return 1;
      first_query_ms += sw.ElapsedMillis();
    }
    std::remove(amf_path.c_str());
    open_ms /= reps;
    first_query_ms /= reps;
    std::printf("%-10s %12s %12.2f %12.3f %14.3f\n", name.c_str(),
                FormatBytes(bytes).c_str(), save_ms, open_ms, first_query_ms);

    auto point = [di](double value) {
      SeriesPoint p;
      p.size = di;
      p.avg_ms = value;
      p.answered = 1;
      p.total = 1;
      return p;
    };
    series[0].push_back(point(open_ms));
    series[1].push_back(point(first_query_ms));
    series[2].push_back(point(save_ms));
    series[3].push_back(point(bytes / 1e6));
  }

  std::printf(
      "\nExpected shape: AMF open cost is header/table validation, the "
      "structural scans over the borrowed arrays (reads, no copies or "
      "allocations), and the dictionary hash rebuild.\n");

  WriteSeriesJson("Cold start", metric_names, series, config);
  return 0;
}
