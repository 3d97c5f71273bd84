// Table 1 of the paper: average time for complex queries with 50 triple
// patterns on DBPEDIA, per engine. (Paper: AMbER 1.56s, gStore 11.96s,
// Virtuoso 20.45s, x-RDF-3X >60s over 200 queries at full scale — we check
// the *ordering*, not the absolute numbers.)

#include <cstdio>

#include "common/bench_common.h"

int main() {
  using namespace amber;
  using namespace amber::bench;

  BenchConfig config = BenchConfig::FromEnv();
  config.sizes = {50};
  DatasetBundle dataset = MakeDataset("DBPEDIA", config.scale);
  std::fprintf(stderr, "dataset: %zu triples\n", dataset.triples.size());
  EngineSuite suite = BuildEngines(dataset);
  auto workloads = MakeWorkloads(dataset, QueryShape::kComplex, config);

  std::printf("\nTable 1: average time for complex queries of 50 triple "
              "patterns on DBPEDIA-like data\n");
  std::printf("(per-query timeout %d ms; unanswered queries excluded from "
              "the average, as in the paper)\n\n",
              config.timeout_ms);
  std::printf("%-14s %14s %14s %12s\n", "engine", "avg time (ms)",
              "% unanswered", "answered");
  std::vector<QueryEngine*> engines = suite.All();
  std::vector<std::vector<SeriesPoint>> all_series;
  for (QueryEngine* engine : engines) {
    all_series.push_back(
        RunSeries(engine, workloads, config.sizes, config.timeout_ms));
    const SeriesPoint& p = all_series.back()[0];
    if (p.answered > 0) {
      std::printf("%-14s %14.3f %13.1f%% %8d/%d\n", engine->name().c_str(),
                  p.avg_ms, p.unanswered_pct, p.answered, p.total);
    } else {
      std::printf("%-14s %14s %13.1f%% %8d/%d\n", engine->name().c_str(),
                  ">timeout", p.unanswered_pct, p.answered, p.total);
    }
  }

  std::printf("\nExpected shape (paper Table 1): AMbER fastest by a wide "
              "margin; graph baseline next; join-based stores slowest or "
              "timing out.\n");
  WriteSeriesJson("Table 1 headline", engines, all_series, config);
  return 0;
}
