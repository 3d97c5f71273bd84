// Shared benchmark harness for the paper-reproduction binaries (one binary
// per table/figure; see docs/BENCHMARKS.md for the full catalogue).
//
// Protocol (Section 7.2 of the paper): per (dataset, shape, size) point,
// generate N queries grown from the data, run each engine with a per-query
// wall-clock budget, and report (a) the average time over *answered*
// queries and (b) the percentage of unanswered queries. An engine that
// answers nothing at size k is skipped for larger sizes (the paper's
// competitors "fail from size k onwards").
//
// Environment knobs so the suite scales from smoke test to full run:
//   AMBER_BENCH_SCALE       dataset scale factor        (default 1.0)
//   AMBER_BENCH_QUERIES     queries per point           (default 12)
//   AMBER_BENCH_TIMEOUT_MS  per-query budget            (default 1000)
//   AMBER_BENCH_SIZES       comma list of query sizes   (default 10..50)
//   AMBER_BENCH_JSON_DIR    if set, additionally write a machine-readable
//                           BENCH_<slug>.json result file into this
//                           directory (the perf-trajectory convention of
//                           docs/BENCHMARKS.md)

#ifndef AMBER_BENCH_COMMON_BENCH_COMMON_H_
#define AMBER_BENCH_COMMON_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/amber_engine.h"
#include "core/query_engine.h"
#include "gen/workload.h"
#include "rdf/term.h"

namespace amber {
namespace bench {

/// Harness configuration (see header comment for the env knobs).
struct BenchConfig {
  double scale = 1.0;
  int queries_per_point = 12;
  int timeout_ms = 1000;
  std::vector<int> sizes = {10, 20, 30, 40, 50};

  static BenchConfig FromEnv();
};

/// One benchmark dataset.
struct DatasetBundle {
  std::string name;
  std::vector<Triple> triples;
};

/// Builds one of the three paper datasets ("DBPEDIA", "YAGO", "LUBM") at
/// the configured scale.
DatasetBundle MakeDataset(const std::string& name, double scale);

/// All engines under comparison, built on one dataset. The display names
/// carry the paper-competitor analogue (docs/ARCHITECTURE.md, "Baselines").
struct EngineSuite {
  std::unique_ptr<QueryEngine> amber;
  std::unique_ptr<QueryEngine> triple_store;        // RDF-3X/Virtuoso-like
  std::unique_ptr<QueryEngine> triple_store_naive;  // Jena-like (no reorder)
  std::unique_ptr<QueryEngine> graph_backtrack;     // gStore/TurboHom-like

  std::vector<QueryEngine*> All() const {
    return {amber.get(), triple_store.get(), triple_store_naive.get(),
            graph_backtrack.get()};
  }
};

/// Builds the full suite (prints build progress to stderr).
EngineSuite BuildEngines(const DatasetBundle& dataset);

/// Result of one (engine, size) measurement point.
struct SeriesPoint {
  int size = 0;
  double avg_ms = 0.0;         // over answered queries
  double unanswered_pct = 0.0;
  int answered = 0;
  int total = 0;
};

/// Runs the Section 7.3 protocol for one engine over per-size query sets.
std::vector<SeriesPoint> RunSeries(
    QueryEngine* engine, const std::vector<std::vector<std::string>>& queries,
    const std::vector<int>& sizes, int timeout_ms);

/// Generates per-size workloads for a dataset.
std::vector<std::vector<std::string>> MakeWorkloads(
    const DatasetBundle& dataset, QueryShape shape, const BenchConfig& config);

/// Prints the two paper-style tables "(a) average time" / "(b) % unanswered"
/// for one figure.
void PrintFigure(const std::string& figure_title,
                 const std::vector<QueryEngine*>& engines,
                 const std::vector<std::vector<SeriesPoint>>& series,
                 const std::vector<int>& sizes);

/// Writes BENCH_<slug>.json (slug derived from `figure_title`) into
/// `AMBER_BENCH_JSON_DIR` if that env var is set; no-op otherwise. The JSON
/// schema is documented in docs/BENCHMARKS.md and is the interchange format
/// for tracking perf across PRs.
void WriteSeriesJson(const std::string& figure_title,
                     const std::vector<QueryEngine*>& engines,
                     const std::vector<std::vector<SeriesPoint>>& series,
                     const BenchConfig& config);

/// Same, but with explicit series names — for drivers whose compared
/// configurations are not distinct QueryEngine objects (the ablations run
/// one engine under several option sets).
void WriteSeriesJson(const std::string& figure_title,
                     const std::vector<std::string>& series_names,
                     const std::vector<std::vector<SeriesPoint>>& series,
                     const BenchConfig& config);

/// Full driver for one of Figures 6-11.
void RunShapeFigure(const std::string& figure_title,
                    const std::string& dataset_name, QueryShape shape);

}  // namespace bench
}  // namespace amber

#endif  // AMBER_BENCH_COMMON_BENCH_COMMON_H_
