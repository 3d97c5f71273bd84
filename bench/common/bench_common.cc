#include "common/bench_common.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "baseline/graph_backtrack.h"
#include "baseline/triple_store.h"
#include "gen/lubm.h"
#include "gen/scale_free.h"
#include "util/clock.h"
#include "util/string_util.h"

namespace amber {
namespace bench {

namespace {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : fallback;
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

}  // namespace

BenchConfig BenchConfig::FromEnv() {
  BenchConfig config;
  config.scale = EnvDouble("AMBER_BENCH_SCALE", 1.0);
  config.queries_per_point = EnvInt("AMBER_BENCH_QUERIES", 12);
  config.timeout_ms = EnvInt("AMBER_BENCH_TIMEOUT_MS", 1000);
  if (const char* sizes = std::getenv("AMBER_BENCH_SIZES")) {
    config.sizes.clear();
    for (std::string_view piece : StrSplit(sizes, ',')) {
      int v = std::atoi(std::string(piece).c_str());
      if (v > 0) config.sizes.push_back(v);
    }
  }
  return config;
}

DatasetBundle MakeDataset(const std::string& name, double scale) {
  DatasetBundle bundle;
  bundle.name = name;
  if (name == "DBPEDIA") {
    bundle.triples = GenerateScaleFree(DbpediaProfile(scale));
  } else if (name == "YAGO") {
    bundle.triples = GenerateScaleFree(YagoProfile(scale));
  } else if (name == "LUBM") {
    LubmOptions options;
    options.universities = std::max(1, static_cast<int>(2 * scale));
    bundle.triples = GenerateLubm(options);
  } else {
    std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
    std::exit(1);
  }
  return bundle;
}

EngineSuite BuildEngines(const DatasetBundle& dataset) {
  EngineSuite suite;
  Stopwatch sw;
  {
    auto engine = AmberEngine::Build(dataset.triples);
    if (!engine.ok()) {
      std::fprintf(stderr, "AMbER build failed: %s\n",
                   engine.status().ToString().c_str());
      std::exit(1);
    }
    suite.amber =
        std::make_unique<AmberEngine>(std::move(engine).value());
  }
  std::fprintf(stderr, "  built AMbER in %.2fs\n", sw.ElapsedSeconds());
  sw.Reset();
  {
    auto store = TripleStoreEngine::Build(dataset.triples);
    if (!store.ok()) std::exit(1);
    suite.triple_store =
        std::make_unique<TripleStoreEngine>(std::move(store).value());
    TripleStoreEngine::Options naive;
    naive.reorder_patterns = false;
    naive.display_name = "TS-naive";
    auto store2 = TripleStoreEngine::Build(dataset.triples, naive);
    if (!store2.ok()) std::exit(1);
    suite.triple_store_naive =
        std::make_unique<TripleStoreEngine>(std::move(store2).value());
  }
  std::fprintf(stderr, "  built TripleStore x2 in %.2fs\n",
               sw.ElapsedSeconds());
  sw.Reset();
  {
    auto graph_bt = GraphBacktrackEngine::Build(dataset.triples);
    if (!graph_bt.ok()) std::exit(1);
    suite.graph_backtrack =
        std::make_unique<GraphBacktrackEngine>(std::move(graph_bt).value());
  }
  std::fprintf(stderr, "  built GraphBT in %.2fs\n", sw.ElapsedSeconds());
  return suite;
}

std::vector<std::vector<std::string>> MakeWorkloads(
    const DatasetBundle& dataset, QueryShape shape,
    const BenchConfig& config) {
  WorkloadGenerator gen(dataset.triples);
  std::vector<std::vector<std::string>> workloads;
  for (size_t i = 0; i < config.sizes.size(); ++i) {
    WorkloadOptions options;
    options.query_size = config.sizes[i];
    options.count = config.queries_per_point;
    options.seed = 1000 + config.sizes[i];
    workloads.push_back(gen.Generate(shape, options));
    std::fprintf(stderr, "  workload size %d: %zu queries\n", config.sizes[i],
                 workloads.back().size());
  }
  return workloads;
}

std::vector<SeriesPoint> RunSeries(
    QueryEngine* engine, const std::vector<std::vector<std::string>>& queries,
    const std::vector<int>& sizes, int timeout_ms) {
  std::vector<SeriesPoint> series;
  bool dead = false;  // fully timed out at a previous size
  for (size_t i = 0; i < sizes.size(); ++i) {
    SeriesPoint point;
    point.size = sizes[i];
    point.total = static_cast<int>(queries[i].size());
    if (dead || queries[i].empty()) {
      point.unanswered_pct = 100.0;
      series.push_back(point);
      continue;
    }
    double total_ms = 0.0;
    for (const std::string& text : queries[i]) {
      ExecOptions options;
      options.timeout = std::chrono::milliseconds(timeout_ms);
      auto result = engine->CountSparql(text, options);
      if (!result.ok()) continue;  // counted as unanswered
      if (result->stats.timed_out) continue;
      ++point.answered;
      total_ms += result->stats.elapsed_ms;
    }
    point.avg_ms = point.answered > 0 ? total_ms / point.answered : 0.0;
    point.unanswered_pct =
        100.0 * (point.total - point.answered) / std::max(1, point.total);
    if (point.answered == 0) dead = true;
    series.push_back(point);
  }
  return series;
}

void PrintFigure(const std::string& figure_title,
                 const std::vector<QueryEngine*>& engines,
                 const std::vector<std::vector<SeriesPoint>>& series,
                 const std::vector<int>& sizes) {
  std::printf("\n%s\n", figure_title.c_str());
  std::printf("(a) average time per answered query (ms)\n");
  std::printf("%-8s", "size");
  for (QueryEngine* e : engines) std::printf("%14s", e->name().c_str());
  std::printf("\n");
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%-8d", sizes[i]);
    for (size_t e = 0; e < engines.size(); ++e) {
      if (series[e][i].answered == 0) {
        std::printf("%14s", "-");
      } else {
        std::printf("%14.3f", series[e][i].avg_ms);
      }
    }
    std::printf("\n");
  }
  std::printf("(b) %% unanswered queries (timeout)\n");
  std::printf("%-8s", "size");
  for (QueryEngine* e : engines) std::printf("%14s", e->name().c_str());
  std::printf("\n");
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::printf("%-8d", sizes[i]);
    for (size_t e = 0; e < engines.size(); ++e) {
      std::printf("%13.1f%%", series[e][i].unanswered_pct);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

void WriteSeriesJson(const std::string& figure_title,
                     const std::vector<QueryEngine*>& engines,
                     const std::vector<std::vector<SeriesPoint>>& series,
                     const BenchConfig& config) {
  std::vector<std::string> names;
  names.reserve(engines.size());
  for (QueryEngine* e : engines) names.push_back(e->name());
  WriteSeriesJson(figure_title, names, series, config);
}

void WriteSeriesJson(const std::string& figure_title,
                     const std::vector<std::string>& series_names,
                     const std::vector<std::vector<SeriesPoint>>& series,
                     const BenchConfig& config) {
  const char* dir = std::getenv("AMBER_BENCH_JSON_DIR");
  if (!dir || !*dir) return;

  std::string slug;
  for (char c : figure_title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(
          std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();

  std::string path = std::string(dir) + "/BENCH_" + slug + ".json";
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }

  // EscapeNTriples escapes backslash, quote, \n, \r, \t — the same
  // sequences JSON needs for these characters.
  os << "{\n  \"figure\": \"" << EscapeNTriples(figure_title) << "\",\n";
  os << "  \"config\": {\"scale\": " << config.scale
     << ", \"queries_per_point\": " << config.queries_per_point
     << ", \"timeout_ms\": " << config.timeout_ms << "},\n";
  os << "  \"engines\": [\n";
  for (size_t e = 0; e < series_names.size(); ++e) {
    os << "    {\"name\": \"" << EscapeNTriples(series_names[e])
       << "\", \"series\": [";
    for (size_t i = 0; i < series[e].size(); ++i) {
      const SeriesPoint& p = series[e][i];
      os << (i ? ", " : "") << "{\"size\": " << p.size << ", \"avg_ms\": "
         << p.avg_ms << ", \"unanswered_pct\": " << p.unanswered_pct
         << ", \"answered\": " << p.answered << ", \"total\": " << p.total
         << "}";
    }
    os << "]}" << (e + 1 < series_names.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::fprintf(stderr, "  wrote %s\n", path.c_str());
}

void RunShapeFigure(const std::string& figure_title,
                    const std::string& dataset_name, QueryShape shape) {
  BenchConfig config = BenchConfig::FromEnv();
  std::fprintf(stderr, "[%s] scale=%.2f queries/point=%d timeout=%dms\n",
               figure_title.c_str(), config.scale, config.queries_per_point,
               config.timeout_ms);
  DatasetBundle dataset = MakeDataset(dataset_name, config.scale);
  std::fprintf(stderr, "  dataset %s: %zu triples\n", dataset.name.c_str(),
               dataset.triples.size());
  EngineSuite suite = BuildEngines(dataset);
  auto workloads = MakeWorkloads(dataset, shape, config);

  std::vector<QueryEngine*> engines = suite.All();
  std::vector<std::vector<SeriesPoint>> series;
  for (QueryEngine* engine : engines) {
    std::fprintf(stderr, "  running %s...\n", engine->name().c_str());
    series.push_back(
        RunSeries(engine, workloads, config.sizes, config.timeout_ms));
  }
  std::printf(
      "\nEngine analogues (docs/ARCHITECTURE.md, \"Baselines\"): "
      "TripleStore ~ Virtuoso/x-RDF-3X, TS-naive ~ Jena, "
      "GraphBT ~ gStore/TurboHom++ (no AMbER indexes)\n");
  PrintFigure(figure_title, engines, series, config.sizes);
  WriteSeriesJson(figure_title, engines, series, config);
}

}  // namespace bench
}  // namespace amber
