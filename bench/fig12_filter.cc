// Fig12 (beyond the paper): FILTER pushdown vs post-filter-only ablation.
//
// One DBpedia-profile scale-free dataset with numeric typed literals; star
// workloads where every numeric literal pattern is generalized to a FILTER
// range whose window covers a swept fraction of the predicate's value list
// (the selectivity knob). Two modes of the same AmberEngine:
//
//   * AMbER-pushdown:   default options — predicate constraints become
//                       ValueIndex range scans seeding/refining candidates,
//                       and the planner orders by range width;
//   * AMbER-postfilter: ExecOptions::use_value_index = false — the same
//                       plan shape as the paper's, with every constraint
//                       evaluated residually per candidate.
//
// The "size" axis of the emitted BENCH_fig12_filter.json is the selectivity
// in percent (1 = the window covers 1% of the predicate's values). The
// expected shape: pushdown wins by a growing margin as selectivity drops,
// and converges to post-filter cost as the window approaches 100%.
//
// Env knobs (bench_common.h): AMBER_BENCH_SCALE / _QUERIES / _TIMEOUT_MS;
// AMBER_BENCH_SIZES overrides the selectivity sweep (values in percent).

#include <cstdio>
#include <vector>

#include "common/bench_common.h"
#include "gen/scale_free.h"

int main() {
  using namespace amber;
  using namespace amber::bench;

  BenchConfig config = BenchConfig::FromEnv();
  std::vector<int> selectivities = {1, 5, 10, 25, 50, 90};
  if (const char* env = std::getenv("AMBER_BENCH_SIZES")) {
    (void)env;  // FromEnv already parsed it into config.sizes
    selectivities = config.sizes;
  }
  config.sizes = selectivities;

  // Attribute-rich profile: FILTER workloads need centers that own
  // numeric literals, and the ablation wants the filter (not constant
  // attributes) to carry the selectivity.
  ScaleFreeOptions data_options = DbpediaProfile(config.scale);
  data_options.attr_fraction = 0.8;
  data_options.numeric_attr_fraction = 1.0;
  data_options.num_numeric_predicates = 8;
  DatasetBundle dataset;
  dataset.name = "DBPEDIA+numeric";
  dataset.triples = GenerateScaleFree(data_options);
  std::fprintf(stderr, "[Fig12 filter] dataset: %zu triples, scale=%.2f\n",
               dataset.triples.size(), config.scale);

  auto engine = AmberEngine::Build(dataset.triples);
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }

  // One workload per selectivity point: star queries of a fixed small size
  // with every numeric literal pattern FILTER-generalized.
  WorkloadGenerator gen(dataset.triples);
  std::vector<std::vector<std::string>> workloads;
  for (int sel : selectivities) {
    WorkloadOptions options;
    options.query_size = 3;
    options.count = config.queries_per_point;
    options.seed = 4200 + sel;
    options.literal_fraction = 0.67;
    options.filter_probability = 1.0;
    options.filter_selectivity = sel / 100.0;
    workloads.push_back(gen.Generate(QueryShape::kStar, options));
    std::fprintf(stderr, "  selectivity %d%%: %zu queries\n", sel,
                 workloads.back().size());
  }

  const std::vector<std::string> modes = {"AMbER-pushdown",
                                          "AMbER-postfilter"};
  std::vector<std::vector<SeriesPoint>> series(modes.size());
  uint64_t pushdown_scans = 0, pushdown_checks = 0, postfilter_checks = 0;
  for (size_t i = 0; i < selectivities.size(); ++i) {
    for (size_t m = 0; m < modes.size(); ++m) {
      SeriesPoint point;
      point.size = selectivities[i];
      point.total = static_cast<int>(workloads[i].size());
      double total_ms = 0.0;
      for (const std::string& text : workloads[i]) {
        ExecOptions options;
        options.timeout = std::chrono::milliseconds(config.timeout_ms);
        options.use_value_index = (m == 0);
        auto r = engine->CountSparql(text, options);
        if (!r.ok() || r->stats.timed_out) continue;
        ++point.answered;
        total_ms += r->stats.elapsed_ms;
        if (m == 0) {
          pushdown_scans += r->stats.range_scans;
          pushdown_checks += r->stats.predicate_checks;
        } else {
          postfilter_checks += r->stats.predicate_checks;
        }
      }
      point.avg_ms = point.answered > 0 ? total_ms / point.answered : 0.0;
      point.unanswered_pct = 100.0 * (point.total - point.answered) /
                             std::max(1, point.total);
      series[m].push_back(point);
    }
  }

  std::printf("\nFig12: FILTER pushdown vs post-filter (star queries, "
              "3 patterns, numeric ranges)\n");
  std::printf("%-14s %16s %18s %10s\n", "selectivity", "pushdown (ms)",
              "post-filter (ms)", "speedup");
  for (size_t i = 0; i < selectivities.size(); ++i) {
    const SeriesPoint& a = series[0][i];
    const SeriesPoint& b = series[1][i];
    std::printf("%12d%% %16.3f %18.3f %9.2fx\n", selectivities[i], a.avg_ms,
                b.avg_ms, a.avg_ms > 0 ? b.avg_ms / a.avg_ms : 0.0);
  }
  std::printf("\npushdown: %llu range scans, %llu residual checks; "
              "post-filter: %llu residual checks\n",
              static_cast<unsigned long long>(pushdown_scans),
              static_cast<unsigned long long>(pushdown_checks),
              static_cast<unsigned long long>(postfilter_checks));

  WriteSeriesJson("Fig12 filter", modes, series, config);
  return 0;
}
