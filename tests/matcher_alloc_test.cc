// Proves the tentpole property of the matching hot path: after a warm-up
// run has grown the Matcher's scratch arena, a second Run over the same
// query performs ZERO heap allocations — every Recurse/MatchSatellites/
// RefineByVertex step works in reusable storage. Verified by replacing the
// global allocator with a counting one and diffing the counter around the
// steady-state run.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/matcher.h"
#include "core/query_plan.h"
#include "counting_allocator.h"
#include "graph/multigraph.h"
#include "index/index_set.h"
#include "rdf/encoded_dataset.h"
#include "rdf/term.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"

namespace amber {
namespace {

using testutil::g_total_allocs;

Term I(const std::string& s) { return Term::Iri("urn:" + s); }

/// Triangles with satellite leaves: core vertices ?h ?m ?t plus a
/// satellite ?l, so the steady-state run exercises Recurse (k-way core
/// extension), MatchSatellites, RefineByVertex and Emit.
std::vector<Triple> TriangleDataset() {
  std::vector<Triple> data;
  for (int i = 0; i < 24; ++i) {
    const std::string mid = "mid" + std::to_string(i);
    const std::string tail = "tail" + std::to_string(i);
    // Two hubs share each triangle so candidate lists have length > 1.
    for (int h = 0; h < 2; ++h) {
      const std::string hub = "hub" + std::to_string((i + h) % 24);
      data.push_back({I(hub), I("p"), I(mid)});
      data.push_back({I(hub), I("r"), I(tail)});
    }
    data.push_back({I(mid), I("q"), I(tail)});
    for (int j = 0; j < 3; ++j) {
      data.push_back({I("hub" + std::to_string(i)), I("s"),
                      I("leaf" + std::to_string(i) + "_" + std::to_string(j))});
    }
  }
  return data;
}

struct EngineParts {
  Multigraph graph;
  IndexSet indexes;
  RdfDictionaries dicts;
};

EngineParts BuildParts(const std::vector<Triple>& triples) {
  auto encoded = EncodedDataset::Encode(triples);
  EXPECT_TRUE(encoded.ok()) << encoded.status();
  EngineParts parts;
  parts.graph = Multigraph::FromDataset(*encoded);
  parts.indexes =
      IndexSet::Build(parts.graph, encoded->attribute_values,
                      encoded->dictionaries.attr_predicates().size());
  parts.dicts = std::move(encoded->dictionaries);
  return parts;
}

TEST(MatcherAllocTest, SteadyStateRunIsAllocationFree) {
  EngineParts parts = BuildParts(TriangleDataset());
  auto parsed = SparqlParser::Parse(
      "SELECT ?h ?m ?t ?l WHERE { ?h <urn:p> ?m . ?m <urn:q> ?t . "
      "?h <urn:r> ?t . ?h <urn:s> ?l . }");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto qg = QueryGraph::Build(*parsed, parts.dicts);
  ASSERT_TRUE(qg.ok()) << qg.status();
  QueryPlan plan = PlanQuery(*qg);
  ASSERT_GT(plan.NumCoreVertices(), 1u);
  ASSERT_GT(plan.NumSatelliteVertices(), 0u);

  ExecOptions options;
  Matcher matcher(parts.graph, parts.indexes, *qg, plan, options);

  // Warm-up: grows the arena (depth scratch, satellite buffers, caches).
  CountingSink warm;
  ExecStats warm_stats;
  ASSERT_TRUE(matcher.Run(&warm, &warm_stats).ok());
  ASSERT_GT(warm.count(), 0u);
  ASSERT_GT(warm_stats.recursion_calls, 0u);

  // Steady state: identical run, zero heap allocations.
  CountingSink sink;
  ExecStats stats;
  const uint64_t before = g_total_allocs.load(std::memory_order_relaxed);
  Status status = matcher.Run(&sink, &stats);
  const uint64_t after = g_total_allocs.load(std::memory_order_relaxed);

  ASSERT_TRUE(status.ok());
  EXPECT_EQ(after - before, 0u)
      << "steady-state Run performed " << (after - before)
      << " heap allocations";
  EXPECT_EQ(sink.count(), warm.count());
  EXPECT_EQ(stats.recursion_calls, warm_stats.recursion_calls);
  EXPECT_EQ(stats.embeddings_found, warm_stats.embeddings_found);
}

TEST(MatcherAllocTest, ExecStatsExposeArenaAndKernelCounters) {
  EngineParts parts = BuildParts(TriangleDataset());
  auto parsed = SparqlParser::Parse(
      "SELECT ?h ?m ?t WHERE { ?h <urn:p> ?m . ?m <urn:q> ?t . "
      "?h <urn:r> ?t . }");
  ASSERT_TRUE(parsed.ok());
  auto qg = QueryGraph::Build(*parsed, parts.dicts);
  ASSERT_TRUE(qg.ok());
  QueryPlan plan = PlanQuery(*qg);

  ExecOptions options;
  Matcher matcher(parts.graph, parts.indexes, *qg, plan, options);
  CountingSink sink;
  ExecStats stats;
  ASSERT_TRUE(matcher.Run(&sink, &stats).ok());

  EXPECT_GT(sink.count(), 0u);
  EXPECT_GT(stats.lists_materialized, 0u);
  EXPECT_GT(stats.peak_arena_bytes, 0u);
  // MergeFrom takes the max of peaks and sums the rest.
  ExecStats merged;
  merged.peak_arena_bytes = 1;
  merged.MergeFrom(stats);
  EXPECT_EQ(merged.peak_arena_bytes, stats.peak_arena_bytes);
  EXPECT_EQ(merged.lists_materialized, stats.lists_materialized);
}

}  // namespace
}  // namespace amber
