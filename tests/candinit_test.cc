// CandInit (Algorithm 3, lines 4-5) seeds each component from the
// signature dominance filter (Lemma 1) intersected with the local
// candidates of ProcessVertex (Algorithm 1). The matcher evaluates it from
// whichever side is small: a short local list (IRI anchors, attributes) is
// filtered by synopsis directly, a long one is intersected with the R-tree
// answer. Both sides must give exactly the oracle list — same set, same
// ascending order — for the root vertex and for later components, and
// every engine entry point must return the same rows and counters whether
// the R-tree or the full-scan ablation produced the seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/amber_engine.h"
#include "core/matcher.h"
#include "core/query_plan.h"
#include "graph/multigraph.h"
#include "index/index_set.h"
#include "rdf/encoded_dataset.h"
#include "rdf/term.h"
#include "sparql/parser.h"
#include "sparql/query_graph.h"

namespace amber {
namespace {

constexpr int kEntities = 2000;

Term I(const std::string& s) { return Term::Iri("urn:" + s); }
Term E(int i) { return I("e" + std::to_string(i)); }

/// Entities with varied synopses (a "link" ring plus typed extras), a few
/// IRI anchors of very different in-degree, and literal attributes of two
/// selectivities. "small"/"small2" lists and kind50 attributes stay under
/// |V|/16; "big" and kind5 lists are far above it.
std::vector<Triple> Dataset() {
  std::vector<Triple> data;
  for (int i = 0; i < kEntities; ++i) {
    data.push_back({E(i), I("link"), E((i * 7 + 3) % kEntities)});
    if (i % 4 == 0) data.push_back({E(i), I("link2"), E((i + 1) % kEntities)});
    if (i % 9 == 0) data.push_back({E((i + 5) % kEntities), I("link"), E(i)});
    if (i % 200 == 0) data.push_back({E(i), I("p"), I("small")});
    if (i % 300 == 7) data.push_back({E(i), I("p"), I("small")});
    if (i % 3 == 0) data.push_back({E(i), I("p"), I("big")});
    if (i % 100 == 1) data.push_back({I("small2"), I("q"), E(i)});
    data.push_back(
        {E(i), I("kind"), Term::Literal("k" + std::to_string(i % 5))});
    data.push_back(
        {E(i), I("tag"), Term::Literal("t" + std::to_string(i % 50))});
  }
  return data;
}

struct Parts {
  Multigraph graph;
  IndexSet indexes;
  RdfDictionaries dicts;
};

Parts BuildParts() {
  auto encoded = EncodedDataset::Encode(Dataset());
  EXPECT_TRUE(encoded.ok()) << encoded.status();
  Parts parts;
  parts.graph = Multigraph::FromDataset(*encoded);
  parts.indexes =
      IndexSet::Build(parts.graph, encoded->attribute_values,
                      encoded->dictionaries.attr_predicates().size());
  parts.dicts = std::move(encoded->dictionaries);
  return parts;
}

/// ProcessVertex's local constraints of `u`, checked straight on the
/// multigraph (no A or N index involved).
bool LocallyMatches(const Multigraph& g, const QueryVertex& qv, VertexId v) {
  std::span<const AttributeId> have = g.Attributes(v);
  for (AttributeId a : qv.attrs) {
    if (std::find(have.begin(), have.end(), a) == have.end()) return false;
  }
  for (const IriConstraint& c : qv.iris) {
    if (!c.out_types.empty() &&
        !g.HasMultiEdgeSuperset(v, Direction::kOut, c.anchor, c.out_types)) {
      return false;
    }
    if (!c.in_types.empty() &&
        !g.HasMultiEdgeSuperset(v, Direction::kIn, c.anchor, c.in_types)) {
      return false;
    }
  }
  return qv.self_types.empty() ||
         g.HasMultiEdgeSuperset(v, Direction::kOut, v, qv.self_types);
}

/// Oracle CandInit: signature.Candidates(syn) ∩ local, by brute force.
std::vector<VertexId> OracleCandidates(const Parts& parts,
                                       const QueryGraph& q, uint32_t u) {
  const Synopsis syn = q.VertexSynopsis(u);
  std::vector<VertexId> out;
  for (VertexId v : parts.indexes.signature.Candidates(syn)) {
    if (LocallyMatches(parts.graph, q.vertices()[u], v)) out.push_back(v);
  }
  return out;
}

/// |local| of `u`: how many vertices pass its local constraints.
size_t LocalSize(const Parts& parts, const QueryGraph& q, uint32_t u) {
  size_t n = 0;
  for (VertexId v = 0; v < parts.graph.NumVertices(); ++v) {
    n += LocallyMatches(parts.graph, q.vertices()[u], v);
  }
  return n;
}

/// Records every emitted row.
class RowSink : public EmbeddingSink {
 public:
  bool wants_rows() const override { return true; }
  bool OnRow(std::span<const VertexId> row) override {
    rows.emplace_back(row.begin(), row.end());
    return true;
  }
  bool OnCount(uint64_t) override { return true; }
  std::vector<std::vector<VertexId>> rows;
};

struct Compiled {
  QueryGraph q;
  QueryPlan plan;
};

Compiled Compile(const Parts& parts, const std::string& text) {
  auto parsed = SparqlParser::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto qg = QueryGraph::Build(*parsed, parts.dicts);
  EXPECT_TRUE(qg.ok()) << qg.status();
  QueryPlan plan = PlanQuery(*qg);
  return Compiled{std::move(qg).value(), std::move(plan)};
}

// Root vertices on both sides of the cutover: short IRI and attribute
// lists, a long IRI list, a long attribute list, and a vertex with no
// local constraints at all (R-tree only).
const char* const kRootQueries[] = {
    "SELECT ?x ?y WHERE { ?x <urn:p> <urn:small> . ?x <urn:link> ?y . }",
    "SELECT ?x ?y WHERE { <urn:small2> <urn:q> ?x . ?x <urn:link> ?y . }",
    "SELECT ?x ?y WHERE { ?x <urn:tag> \"t4\" . ?x <urn:link2> ?y . }",
    "SELECT ?x ?y WHERE { ?x <urn:p> <urn:big> . ?x <urn:link2> ?y . "
    "?x <urn:link> ?z . }",
    "SELECT ?x ?y WHERE { ?x <urn:kind> \"k2\" . ?x <urn:link> ?y . "
    "?x <urn:link2> ?z . }",
    "SELECT ?x ?y WHERE { ?x <urn:link> ?y . ?x <urn:link2> ?z . }",
};

TEST(CandInitTest, RootCandidatesEqualSignatureIntersectLocal) {
  const Parts parts = BuildParts();
  const size_t num_vertices = parts.graph.NumVertices();
  bool saw_short = false;
  bool saw_long = false;
  for (const char* text : kRootQueries) {
    SCOPED_TRACE(text);
    Compiled c = Compile(parts, text);
    const uint32_t uinit = c.plan.components[0].core_order[0];
    const size_t local = LocalSize(parts, c.q, uinit);
    if (c.q.vertices()[uinit].HasLocalConstraints()) {
      (local * 16 <= num_vertices ? saw_short : saw_long) = true;
    }
    const std::vector<VertexId> want = OracleCandidates(parts, c.q, uinit);
    ASSERT_FALSE(want.empty());

    ExecOptions options;
    Matcher matcher(parts.graph, parts.indexes, c.q, c.plan, options);
    EXPECT_EQ(matcher.ComputeRootCandidates(), want);

    ExecOptions scan = options;
    scan.use_signature_index = false;
    Matcher scanner(parts.graph, parts.indexes, c.q, c.plan, scan);
    EXPECT_EQ(scanner.ComputeRootCandidates(), want);
  }
  // The dataset must straddle the cutover, or one side goes untested.
  EXPECT_TRUE(saw_short);
  EXPECT_TRUE(saw_long);
}

TEST(CandInitTest, LaterComponentsSeedInOracleOrder) {
  const Parts parts = BuildParts();
  // Two variable-connected components: the rows are the cross product of
  // the components' seeds, component 0 outermost, so the row sequence
  // pins both seed lists in order. Pairs cover short/short, short/long and
  // long/short.
  const char* const queries[] = {
      "SELECT ?x ?z WHERE { ?x <urn:p> <urn:small> . "
      "<urn:small2> <urn:q> ?z . }",
      "SELECT ?x ?z WHERE { ?x <urn:p> <urn:small> . ?z <urn:kind> \"k1\" . }",
      "SELECT ?x ?z WHERE { ?x <urn:tag> \"t7\" . ?z <urn:p> <urn:big> . }",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    Compiled c = Compile(parts, text);
    ASSERT_EQ(c.plan.components.size(), 2u);
    const uint32_t u0 = c.plan.components[0].core_order[0];
    const uint32_t u1 = c.plan.components[1].core_order[0];
    const std::vector<VertexId> c0 = OracleCandidates(parts, c.q, u0);
    const std::vector<VertexId> c1 = OracleCandidates(parts, c.q, u1);
    ASSERT_FALSE(c0.empty());
    ASSERT_FALSE(c1.empty());

    const std::vector<uint32_t>& proj = c.q.projection();
    const size_t s0 = std::find(proj.begin(), proj.end(), u0) - proj.begin();
    const size_t s1 = std::find(proj.begin(), proj.end(), u1) - proj.begin();
    ASSERT_LT(s0, proj.size());
    ASSERT_LT(s1, proj.size());
    std::vector<std::vector<VertexId>> want;
    for (VertexId a : c0) {
      for (VertexId b : c1) {
        std::vector<VertexId> row(proj.size());
        row[s0] = a;
        row[s1] = b;
        want.push_back(row);
      }
    }

    for (bool use_signature_index : {true, false}) {
      SCOPED_TRACE(use_signature_index ? "r-tree" : "full scan");
      ExecOptions options;
      options.use_signature_index = use_signature_index;
      Matcher matcher(parts.graph, parts.indexes, c.q, c.plan, options);
      RowSink sink;
      ExecStats stats;
      ASSERT_TRUE(matcher.Run(&sink, &stats).ok());
      EXPECT_EQ(sink.rows, want);
      EXPECT_EQ(stats.initial_candidates, c0.size());
    }
  }
}

TEST(CandInitTest, EngineEntryPointsAgreeAcrossSeedPaths) {
  auto built = AmberEngine::Build(Dataset());
  ASSERT_TRUE(built.ok()) << built.status();
  AmberEngine& engine = *built;
  std::vector<std::string> queries(std::begin(kRootQueries),
                                   std::end(kRootQueries));
  queries.push_back(
      "SELECT ?x ?y ?z WHERE { ?x <urn:p> <urn:small> . ?x <urn:link> ?y . "
      "?z <urn:p> <urn:big> . ?z <urn:link2> ?w . }");
  queries.push_back(
      "SELECT DISTINCT ?y WHERE { ?x <urn:tag> \"t9\" . ?x <urn:link> ?y . "
      "<urn:small2> <urn:q> ?z . }");
  for (const std::string& text : queries) {
    SCOPED_TRACE(text);
    ExecOptions reference;
    reference.use_signature_index = false;
    auto want = engine.MaterializeSparql(text, reference);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_FALSE(want->rows.empty());
    auto want_count = engine.CountSparql(text, reference);
    ASSERT_TRUE(want_count.ok()) << want_count.status();

    for (bool use_signature_index : {true, false}) {
      SCOPED_TRACE("signature=" + std::to_string(use_signature_index));
      ExecOptions options;
      options.use_signature_index = use_signature_index;
      auto got = engine.MaterializeSparql(text, options);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got->rows, want->rows);
      EXPECT_EQ(got->stats.initial_candidates,
                want->stats.initial_candidates);
      auto count = engine.CountSparql(text, options);
      ASSERT_TRUE(count.ok()) << count.status();
      EXPECT_EQ(count->count, want_count->count);
      EXPECT_EQ(count->stats.initial_candidates,
                want_count->stats.initial_candidates);
    }
  }
}

}  // namespace
}  // namespace amber
