// Unit tests for the attribute inverted-list index A (Section 4.1).

#include <gtest/gtest.h>

#include "index/attribute_index.h"
#include "test_util.h"

namespace amber {
namespace {

Multigraph AttributedGraph() {
  Multigraph::Builder b;
  // attr 0 on {0, 2, 4}; attr 1 on {2, 3}; attr 2 on {2}; attr 3 unused.
  b.AddAttribute(0, 0);
  b.AddAttribute(2, 0);
  b.AddAttribute(4, 0);
  b.AddAttribute(2, 1);
  b.AddAttribute(3, 1);
  b.AddAttribute(2, 2);
  b.EnsureVertexCount(5);
  Multigraph g = std::move(b).Build();
  return g;
}

TEST(AttributeIndexTest, InvertedListsSorted) {
  AttributeIndex index = AttributeIndex::Build(AttributedGraph());
  auto l0 = index.Vertices(0);
  EXPECT_EQ(std::vector<VertexId>(l0.begin(), l0.end()),
            (std::vector<VertexId>{0, 2, 4}));
  auto l1 = index.Vertices(1);
  EXPECT_EQ(std::vector<VertexId>(l1.begin(), l1.end()),
            (std::vector<VertexId>{2, 3}));
  EXPECT_TRUE(index.Vertices(7).empty());  // unknown attribute id
}

TEST(AttributeIndexTest, IntersectionCandidates) {
  AttributeIndex index = AttributeIndex::Build(AttributedGraph());
  std::vector<AttributeId> q01 = {0, 1};
  EXPECT_EQ(index.Candidates(q01), std::vector<VertexId>{2});
  std::vector<AttributeId> q012 = {0, 1, 2};
  EXPECT_EQ(index.Candidates(q012), std::vector<VertexId>{2});
  std::vector<AttributeId> q0 = {0};
  EXPECT_EQ(index.Candidates(q0), (std::vector<VertexId>{0, 2, 4}));
  // Unknown attribute kills the intersection.
  std::vector<AttributeId> q_unknown = {0, 9};
  EXPECT_TRUE(index.Candidates(q_unknown).empty());
  EXPECT_TRUE(index.Candidates({}).empty());
}

TEST(AttributeIndexTest, VertexHasAll) {
  AttributeIndex index = AttributeIndex::Build(AttributedGraph());
  std::vector<AttributeId> q01 = {0, 1};
  EXPECT_TRUE(index.VertexHasAll(2, q01));
  EXPECT_FALSE(index.VertexHasAll(0, q01));
  EXPECT_FALSE(index.VertexHasAll(3, q01));
  EXPECT_TRUE(index.VertexHasAll(1, {}));  // vacuous
}

TEST(AttributeIndexTest, SaveLoadRoundTrip) {
  AttributeIndex index = AttributeIndex::Build(AttributedGraph());
  auto loaded = testutil::AmfCopy(index, /*num_vertices=*/5);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->value == index);
}

TEST(AttributeIndexTest, EmptyGraph) {
  Multigraph g = Multigraph::Builder().Build();
  AttributeIndex index = AttributeIndex::Build(g);
  EXPECT_EQ(index.NumAttributes(), 0u);
  EXPECT_TRUE(index.Vertices(0).empty());
}

TEST(IntersectSortedTest, Basics) {
  std::vector<VertexId> a = {1, 3, 5, 7, 9};
  std::vector<VertexId> b = {3, 4, 5, 9, 11};
  EXPECT_EQ(IntersectSorted(a, b), (std::vector<VertexId>{3, 5, 9}));
  EXPECT_TRUE(IntersectSorted(a, {}).empty());
  EXPECT_EQ(IntersectSorted(a, a), a);
}

// Property: Candidates == brute-force intersection over random data.
TEST(AttributeIndexTest, MatchesBruteForceProperty) {
  auto triples = testutil::RandomDataset(/*seed=*/41, 30, 90, 4,
                                         /*num_literal_values=*/3);
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  Multigraph g = Multigraph::FromDataset(*encoded);
  AttributeIndex index = AttributeIndex::Build(g);

  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    size_t k = 1 + rng.Uniform(3);
    std::vector<AttributeId> attrs;
    for (size_t i = 0; i < k; ++i) {
      attrs.push_back(
          static_cast<AttributeId>(rng.Uniform(g.NumAttributes() + 1)));
    }
    std::sort(attrs.begin(), attrs.end());
    attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());

    std::vector<VertexId> expected;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      auto have = g.Attributes(v);
      bool all = true;
      for (AttributeId a : attrs) {
        if (!std::binary_search(have.begin(), have.end(), a)) {
          all = false;
          break;
        }
      }
      if (all) expected.push_back(v);
    }
    EXPECT_EQ(index.Candidates(attrs), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace amber
