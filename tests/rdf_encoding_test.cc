// Unit tests for the dictionaries and the tripleset encoder (Section 2.1.1 /
// Table 2): literal objects become attributes, IRI objects become edges,
// ids are dense and stable, round-trips hold.

#include <gtest/gtest.h>

#include "rdf/dictionary.h"
#include "rdf/encoded_dataset.h"
#include "test_util.h"

namespace amber {
namespace {

TEST(StringDictionaryTest, DenseIdsInInsertionOrder) {
  StringDictionary dict;
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);
  EXPECT_EQ(dict.GetOrAdd("b"), 1u);
  EXPECT_EQ(dict.GetOrAdd("a"), 0u);  // idempotent
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Lookup(1), "b");
  EXPECT_TRUE(dict.Contains("a"));
  EXPECT_FALSE(dict.Contains("c"));
  EXPECT_FALSE(dict.Find("c").has_value());
  EXPECT_EQ(*dict.Find("b"), 1u);
}

TEST(StringDictionaryTest, StableAcrossManyInsertions) {
  // The reverse map holds views into deque storage; growth must not
  // invalidate them.
  StringDictionary dict;
  for (int i = 0; i < 10000; ++i) {
    dict.GetOrAdd("key_with_some_length_" + std::to_string(i));
  }
  for (int i = 0; i < 10000; ++i) {
    std::string key = "key_with_some_length_" + std::to_string(i);
    ASSERT_EQ(*dict.Find(key), static_cast<DictId>(i));
    ASSERT_EQ(dict.Lookup(i), key);
  }
}

TEST(StringDictionaryTest, SaveLoadRoundTrip) {
  StringDictionary dict;
  dict.GetOrAdd("alpha");
  dict.GetOrAdd("beta \x1f with separator");
  dict.GetOrAdd("");
  constexpr uint32_t kBase = 0x100;
  auto copy = testutil::AmfRoundTrip<StringDictionary>(
      [&](amf::Writer* w) { dict.SaveAmf(w, kBase); },
      [&](const amf::Reader& r, StringDictionary* out) {
        return out->LoadAmf(r, kBase);
      });
  ASSERT_TRUE(copy.ok()) << copy.status();
  const StringDictionary& loaded = copy->value;
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(*loaded.Find("alpha"), 0u);
  EXPECT_EQ(loaded.Lookup(1), "beta \x1f with separator");
  EXPECT_EQ(loaded.Lookup(2), "");
}

TEST(StringDictionaryTest, LoadRejectsDuplicateKey) {
  // Blob "aa" cut into two entries "a", "a": ids must stay a bijection.
  constexpr uint32_t kBase = 0x100;
  auto copy = testutil::AmfRoundTrip<StringDictionary>(
      [](amf::Writer* w) {
        w->AddOwned<char>(kBase, {'a', 'a'});
        w->AddOwned<uint64_t>(kBase + 1, {0, 1, 2});
      },
      [](const amf::Reader& r, StringDictionary* out) {
        return out->LoadAmf(r, kBase);
      });
  ASSERT_FALSE(copy.ok());
  EXPECT_TRUE(copy.status().IsCorruption()) << copy.status();
}

TEST(EncodedDatasetTest, LiteralsBecomeAttributes) {
  std::vector<Triple> triples = {
      {Term::Iri("urn:a"), Term::Iri("urn:knows"), Term::Iri("urn:b")},
      {Term::Iri("urn:a"), Term::Iri("urn:age"), Term::Literal("30")},
      {Term::Iri("urn:b"), Term::Iri("urn:age"), Term::Literal("30")},
      {Term::Iri("urn:b"), Term::Iri("urn:age"), Term::Literal("31")},
  };
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  EXPECT_EQ(encoded->num_triples, 4u);
  EXPECT_EQ(encoded->edges.size(), 1u);
  EXPECT_EQ(encoded->attributes.size(), 3u);
  // Two vertices, one edge type (urn:age never appears with an IRI object),
  // two attributes (<age,30>, <age,31>).
  EXPECT_EQ(encoded->dictionaries.vertices().size(), 2u);
  EXPECT_EQ(encoded->dictionaries.edge_types().size(), 1u);
  EXPECT_EQ(encoded->dictionaries.attributes().size(), 2u);
  // a and b share the <age,"30"> attribute id.
  EXPECT_EQ(encoded->attributes[0].attribute, encoded->attributes[1].attribute);
  EXPECT_NE(encoded->attributes[1].attribute, encoded->attributes[2].attribute);
}

TEST(EncodedDatasetTest, TypedValuesSurfacedDuringEncode) {
  std::vector<Triple> triples = {
      {Term::Iri("urn:a"), Term::Iri("urn:age"),
       Term::Literal("30", "http://www.w3.org/2001/XMLSchema#integer")},
      {Term::Iri("urn:a"), Term::Iri("urn:age"),
       Term::Literal("30.5", "http://www.w3.org/2001/XMLSchema#decimal")},
      {Term::Iri("urn:a"), Term::Iri("urn:name"), Term::Literal("Ann")},
      // Numeric datatype with a non-numeric lexical form: string value.
      {Term::Iri("urn:a"), Term::Iri("urn:age"),
       Term::Literal("unknown", "http://www.w3.org/2001/XMLSchema#integer")},
      // Plain numeric lexical without a numeric datatype: string value.
      {Term::Iri("urn:a"), Term::Iri("urn:shoe"), Term::Literal("42")},
      {Term::Iri("urn:a"), Term::Iri("urn:knows"), Term::Iri("urn:b")},
  };
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  // Attribute predicates: age, name, shoe (knows is an edge type).
  EXPECT_EQ(encoded->dictionaries.attr_predicates().size(), 3u);
  EXPECT_EQ(encoded->dictionaries.edge_types().size(), 1u);
  ASSERT_EQ(encoded->attribute_values.size(), 5u);

  auto age = encoded->dictionaries.attr_predicates().Find("urn:age");
  ASSERT_TRUE(age.has_value());
  EXPECT_EQ(encoded->attribute_values[0].predicate, *age);
  EXPECT_TRUE(encoded->attribute_values[0].value.numeric);
  EXPECT_EQ(encoded->attribute_values[0].value.number, 30.0);
  EXPECT_TRUE(encoded->attribute_values[1].value.numeric);
  EXPECT_EQ(encoded->attribute_values[1].value.number, 30.5);
  EXPECT_FALSE(encoded->attribute_values[2].value.numeric);
  EXPECT_EQ(encoded->attribute_values[2].value.text, "Ann");
  EXPECT_FALSE(encoded->attribute_values[3].value.numeric);
  EXPECT_EQ(encoded->attribute_values[3].value.text, "unknown");
  EXPECT_FALSE(encoded->attribute_values[4].value.numeric);
  EXPECT_EQ(encoded->attribute_values[4].value.text, "42");
}

TEST(EncodedDatasetTest, AttrPredicateDictionaryRoundTrips) {
  std::vector<Triple> triples = {
      {Term::Iri("urn:a"), Term::Iri("urn:age"), Term::Literal("30")},
      {Term::Iri("urn:a"), Term::Iri("urn:p"), Term::Iri("urn:b")},
  };
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  auto copy = testutil::AmfCopy(encoded->dictionaries);
  ASSERT_TRUE(copy.ok()) << copy.status();
  const RdfDictionaries& loaded = copy->value;
  EXPECT_EQ(loaded.attr_predicates().size(), 1u);
  EXPECT_EQ(loaded.AttrPredicateIri(0), "urn:age");
}

TEST(EncodedDatasetTest, AttributeKeyDistinguishesPredicate) {
  // <p1,"v"> and <p2,"v"> must be different attributes.
  std::string k1 = RdfDictionaries::AttributeKey(Term::Iri("urn:p1"),
                                                 Term::Literal("v"));
  std::string k2 = RdfDictionaries::AttributeKey(Term::Iri("urn:p2"),
                                                 Term::Literal("v"));
  EXPECT_NE(k1, k2);
  // ...and datatype/lang distinguish literals.
  std::string k3 = RdfDictionaries::AttributeKey(
      Term::Iri("urn:p1"), Term::Literal("v", "urn:dt"));
  std::string k4 = RdfDictionaries::AttributeKey(
      Term::Iri("urn:p1"), Term::Literal("v", "", "en"));
  EXPECT_NE(k1, k3);
  EXPECT_NE(k3, k4);
}

TEST(EncodedDatasetTest, BlankNodesAreVertices) {
  std::vector<Triple> triples = {
      {Term::Blank("x"), Term::Iri("urn:p"), Term::Iri("urn:a")},
      {Term::Iri("urn:a"), Term::Iri("urn:p"), Term::Blank("x")},
  };
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->dictionaries.vertices().size(), 2u);
  EXPECT_EQ(encoded->edges.size(), 2u);
  // The same blank node maps to the same vertex on both sides.
  EXPECT_EQ(encoded->edges[0].subject, encoded->edges[1].object);
}

TEST(EncodedDatasetTest, LiteralSubjectRejected) {
  std::vector<Triple> triples = {
      {Term::Literal("oops"), Term::Iri("urn:p"), Term::Iri("urn:a")},
  };
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_FALSE(encoded.ok());
  EXPECT_TRUE(encoded.status().IsInvalidArgument());
}

TEST(EncodedDatasetTest, IriVsLiteralTokensNeverCollide) {
  // "<urn:x>" as a literal value must not collide with the IRI urn:x.
  std::vector<Triple> triples = {
      {Term::Iri("urn:s"), Term::Iri("urn:p"), Term::Iri("urn:x")},
      {Term::Iri("urn:s2"), Term::Iri("urn:p2"), Term::Literal("<urn:x>")},
  };
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->dictionaries.vertices().size(), 3u);  // s, x, s2
}

TEST(RdfDictionariesTest, SaveLoadRoundTrip) {
  std::vector<Triple> triples = {
      {Term::Iri("urn:a"), Term::Iri("urn:p"), Term::Iri("urn:b")},
      {Term::Iri("urn:a"), Term::Iri("urn:q"), Term::Literal("42")},
  };
  auto encoded = EncodedDataset::Encode(triples);
  ASSERT_TRUE(encoded.ok());
  auto copy = testutil::AmfCopy(encoded->dictionaries);
  ASSERT_TRUE(copy.ok()) << copy.status();
  const RdfDictionaries& loaded = copy->value;
  EXPECT_EQ(loaded.vertices().size(), 2u);
  EXPECT_EQ(loaded.edge_types().size(), 1u);
  EXPECT_EQ(loaded.attributes().size(), 1u);
  EXPECT_EQ(loaded.VertexToken(0), "<urn:a>");
  EXPECT_EQ(loaded.PredicateIri(0), "urn:p");
  EXPECT_EQ(loaded.AttributeDescription(0), "<urn:q> -> \"42\"");
}

}  // namespace
}  // namespace amber
