// Randomized round-trip suite ("fuzz-lite"): random terms with hostile
// characters must survive N-Triples write->parse, dictionary encoding, and
// full engine persistence, bit for bit. Parameterized over seeds so each
// case is independently reproducible.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/amber_engine.h"
#include "rdf/ntriples.h"
#include "sparql/formatter.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "util/random.h"

namespace amber {
namespace {

std::string RandomNasty(Rng* rng, bool iri_safe) {
  static const char* kPieces[] = {
      "plain", "with space", "tab\t", "newline\n", "quote\"", "back\\slash",
      "caf\xC3\xA9", "emoji\xF0\x9F\x98\x80", "uni\xE4\xB8\xAD",
      "cr\r", "hash#frag", "percent%20", "tick'", "angle",
  };
  std::string out;
  const size_t n = 1 + rng->Uniform(4);
  for (size_t i = 0; i < n; ++i) {
    std::string piece = kPieces[rng->Uniform(std::size(kPieces))];
    if (iri_safe) {
      // IRIs cannot contain spaces or control characters unescaped; keep
      // only printable non-space pieces for them.
      for (char& c : piece) {
        if (c == ' ' || c == '\n' || c == '\t' || c == '\r') c = '_';
      }
    }
    out += piece;
  }
  return out;
}

Term RandomTerm(Rng* rng, bool allow_literal) {
  const uint64_t kind = rng->Uniform(allow_literal ? 3 : 2);
  switch (kind) {
    case 0:
      return Term::Iri("http://fuzz.example/" + RandomNasty(rng, true));
    case 1:
      return Term::Blank("b" + std::to_string(rng->Uniform(10)));
    default: {
      const uint64_t flavor = rng->Uniform(3);
      if (flavor == 0) return Term::Literal(RandomNasty(rng, false));
      if (flavor == 1) {
        return Term::Literal(RandomNasty(rng, false),
                             "http://fuzz.example/dt" +
                                 std::to_string(rng->Uniform(3)));
      }
      return Term::Literal(RandomNasty(rng, false), "", "en-GB");
    }
  }
}

class RoundTripFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripFuzzTest, NTriplesWriteParseIdentity) {
  Rng rng(GetParam());
  std::vector<Triple> triples;
  for (int i = 0; i < 200; ++i) {
    Triple t;
    t.subject = RandomTerm(&rng, /*allow_literal=*/false);
    t.predicate = Term::Iri("http://fuzz.example/p" +
                            std::to_string(rng.Uniform(5)));
    t.object = RandomTerm(&rng, /*allow_literal=*/true);
    triples.push_back(std::move(t));
  }
  std::ostringstream os;
  NTriplesWriter::Write(os, triples);
  auto parsed = NTriplesParser::ParseString(os.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), triples.size());
  for (size_t i = 0; i < triples.size(); ++i) {
    EXPECT_EQ((*parsed)[i], triples[i]) << "triple " << i;
  }
}

TEST_P(RoundTripFuzzTest, EnginePersistenceIdentity) {
  Rng rng(GetParam() ^ 0xF00D);
  std::vector<Triple> triples;
  for (int i = 0; i < 120; ++i) {
    Triple t;
    t.subject = RandomTerm(&rng, false);
    t.predicate =
        Term::Iri("http://fuzz.example/p" + std::to_string(rng.Uniform(4)));
    t.object = RandomTerm(&rng, true);
    triples.push_back(std::move(t));
  }
  auto engine = AmberEngine::Build(triples);
  ASSERT_TRUE(engine.ok()) << engine.status();
  const std::string path = testutil::UniqueTempPath("fuzz");
  ASSERT_TRUE(engine->SaveFile(path).ok());
  auto loaded = AmberEngine::OpenFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->graph() == engine->graph());
  for (VertexId v = 0; v < engine->graph().NumVertices(); ++v) {
    EXPECT_EQ(loaded->dictionaries().VertexToken(v),
              engine->dictionaries().VertexToken(v));
  }

  // Same query, same answers, over hostile vocabularies.
  auto a = engine->CountSparql(
      "SELECT ?x ?y WHERE { ?x <http://fuzz.example/p0> ?y . }", {});
  auto b = loaded->CountSparql(
      "SELECT ?x ?y WHERE { ?x <http://fuzz.example/p0> ?y . }", {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->count, b->count);
}

// Random FILTER expressions must hit a parse -> format -> reparse fixpoint:
// reparsing the formatted text reproduces the same AST (patterns, filters,
// projection), and formatting again is byte-identical.
TEST_P(RoundTripFuzzTest, FilterQueryFormatParseFixpoint) {
  Rng rng(GetParam() ^ 0xF1157E5);
  static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                   CompareOp::kLt, CompareOp::kLe,
                                   CompareOp::kGt, CompareOp::kGe};
  for (int qi = 0; qi < 40; ++qi) {
    std::string text = "SELECT ?x WHERE { ?x <urn:p> ?y . ?x <urn:q> ?z .";
    const int num_filters = 1 + static_cast<int>(rng.Uniform(3));
    for (int f = 0; f < num_filters; ++f) {
      const char* var = rng.Chance(0.5) ? "?y" : "?z";
      std::string op(CompareOpToken(kOps[rng.Uniform(std::size(kOps))]));
      std::string constant;
      switch (rng.Uniform(4)) {
        case 0:
          constant = std::to_string(rng.Uniform(1000));
          break;
        case 1:
          constant = std::to_string(rng.Uniform(100)) + "." +
                     std::to_string(rng.Uniform(10));
          break;
        case 2:
          constant = "\"s" + std::to_string(rng.Uniform(10)) + "\"";
          break;
        default:
          constant = "\"t" + std::to_string(rng.Uniform(10)) +
                     "\"^^<urn:dt>";
          break;
      }
      // Mix standalone FILTERs and && conjunctions, both operand orders.
      if (rng.Chance(0.3)) {
        text += " FILTER(" + constant + " " + op + " " + var + ")";
      } else if (rng.Chance(0.3)) {
        text += " FILTER(" + std::string(var) + " " + op + " " + constant +
                " && " + var + " != 999999)";
      } else {
        text += " FILTER(" + std::string(var) + " " + op + " " + constant +
                ")";
      }
    }
    text += " }";

    auto q1 = SparqlParser::Parse(text);
    ASSERT_TRUE(q1.ok()) << q1.status() << "\n" << text;
    std::string formatted = FormatQuery(*q1);
    auto q2 = SparqlParser::Parse(formatted);
    ASSERT_TRUE(q2.ok()) << q2.status() << "\n" << formatted;
    EXPECT_EQ(q2->patterns, q1->patterns) << formatted;
    ASSERT_EQ(q2->filters.size(), q1->filters.size()) << formatted;
    for (size_t i = 0; i < q1->filters.size(); ++i) {
      EXPECT_EQ(q2->filters[i], q1->filters[i]) << formatted;
    }
    EXPECT_EQ(FormatQuery(*q2), formatted);
  }
}

// The still-unsupported FILTER constructs stay Unimplemented under fuzzed
// whitespace (the '<'-as-operator lexer heuristic must not change the
// rejection class).
TEST_P(RoundTripFuzzTest, RejectedFilterConstructsStayUnimplemented) {
  Rng rng(GetParam() ^ 0xBAD);
  const char* templates[] = {
      "SELECT ?x WHERE { ?x <urn:p> ?y .%sFILTER(?y > 1 || ?y < 0) }",
      "SELECT ?x WHERE { ?x <urn:p> ?y .%sFILTER(!(?y = 1)) }",
      "SELECT ?x WHERE { ?x <urn:p> ?y .%sFILTER(regex(?y, \"a\")) }",
      "SELECT ?x WHERE { ?x <urn:p> ?y . ?x <urn:q> ?z .%sFILTER(?y<?z) }",
      "SELECT ?x WHERE { ?x <urn:p> ?y .%sFILTER(?y = <urn:iri>) }",
  };
  const char* spacings[] = {" ", "\n", "\t ", "  \n  "};
  for (const char* tmpl : templates) {
    const char* spacing = spacings[rng.Uniform(std::size(spacings))];
    char buf[256];
    std::snprintf(buf, sizeof(buf), tmpl, spacing);
    auto r = SparqlParser::Parse(buf);
    ASSERT_FALSE(r.ok()) << buf;
    EXPECT_TRUE(r.status().IsUnimplemented()) << buf << "\n" << r.status();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace amber
