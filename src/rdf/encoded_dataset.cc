#include "rdf/encoded_dataset.h"

namespace amber {

namespace {
// Separator between predicate IRI and literal token in attribute keys.
// \x1f (ASCII unit separator) cannot appear in an IRI.
constexpr char kAttrSep = '\x1f';

// AMF section-id bases of the dictionaries (two sections each:
// string blob, offset table).
constexpr uint32_t kAmfVertexDict = 0x5010;
constexpr uint32_t kAmfEdgeTypeDict = 0x5020;
constexpr uint32_t kAmfAttributeDict = 0x5030;
constexpr uint32_t kAmfAttrPredDict = 0x5040;
}  // namespace

std::string RdfDictionaries::AttributeKey(const Term& predicate,
                                          const Term& literal) {
  std::string key = predicate.value;
  key += kAttrSep;
  key += literal.ToNTriples();
  return key;
}

std::string RdfDictionaries::AttributeDescription(AttributeId a) const {
  std::string_view key = attributes_.Lookup(a);
  size_t pos = key.find(kAttrSep);
  if (pos == std::string_view::npos) return std::string(key);
  std::string out;
  out.reserve(key.size() + 8);
  out += '<';
  out.append(key.substr(0, pos));
  out += "> -> ";
  out.append(key.substr(pos + 1));
  return out;
}

void RdfDictionaries::SaveAmf(amf::Writer* w) const {
  vertices_.SaveAmf(w, kAmfVertexDict);
  edge_types_.SaveAmf(w, kAmfEdgeTypeDict);
  attributes_.SaveAmf(w, kAmfAttributeDict);
  attr_predicates_.SaveAmf(w, kAmfAttrPredDict);
}

Status RdfDictionaries::LoadAmf(const amf::Reader& r) {
  AMBER_RETURN_IF_ERROR(vertices_.LoadAmf(r, kAmfVertexDict));
  AMBER_RETURN_IF_ERROR(edge_types_.LoadAmf(r, kAmfEdgeTypeDict));
  AMBER_RETURN_IF_ERROR(attributes_.LoadAmf(r, kAmfAttributeDict));
  return attr_predicates_.LoadAmf(r, kAmfAttrPredDict);
}

Result<EncodedDataset> EncodedDataset::Encode(
    const std::vector<Triple>& triples) {
  EncodedDataset out;
  out.edges.reserve(triples.size());
  for (const Triple& t : triples) {
    if (t.subject.is_literal()) {
      return Status::InvalidArgument("literal in subject position: " +
                                     t.ToNTriples());
    }
    if (!t.predicate.is_iri()) {
      return Status::InvalidArgument("predicate must be an IRI: " +
                                     t.ToNTriples());
    }
    VertexId s = out.dictionaries.vertices().GetOrAdd(
        RdfDictionaries::VertexKey(t.subject));
    if (t.object.is_literal()) {
      AttributeId a = out.dictionaries.attributes().GetOrAdd(
          RdfDictionaries::AttributeKey(t.predicate, t.object));
      if (a == out.attribute_values.size()) {
        // First sight of this <predicate, literal> pair: record its typed
        // value and intern the predicate into the attribute-predicate
        // dictionary (Table 2's id spaces stay untouched).
        AttrPredId p = out.dictionaries.attr_predicates().GetOrAdd(
            RdfDictionaries::PredicateKey(t.predicate));
        out.attribute_values.push_back(
            AttributeValueInfo{p, LiteralValueOf(t.object)});
      }
      out.attributes.push_back(EncodedAttribute{s, a});
    } else {
      EdgeTypeId p = out.dictionaries.edge_types().GetOrAdd(
          RdfDictionaries::PredicateKey(t.predicate));
      VertexId o = out.dictionaries.vertices().GetOrAdd(
          RdfDictionaries::VertexKey(t.object));
      out.edges.push_back(EncodedEdge{s, p, o});
    }
    ++out.num_triples;
  }
  return out;
}

}  // namespace amber
