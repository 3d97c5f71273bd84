// The ensemble I := {A, S, N, V} of the offline stage: the paper's three
// indexes (Section 4) plus the value index V serving FILTER range
// predicates (docs/ARCHITECTURE.md, "The FILTER pipeline").

#ifndef AMBER_INDEX_INDEX_SET_H_
#define AMBER_INDEX_INDEX_SET_H_

#include <cstdint>
#include <span>

#include "graph/multigraph.h"
#include "index/attribute_index.h"
#include "index/neighborhood_index.h"
#include "index/signature_index.h"
#include "index/value_index.h"
#include "util/status.h"

namespace amber {

/// \brief The AMbER indexes, built together from a data multigraph.
struct IndexSet {
  AttributeIndex attribute;        // A  (Section 4.1)
  SignatureIndex signature;        // S  (Section 4.2)
  NeighborhoodIndex neighborhood;  // N  (Section 4.3)
  ValueIndex value;                // V  (FILTER range predicates)

  /// Builds all four indexes (offline stage). `attr_values` /
  /// `num_attr_predicates` come from the encoded dataset (the typed
  /// literal values V is sorted by). With a pool, the per-vertex work
  /// inside the signature and neighborhood builds is sharded across
  /// workers; every parallel path is bit-identical to the serial build, so
  /// the persisted artifact does not depend on the thread count.
  static IndexSet Build(const Multigraph& g,
                        std::span<const AttributeValueInfo> attr_values,
                        size_t num_attr_predicates,
                        ThreadPool* pool = nullptr) {
    IndexSet set;
    set.attribute = AttributeIndex::Build(g);
    set.signature = SignatureIndex::Build(g, pool);
    set.neighborhood = NeighborhoodIndex::Build(g, pool);
    set.value = ValueIndex::Build(g, attr_values, num_attr_predicates);
    return set;
  }

  uint64_t ByteSize() const {
    return attribute.ByteSize() + signature.ByteSize() +
           neighborhood.ByteSize() + value.ByteSize();
  }

  void SaveAmf(amf::Writer* w) const {
    attribute.SaveAmf(w);
    signature.SaveAmf(w);
    neighborhood.SaveAmf(w);
    value.SaveAmf(w);
  }

  /// `num_vertices` is the owning graph's vertex count, used to bound the
  /// vertex ids stored in the index pools.
  Status LoadAmf(const amf::Reader& r, uint64_t num_vertices) {
    AMBER_RETURN_IF_ERROR(attribute.LoadAmf(r, num_vertices));
    AMBER_RETURN_IF_ERROR(signature.LoadAmf(r));
    AMBER_RETURN_IF_ERROR(neighborhood.LoadAmf(r));
    return value.LoadAmf(r, num_vertices);
  }
};

}  // namespace amber

#endif  // AMBER_INDEX_INDEX_SET_H_
