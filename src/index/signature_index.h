// Vertex signature index S (Section 4.2): the synopses of all data vertices
// stored in an R-tree. Querying with the synopsis of a (query) vertex u
// returns every data vertex whose synopsis dominates u's — a superset of the
// exact candidate set (Lemma 1), used to seed the recursion for the initial
// query vertex.

#ifndef AMBER_INDEX_SIGNATURE_INDEX_H_
#define AMBER_INDEX_SIGNATURE_INDEX_H_

#include <cstdint>
#include <vector>

#include "graph/multigraph.h"
#include "graph/synopsis.h"
#include "index/rtree.h"
#include "util/status.h"

namespace amber {

class ThreadPool;

/// \brief R-tree backed index over all vertex synopses.
class SignatureIndex {
 public:
  SignatureIndex() = default;

  /// Computes all synopses and bulk-loads the R-tree (offline stage). With
  /// a pool, the per-vertex synopsis computation is parallelized; the
  /// bulk load itself stays serial, so the result is bit-identical.
  static SignatureIndex Build(const Multigraph& g, ThreadPool* pool = nullptr);

  /// C^S_u: sorted data vertices whose synopsis dominates `query`.
  std::vector<VertexId> Candidates(const Synopsis& query) const {
    std::vector<VertexId> out;
    tree_.QueryDominating(query, &out);
    return out;
  }

  /// Direct synopsis access (used by tests and the no-index baseline).
  const Synopsis& Of(VertexId v) const { return tree_.PointAt(v); }

  size_t NumVertices() const { return tree_.NumPoints(); }

  uint64_t ByteSize() const { return tree_.ByteSize(); }

  void SaveAmf(amf::Writer* w) const { tree_.SaveAmf(w); }
  Status LoadAmf(const amf::Reader& r) { return tree_.LoadAmf(r); }

 private:
  SynopsisRTree tree_;
};

}  // namespace amber

#endif  // AMBER_INDEX_SIGNATURE_INDEX_H_
