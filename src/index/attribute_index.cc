#include "index/attribute_index.h"

#include <algorithm>

#include "util/intersect.h"

namespace amber {

namespace {
// AMF section ids (namespace 0x20xx).
constexpr uint32_t kAmfAttrOffsets = 0x2000;
constexpr uint32_t kAmfAttrPool = 0x2001;
}  // namespace

AttributeIndex AttributeIndex::Build(const Multigraph& g) {
  AttributeIndex index;
  const size_t num_attrs = g.NumAttributes();
  std::vector<uint64_t> offsets(num_attrs + 1, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (AttributeId a : g.Attributes(v)) {
      ++offsets[a + 1];
    }
  }
  for (size_t a = 0; a < num_attrs; ++a) {
    offsets[a + 1] += offsets[a];
  }
  std::vector<VertexId> pool(offsets[num_attrs]);
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  // Vertices are visited in ascending order, so each list ends up sorted.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (AttributeId a : g.Attributes(v)) {
      pool[cursor[a]++] = v;
    }
  }
  index.offsets_ = std::move(offsets);
  index.pool_ = std::move(pool);
  return index;
}

std::vector<VertexId> IntersectSorted(std::span<const VertexId> a,
                                      std::span<const VertexId> b) {
  std::vector<VertexId> out;
  out.reserve(std::min(a.size(), b.size()));
  IntersectSortedAppend(a, b, &out);
  return out;
}

std::vector<VertexId> AttributeIndex::Candidates(
    std::span<const AttributeId> attrs) const {
  if (attrs.empty()) return {};
  std::vector<std::span<const VertexId>> lists;
  lists.reserve(attrs.size());
  for (AttributeId a : attrs) lists.push_back(Vertices(a));
  std::vector<const VertexId*> cursors;
  std::vector<VertexId> result;
  IntersectKWay(std::span<const std::span<const VertexId>>(lists), &cursors,
                &result);
  return result;
}

bool AttributeIndex::VertexHasAll(VertexId v,
                                  std::span<const AttributeId> attrs) const {
  for (AttributeId a : attrs) {
    std::span<const VertexId> list = Vertices(a);
    if (!std::binary_search(list.begin(), list.end(), v)) return false;
  }
  return true;
}

void AttributeIndex::SaveAmf(amf::Writer* w) const {
  w->AddArray(kAmfAttrOffsets, offsets_.span());
  w->AddArray(kAmfAttrPool, pool_.span());
}

Status AttributeIndex::LoadAmf(const amf::Reader& r, uint64_t num_vertices) {
  AMBER_ASSIGN_OR_RETURN(std::span<const uint64_t> offsets,
                         r.Array<uint64_t>(kAmfAttrOffsets));
  AMBER_ASSIGN_OR_RETURN(std::span<const VertexId> pool,
                         r.Array<VertexId>(kAmfAttrPool));
  if (offsets.empty()) {
    if (!pool.empty()) {
      return Status::Corruption("attribute index pool without offsets");
    }
  } else {
    AMBER_RETURN_IF_ERROR(
        amf::ValidateOffsets(offsets, pool.size(), "attribute index"));
  }
  for (VertexId v : pool) {
    if (v >= num_vertices) {
      return Status::Corruption("attribute index pool entry out of range");
    }
  }
  offsets_ = ArrayRef<uint64_t>::Borrowed(offsets);
  pool_ = ArrayRef<VertexId>::Borrowed(pool);
  return Status::OK();
}

}  // namespace amber
