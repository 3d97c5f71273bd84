// An 8-dimensional R-tree over vertex synopses (Section 4.2).
//
// Each synopsis is a point in Z^8; the paper views it as the axis-parallel
// rectangle [0, f_1] x ... x [0, f_8] and asks for rectangle containment.
// Equivalently, the query for a query-vertex synopsis q is a *dominance*
// search: report every point p with q[i] <= p[i] for all i.
//
// The tree is bulk-loaded (sort-tile-recursive flavoured: each level
// partitions along the next dimension round-robin) into a flat, cache-
// friendly layout where every subtree owns one contiguous range of entries.
// That makes the two dominance prunes cheap:
//   * skip a subtree when  exists i : q[i] > mbr_max[i]   (nothing matches),
//   * bulk-accept it when  forall i : q[i] <= mbr_min[i]  (everything does).

#ifndef AMBER_INDEX_RTREE_H_
#define AMBER_INDEX_RTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/synopsis.h"
#include "util/amf.h"
#include "util/status.h"
#include "util/storage.h"

namespace amber {

/// \brief Bulk-loaded R-tree over synopsis points, supporting dominance
/// queries.
class SynopsisRTree {
 public:
  /// Tuning knobs for bulk load.
  struct Options {
    /// Maximum points per leaf.
    uint32_t leaf_capacity = 64;
    /// Maximum children per internal node.
    uint32_t fanout = 16;
  };

  SynopsisRTree() = default;

  /// Bulk-loads the tree; `points[i]` belongs to id `i`.
  static SynopsisRTree Build(std::span<const Synopsis> points,
                             const Options& options);
  /// Bulk-loads with default Options.
  static SynopsisRTree Build(std::span<const Synopsis> points) {
    return Build(points, Options{});
  }

  /// Appends to `*out` the ids of all points dominating `q`
  /// (component-wise q.f[i] <= p.f[i]). The appended range is sorted
  /// ascending; elements already in `*out` are left as they are.
  void QueryDominating(const Synopsis& q, std::vector<uint32_t>* out) const;

  /// Sorted-output cutover. The tree walk appends ids in subtree order; a
  /// large answer is put in order through a NumPoints()-bit bitmap (one
  /// bit set per id, then a word walk) instead of std::sort. The bitmap
  /// wins once the answer is not tiny and fills at least one bit per
  /// kBitmapMaxSparsity of the id space, so the word walk stays within a
  /// constant of the answer size.
  static constexpr size_t kBitmapMinIds = 256;
  static constexpr size_t kBitmapMaxSparsity = 64;
  static bool UseSortedBitmap(size_t count, size_t num_points) {
    return count >= kBitmapMinIds && count * kBitmapMaxSparsity >= num_points;
  }

  size_t NumPoints() const { return points_.size(); }
  size_t NumNodes() const { return nodes_.size(); }
  const Synopsis& PointAt(uint32_t id) const { return points_[id]; }

  uint64_t ByteSize() const {
    return nodes_.ByteSize() + entries_.ByteSize() + child_pool_.ByteSize() +
           points_.ByteSize();
  }

  void SaveAmf(amf::Writer* w) const;
  Status LoadAmf(const amf::Reader& r);

 private:
  struct Node {
    int32_t mbr_min[Synopsis::kNumFields];
    int32_t mbr_max[Synopsis::kNumFields];
    uint32_t entry_begin;     // subtree's contiguous range in entries_
    uint32_t entry_end;
    uint32_t children_begin;  // into child_pool_; count==0 => leaf
    uint32_t children_count;
  };

  // Mutable state of one bulk load (defined in rtree.cc); the finished
  // vectors are adopted by the tree's ArrayRef storage.
  struct Bulk;

  void CollectRange(uint32_t begin, uint32_t end,
                    std::vector<uint32_t>* out) const;

  ArrayRef<Synopsis> points_;
  ArrayRef<Node> nodes_;         // root is nodes_.back() when non-empty
  ArrayRef<uint32_t> entries_;   // point ids, grouped by subtree
  ArrayRef<uint32_t> child_pool_;
  uint32_t root_ = 0;
};

}  // namespace amber

#endif  // AMBER_INDEX_RTREE_H_
