// Value index V: per-predicate value-ordered columns over the vertex
// attributes, serving FILTER range predicates with binary-searched scans.
//
// Layout (all flat arrays, AMF-able like the other indexes):
//
//   * an attribute value table, indexed by AttributeId: the attribute's
//     predicate (AttrPredId), kind (string/number), numeric value, and a
//     (blob, offsets) pair holding the lexical forms of string values;
//   * per predicate, a numeric column — parallel (value, vertex) arrays
//     sorted by (value, vertex) — addressed by a CSR offsets table over
//     the dense AttrPredId space;
//   * per predicate, a string column — parallel (attribute, vertex)
//     arrays sorted by (lexical form, vertex), the lexical form resolved
//     through the value table so string bytes are stored once.
//
// A range scan binary-searches the bounds implied by a comparison
// conjunction inside one predicate's column, collects the vertices in
// range, and returns them sorted and deduplicated — ready for the
// matcher's intersection kernels. `!=` comparisons are applied while
// collecting (the range itself stays contiguous). EstimateRange returns
// the entry count the scan would visit, which the planner uses as a
// selectivity signal; VertexMatches is the residual per-vertex check the
// matcher uses on satellite vertices and the post-filter ablation uses
// everywhere.

#ifndef AMBER_INDEX_VALUE_INDEX_H_
#define AMBER_INDEX_VALUE_INDEX_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "graph/multigraph.h"
#include "rdf/literal_value.h"
#include "util/amf.h"
#include "util/status.h"
#include "util/storage.h"

namespace amber {

/// Pushdown cutover: a range scan is worth materializing only when its
/// estimated entry count is small relative to the graph — wide ranges cost
/// more to collect/sort/intersect than evaluating the predicate residually
/// on candidates that other constraints produce anyway. Shared by the
/// matcher and EXPLAIN so the reported plan cannot drift from execution.
inline constexpr uint64_t kRangePushMinEntries = 64;
inline constexpr uint64_t kRangePushVertexFraction = 16;

inline bool RangeScanWorthPushing(uint64_t estimate, uint64_t num_vertices) {
  const uint64_t cap = kRangePushMinEntries > num_vertices /
                                                  kRangePushVertexFraction
                           ? kRangePushMinEntries
                           : num_vertices / kRangePushVertexFraction;
  return estimate <= cap;
}

/// \brief Value-ordered attribute index for FILTER range predicates.
class ValueIndex {
 public:
  ValueIndex() = default;

  /// Builds the columns from the graph's attribute CSR and the typed
  /// values surfaced by EncodedDataset::Encode. `num_predicates` is the
  /// attribute-predicate dictionary size (the dense column id space).
  /// Deterministic: identical inputs produce identical arrays.
  static ValueIndex Build(const Multigraph& g,
                          std::span<const AttributeValueInfo> attr_values,
                          size_t num_predicates);

  /// Counters a scan reports into ExecStats.
  struct ScanStats {
    uint64_t scans = 0;
    uint64_t elements = 0;  // column entries visited
  };

  /// Appends to `*out` the sorted, deduplicated vertices carrying a
  /// literal under `pred` that satisfies every comparison of the
  /// conjunction. Unknown predicates yield nothing.
  void RangeScan(AttrPredId pred, std::span<const ValueComparison> cmps,
                 std::vector<VertexId>* out, ScanStats* stats = nullptr) const;

  /// Number of column entries RangeScan would visit — the planner's
  /// selectivity estimate (two binary searches, no materialization).
  uint64_t EstimateRange(AttrPredId pred,
                         std::span<const ValueComparison> cmps) const;

  /// Residual check: true iff some attribute of `attrs` (a vertex's sorted
  /// attribute list) lies under `pred` with a satisfying value.
  bool VertexMatches(std::span<const AttributeId> attrs, AttrPredId pred,
                     std::span<const ValueComparison> cmps) const;

  /// Typed value of attribute `a` (copies string bytes; diagnostics only).
  LiteralValue ValueOf(AttributeId a) const;

  size_t NumAttributes() const { return attr_pred_.size(); }
  size_t NumPredicates() const {
    return num_offsets_.empty() ? 0 : num_offsets_.size() - 1;
  }
  /// Total (value, vertex) entries over all columns.
  uint64_t NumEntries() const {
    return num_vertices_.size() + str_vertices_.size();
  }

  uint64_t ByteSize() const;

  void SaveAmf(amf::Writer* w) const;
  /// Borrows every array from the mapping and validates the full structure
  /// (offset tables, sort orders, id ranges against `num_vertices`) so a
  /// corrupt artifact fails with Status instead of crashing a query.
  Status LoadAmf(const amf::Reader& r, uint64_t num_vertices);

  bool operator==(const ValueIndex& o) const {
    return attr_pred_ == o.attr_pred_ && attr_kind_ == o.attr_kind_ &&
           attr_num_ == o.attr_num_ &&
           attr_text_offsets_ == o.attr_text_offsets_ &&
           attr_text_blob_ == o.attr_text_blob_ &&
           num_offsets_ == o.num_offsets_ && num_values_ == o.num_values_ &&
           num_vertices_ == o.num_vertices_ &&
           str_offsets_ == o.str_offsets_ && str_attrs_ == o.str_attrs_ &&
           str_vertices_ == o.str_vertices_;
  }

 private:
  static constexpr uint8_t kKindString = 0;
  static constexpr uint8_t kKindNumber = 1;

  std::string_view AttrText(AttributeId a) const {
    return {attr_text_blob_.data() + attr_text_offsets_[a],
            static_cast<size_t>(attr_text_offsets_[a + 1] -
                                attr_text_offsets_[a])};
  }
  LiteralValueView ViewOf(AttributeId a) const {
    if (attr_kind_[a] == kKindNumber) {
      return LiteralValueView(true, attr_num_[a], {});
    }
    return LiteralValueView(false, 0.0, AttrText(a));
  }

  /// Structural validation of a loaded index, with vertex ids bounded by
  /// `num_vertices`.
  Status Validate(uint64_t num_vertices) const;

  /// Shared by RangeScan and EstimateRange: resolves a conjunction into
  /// entry-index ranges of `pred`'s two columns ([*num_begin, *num_end)
  /// numeric, [*str_begin, *str_end) string; empty when that kind cannot
  /// satisfy) and collects the '!=' exclusions (pointers into `cmps`).
  void ResolveConjunction(AttrPredId pred,
                          std::span<const ValueComparison> cmps,
                          uint64_t* num_begin, uint64_t* num_end,
                          uint64_t* str_begin, uint64_t* str_end,
                          std::vector<const LiteralValue*>* exclusions) const;

  // -- Attribute value table (indexed by AttributeId).
  ArrayRef<AttrPredId> attr_pred_;
  ArrayRef<uint8_t> attr_kind_;
  ArrayRef<double> attr_num_;           // 0.0 for strings
  ArrayRef<uint64_t> attr_text_offsets_;  // size NumAttributes()+1
  ArrayRef<char> attr_text_blob_;

  // -- Numeric columns (CSR over AttrPredId).
  ArrayRef<uint64_t> num_offsets_;  // size NumPredicates()+1
  ArrayRef<double> num_values_;
  ArrayRef<VertexId> num_vertices_;

  // -- String columns (CSR over AttrPredId; text via the value table).
  ArrayRef<uint64_t> str_offsets_;  // size NumPredicates()+1
  ArrayRef<AttributeId> str_attrs_;
  ArrayRef<VertexId> str_vertices_;
};

}  // namespace amber

#endif  // AMBER_INDEX_VALUE_INDEX_H_
