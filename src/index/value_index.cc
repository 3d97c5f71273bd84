#include "index/value_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

namespace amber {

namespace {

// AMF section ids (namespace 0x60xx).
constexpr uint32_t kAmfAttrPred = 0x6000;
constexpr uint32_t kAmfAttrKind = 0x6001;
constexpr uint32_t kAmfAttrNum = 0x6002;
constexpr uint32_t kAmfAttrTextOffsets = 0x6003;
constexpr uint32_t kAmfAttrTextBlob = 0x6004;
constexpr uint32_t kAmfNumOffsets = 0x6005;
constexpr uint32_t kAmfNumValues = 0x6006;
constexpr uint32_t kAmfNumVertices = 0x6007;
constexpr uint32_t kAmfStrOffsets = 0x6008;
constexpr uint32_t kAmfStrAttrs = 0x6009;
constexpr uint32_t kAmfStrVertices = 0x600A;

/// Bounds of a numeric range implied by a comparison conjunction.
struct NumericRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  void TightenLo(double v, bool open) {
    if (v > lo || (v == lo && open)) {
      lo = v;
      lo_open = open;
    }
  }
  void TightenHi(double v, bool open) {
    if (v < hi || (v == hi && open)) {
      hi = v;
      hi_open = open;
    }
  }
  bool Empty() const { return lo > hi || (lo == hi && (lo_open || hi_open)); }
};

/// Bounds of a lexical range. Views point into the comparisons.
struct StringRange {
  bool has_lo = false, has_hi = false;
  std::string_view lo, hi;
  bool lo_open = false, hi_open = false;

  void TightenLo(std::string_view v, bool open) {
    if (!has_lo || v > lo || (v == lo && open)) {
      has_lo = true;
      lo = v;
      lo_open = open;
    }
  }
  void TightenHi(std::string_view v, bool open) {
    if (!has_hi || v < hi || (v == hi && open)) {
      has_hi = true;
      hi = v;
      hi_open = open;
    }
  }
  bool Empty() const {
    return has_lo && has_hi && (lo > hi || (lo == hi && (lo_open || hi_open)));
  }
};

/// Splits a conjunction into range bounds + '!=' exclusions. Returns false
/// when the conjunction mixes numeric and string constants (unsatisfiable
/// under the shared kind-matching semantics).
bool SplitConjunction(std::span<const ValueComparison> cmps, bool* numeric,
                      NumericRange* nrange, StringRange* srange,
                      std::vector<const LiteralValue*>* exclusions) {
  bool any_num = false, any_str = false;
  for (const ValueComparison& c : cmps) {
    (c.value.numeric ? any_num : any_str) = true;
  }
  if (any_num && any_str) return false;
  *numeric = any_num;
  for (const ValueComparison& c : cmps) {
    switch (c.op) {
      case CompareOp::kEq:
        if (any_num) {
          nrange->TightenLo(c.value.number, false);
          nrange->TightenHi(c.value.number, false);
        } else {
          srange->TightenLo(c.value.text, false);
          srange->TightenHi(c.value.text, false);
        }
        break;
      case CompareOp::kNe:
        exclusions->push_back(&c.value);
        break;
      case CompareOp::kLt:
        any_num ? nrange->TightenHi(c.value.number, true)
                : srange->TightenHi(c.value.text, true);
        break;
      case CompareOp::kLe:
        any_num ? nrange->TightenHi(c.value.number, false)
                : srange->TightenHi(c.value.text, false);
        break;
      case CompareOp::kGt:
        any_num ? nrange->TightenLo(c.value.number, true)
                : srange->TightenLo(c.value.text, true);
        break;
      case CompareOp::kGe:
        any_num ? nrange->TightenLo(c.value.number, false)
                : srange->TightenLo(c.value.text, false);
        break;
    }
  }
  return true;
}

}  // namespace

ValueIndex ValueIndex::Build(const Multigraph& g,
                             std::span<const AttributeValueInfo> attr_values,
                             size_t num_predicates) {
  ValueIndex index;
  const size_t num_attrs = attr_values.size();

  // Attribute value table.
  std::vector<AttrPredId> attr_pred(num_attrs);
  std::vector<uint8_t> attr_kind(num_attrs, kKindString);
  std::vector<double> attr_num(num_attrs, 0.0);
  std::vector<uint64_t> text_offsets;
  text_offsets.reserve(num_attrs + 1);
  text_offsets.push_back(0);
  std::vector<char> text_blob;
  for (size_t a = 0; a < num_attrs; ++a) {
    attr_pred[a] = attr_values[a].predicate;
    if (attr_values[a].value.numeric) {
      attr_kind[a] = kKindNumber;
      attr_num[a] = attr_values[a].value.number;
    } else {
      const std::string& text = attr_values[a].value.text;
      text_blob.insert(text_blob.end(), text.begin(), text.end());
    }
    text_offsets.push_back(text_blob.size());
  }

  // Collect (predicate, value, vertex) entries from the attribute CSR.
  struct NumEntry {
    AttrPredId pred;
    double value;
    VertexId vertex;
  };
  struct StrEntry {
    AttrPredId pred;
    AttributeId attr;
    VertexId vertex;
  };
  std::vector<NumEntry> nums;
  std::vector<StrEntry> strs;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (AttributeId a : g.Attributes(v)) {
      if (a >= num_attrs) continue;  // graph/dict mismatch: be defensive
      if (attr_kind[a] == kKindNumber) {
        nums.push_back(NumEntry{attr_pred[a], attr_num[a], v});
      } else {
        strs.push_back(StrEntry{attr_pred[a], a, v});
      }
    }
  }
  std::sort(nums.begin(), nums.end(), [](const NumEntry& a, const NumEntry& b) {
    return std::tie(a.pred, a.value, a.vertex) <
           std::tie(b.pred, b.value, b.vertex);
  });
  auto text_of = [&](AttributeId a) {
    return std::string_view(text_blob.data() + text_offsets[a],
                            text_offsets[a + 1] - text_offsets[a]);
  };
  std::sort(strs.begin(), strs.end(),
            [&](const StrEntry& a, const StrEntry& b) {
              return std::forward_as_tuple(a.pred, text_of(a.attr), a.vertex,
                                           a.attr) <
                     std::forward_as_tuple(b.pred, text_of(b.attr), b.vertex,
                                           b.attr);
            });

  // CSR columns over the dense predicate id space.
  std::vector<uint64_t> num_offsets(num_predicates + 1, 0);
  std::vector<double> num_values(nums.size());
  std::vector<VertexId> num_vertices(nums.size());
  for (size_t i = 0; i < nums.size(); ++i) {
    ++num_offsets[nums[i].pred + 1];
    num_values[i] = nums[i].value;
    num_vertices[i] = nums[i].vertex;
  }
  std::vector<uint64_t> str_offsets(num_predicates + 1, 0);
  std::vector<AttributeId> str_attrs(strs.size());
  std::vector<VertexId> str_vertices(strs.size());
  for (size_t i = 0; i < strs.size(); ++i) {
    ++str_offsets[strs[i].pred + 1];
    str_attrs[i] = strs[i].attr;
    str_vertices[i] = strs[i].vertex;
  }
  for (size_t p = 0; p < num_predicates; ++p) {
    num_offsets[p + 1] += num_offsets[p];
    str_offsets[p + 1] += str_offsets[p];
  }

  index.attr_pred_ = std::move(attr_pred);
  index.attr_kind_ = std::move(attr_kind);
  index.attr_num_ = std::move(attr_num);
  index.attr_text_offsets_ = std::move(text_offsets);
  index.attr_text_blob_ = std::move(text_blob);
  index.num_offsets_ = std::move(num_offsets);
  index.num_values_ = std::move(num_values);
  index.num_vertices_ = std::move(num_vertices);
  index.str_offsets_ = std::move(str_offsets);
  index.str_attrs_ = std::move(str_attrs);
  index.str_vertices_ = std::move(str_vertices);
  return index;
}

void ValueIndex::ResolveConjunction(
    AttrPredId pred, std::span<const ValueComparison> cmps,
    uint64_t* num_begin, uint64_t* num_end, uint64_t* str_begin,
    uint64_t* str_end, std::vector<const LiteralValue*>* exclusions) const {
  *num_begin = *num_end = 0;
  *str_begin = *str_end = 0;
  if (pred >= NumPredicates()) return;
  bool numeric = false;
  NumericRange nrange;
  StringRange srange;
  if (!SplitConjunction(cmps, &numeric, &nrange, &srange, exclusions)) {
    return;  // mixed-kind conjunction: unsatisfiable
  }
  // An empty conjunction ("any value") spans both columns.
  if ((numeric || cmps.empty()) && !nrange.Empty()) {
    const double* base = num_values_.data();
    const double* first = base + num_offsets_[pred];
    const double* last = base + num_offsets_[pred + 1];
    const double* b = nrange.lo_open ? std::upper_bound(first, last, nrange.lo)
                                     : std::lower_bound(first, last,
                                                        nrange.lo);
    const double* e = nrange.hi_open ? std::lower_bound(b, last, nrange.hi)
                                     : std::upper_bound(b, last, nrange.hi);
    *num_begin = static_cast<uint64_t>(b - base);
    *num_end = static_cast<uint64_t>(e - base);
  }
  if (!numeric && !srange.Empty()) {
    const AttributeId* base = str_attrs_.data();
    const AttributeId* first = base + str_offsets_[pred];
    const AttributeId* last = base + str_offsets_[pred + 1];
    const AttributeId* b = first;
    if (srange.has_lo) {
      b = srange.lo_open
              ? std::upper_bound(first, last, srange.lo,
                                 [this](std::string_view s, AttributeId a) {
                                   return s < AttrText(a);
                                 })
              : std::lower_bound(first, last, srange.lo,
                                 [this](AttributeId a, std::string_view s) {
                                   return AttrText(a) < s;
                                 });
    }
    const AttributeId* e = last;
    if (srange.has_hi) {
      e = srange.hi_open
              ? std::lower_bound(b, last, srange.hi,
                                 [this](AttributeId a, std::string_view s) {
                                   return AttrText(a) < s;
                                 })
              : std::upper_bound(b, last, srange.hi,
                                 [this](std::string_view s, AttributeId a) {
                                   return s < AttrText(a);
                                 });
    }
    *str_begin = static_cast<uint64_t>(b - base);
    *str_end = static_cast<uint64_t>(e - base);
  }
}

void ValueIndex::RangeScan(AttrPredId pred,
                           std::span<const ValueComparison> cmps,
                           std::vector<VertexId>* out,
                           ScanStats* stats) const {
  out->clear();
  if (pred >= NumPredicates()) return;
  uint64_t nb, ne, sb, se;
  std::vector<const LiteralValue*> exclusions;
  ResolveConjunction(pred, cmps, &nb, &ne, &sb, &se, &exclusions);
  if (stats != nullptr) {
    ++stats->scans;
    stats->elements += (ne - nb) + (se - sb);
  }

  for (uint64_t i = nb; i < ne; ++i) {
    bool excluded = false;
    for (const LiteralValue* x : exclusions) {
      if (x->numeric && num_values_[i] == x->number) {
        excluded = true;
        break;
      }
    }
    if (!excluded) out->push_back(num_vertices_[i]);
  }
  for (uint64_t i = sb; i < se; ++i) {
    bool excluded = false;
    for (const LiteralValue* x : exclusions) {
      if (!x->numeric && AttrText(str_attrs_[i]) == x->text) {
        excluded = true;
        break;
      }
    }
    if (!excluded) out->push_back(str_vertices_[i]);
  }

  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

uint64_t ValueIndex::EstimateRange(AttrPredId pred,
                                   std::span<const ValueComparison> cmps) const {
  uint64_t nb, ne, sb, se;
  std::vector<const LiteralValue*> exclusions;
  ResolveConjunction(pred, cmps, &nb, &ne, &sb, &se, &exclusions);
  return (ne - nb) + (se - sb);
}

bool ValueIndex::VertexMatches(std::span<const AttributeId> attrs,
                               AttrPredId pred,
                               std::span<const ValueComparison> cmps) const {
  for (AttributeId a : attrs) {
    if (a >= attr_pred_.size() || attr_pred_[a] != pred) continue;
    if (SatisfiesAll(ViewOf(a), cmps)) return true;
  }
  return false;
}

LiteralValue ValueIndex::ValueOf(AttributeId a) const {
  LiteralValue v;
  if (attr_kind_[a] == kKindNumber) {
    v.numeric = true;
    v.number = attr_num_[a];
  } else {
    v.text = std::string(AttrText(a));
  }
  return v;
}

uint64_t ValueIndex::ByteSize() const {
  return attr_pred_.ByteSize() + attr_kind_.ByteSize() + attr_num_.ByteSize() +
         attr_text_offsets_.ByteSize() + attr_text_blob_.ByteSize() +
         num_offsets_.ByteSize() + num_values_.ByteSize() +
         num_vertices_.ByteSize() + str_offsets_.ByteSize() +
         str_attrs_.ByteSize() + str_vertices_.ByteSize();
}

Status ValueIndex::Validate(uint64_t num_vertices) const {
  const size_t num_attrs = attr_pred_.size();
  if (attr_kind_.size() != num_attrs || attr_num_.size() != num_attrs) {
    return Status::Corruption("value index attribute table size mismatch");
  }
  if (attr_text_offsets_.size() != num_attrs + 1) {
    return Status::Corruption("value index text offsets size mismatch");
  }
  AMBER_RETURN_IF_ERROR(amf::ValidateOffsets(
      attr_text_offsets_.span(), attr_text_blob_.size(), "value index text"));
  if (num_offsets_.empty() || str_offsets_.size() != num_offsets_.size()) {
    return Status::Corruption("value index column offsets size mismatch");
  }
  const size_t num_preds = num_offsets_.size() - 1;
  for (size_t a = 0; a < num_attrs; ++a) {
    if (attr_kind_[a] != kKindString && attr_kind_[a] != kKindNumber) {
      return Status::Corruption("value index attribute kind out of range");
    }
    if (attr_pred_[a] >= num_preds) {
      return Status::Corruption("value index attribute predicate "
                                "out of range");
    }
  }
  if (num_values_.size() != num_vertices_.size()) {
    return Status::Corruption("value index numeric column size mismatch");
  }
  AMBER_RETURN_IF_ERROR(amf::ValidateOffsets(
      num_offsets_.span(), num_values_.size(), "value index numeric column"));
  if (str_attrs_.size() != str_vertices_.size()) {
    return Status::Corruption("value index string column size mismatch");
  }
  AMBER_RETURN_IF_ERROR(amf::ValidateOffsets(
      str_offsets_.span(), str_attrs_.size(), "value index string column"));

  for (size_t p = 0; p < num_preds; ++p) {
    for (uint64_t i = num_offsets_[p]; i + 1 < num_offsets_[p + 1]; ++i) {
      if (num_values_[i] > num_values_[i + 1] ||
          (num_values_[i] == num_values_[i + 1] &&
           num_vertices_[i] > num_vertices_[i + 1])) {
        return Status::Corruption("value index numeric column not sorted");
      }
    }
    for (uint64_t i = str_offsets_[p]; i < str_offsets_[p + 1]; ++i) {
      const AttributeId a = str_attrs_[i];
      if (a >= num_attrs) {
        return Status::Corruption("value index string entry out of range");
      }
      if (attr_kind_[a] != kKindString || attr_pred_[a] != p) {
        return Status::Corruption("value index string entry inconsistent");
      }
      if (i + 1 < str_offsets_[p + 1]) {
        const AttributeId b = str_attrs_[i + 1];
        if (b >= num_attrs) {
          return Status::Corruption("value index string entry out of range");
        }
        if (AttrText(a) > AttrText(b) ||
            (AttrText(a) == AttrText(b) &&
             str_vertices_[i] > str_vertices_[i + 1])) {
          return Status::Corruption("value index string column not sorted");
        }
      }
    }
  }
  for (VertexId v : num_vertices_.span()) {
    if (v >= num_vertices) {
      return Status::Corruption("value index vertex id out of range");
    }
  }
  for (VertexId v : str_vertices_.span()) {
    if (v >= num_vertices) {
      return Status::Corruption("value index vertex id out of range");
    }
  }
  return Status::OK();
}

void ValueIndex::SaveAmf(amf::Writer* w) const {
  w->AddArray(kAmfAttrPred, attr_pred_.span());
  w->AddArray(kAmfAttrKind, attr_kind_.span());
  w->AddArray(kAmfAttrNum, attr_num_.span());
  w->AddArray(kAmfAttrTextOffsets, attr_text_offsets_.span());
  w->AddArray(kAmfAttrTextBlob, attr_text_blob_.span());
  w->AddArray(kAmfNumOffsets, num_offsets_.span());
  w->AddArray(kAmfNumValues, num_values_.span());
  w->AddArray(kAmfNumVertices, num_vertices_.span());
  w->AddArray(kAmfStrOffsets, str_offsets_.span());
  w->AddArray(kAmfStrAttrs, str_attrs_.span());
  w->AddArray(kAmfStrVertices, str_vertices_.span());
}

Status ValueIndex::LoadAmf(const amf::Reader& r, uint64_t num_vertices) {
  AMBER_ASSIGN_OR_RETURN(std::span<const AttrPredId> attr_pred,
                         r.Array<AttrPredId>(kAmfAttrPred));
  AMBER_ASSIGN_OR_RETURN(std::span<const uint8_t> attr_kind,
                         r.Array<uint8_t>(kAmfAttrKind));
  AMBER_ASSIGN_OR_RETURN(std::span<const double> attr_num,
                         r.Array<double>(kAmfAttrNum));
  AMBER_ASSIGN_OR_RETURN(std::span<const uint64_t> text_offsets,
                         r.Array<uint64_t>(kAmfAttrTextOffsets));
  AMBER_ASSIGN_OR_RETURN(std::span<const char> text_blob,
                         r.Array<char>(kAmfAttrTextBlob));
  AMBER_ASSIGN_OR_RETURN(std::span<const uint64_t> num_offsets,
                         r.Array<uint64_t>(kAmfNumOffsets));
  AMBER_ASSIGN_OR_RETURN(std::span<const double> num_values,
                         r.Array<double>(kAmfNumValues));
  AMBER_ASSIGN_OR_RETURN(std::span<const VertexId> num_vertices_arr,
                         r.Array<VertexId>(kAmfNumVertices));
  AMBER_ASSIGN_OR_RETURN(std::span<const uint64_t> str_offsets,
                         r.Array<uint64_t>(kAmfStrOffsets));
  AMBER_ASSIGN_OR_RETURN(std::span<const AttributeId> str_attrs,
                         r.Array<AttributeId>(kAmfStrAttrs));
  AMBER_ASSIGN_OR_RETURN(std::span<const VertexId> str_vertices,
                         r.Array<VertexId>(kAmfStrVertices));
  attr_pred_ = ArrayRef<AttrPredId>::Borrowed(attr_pred);
  attr_kind_ = ArrayRef<uint8_t>::Borrowed(attr_kind);
  attr_num_ = ArrayRef<double>::Borrowed(attr_num);
  attr_text_offsets_ = ArrayRef<uint64_t>::Borrowed(text_offsets);
  attr_text_blob_ = ArrayRef<char>::Borrowed(text_blob);
  num_offsets_ = ArrayRef<uint64_t>::Borrowed(num_offsets);
  num_values_ = ArrayRef<double>::Borrowed(num_values);
  num_vertices_ = ArrayRef<VertexId>::Borrowed(num_vertices_arr);
  str_offsets_ = ArrayRef<uint64_t>::Borrowed(str_offsets);
  str_attrs_ = ArrayRef<AttributeId>::Borrowed(str_attrs);
  str_vertices_ = ArrayRef<VertexId>::Borrowed(str_vertices);
  return Validate(num_vertices);
}

}  // namespace amber
