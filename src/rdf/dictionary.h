// String dictionaries: the key/value look-up tables of Table 2 in the paper.
//
// AMbER keeps three dictionaries (vertices, edge types, attributes); all are
// instances of StringDictionary, which maps strings to dense uint32 ids and
// back. Ids are assigned in first-seen order starting at 0.
//
// A dictionary stores its entries in one of two places: an owned deque of
// strings (the Build() path), or a borrowed (blob, offsets)
// pair of spans into an mmap'ed AMF artifact — entry i is the byte range
// blob[offsets[i], offsets[i+1]). Only the hash index is (re)built on the
// borrowed path; the string bytes themselves are never copied. New keys
// added after a borrowed load (GetOrAdd on a live engine) go to the owned
// overflow with ids continuing past the borrowed range.

#ifndef AMBER_RDF_DICTIONARY_H_
#define AMBER_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/amf.h"
#include "util/status.h"

namespace amber {

/// Dense id assigned to a dictionary entry.
using DictId = uint32_t;

/// Sentinel for "no id".
inline constexpr DictId kInvalidDictId = 0xFFFFFFFFu;

/// \brief Bidirectional string <-> dense-id dictionary.
///
/// Owned strings are stored once (in a deque, so references stay stable);
/// borrowed strings live in the mapped artifact. The reverse map keys are
/// string_views into whichever storage holds the entry. Lookup is O(1)
/// expected.
class StringDictionary {
 public:
  StringDictionary() = default;

  // Movable but not copyable: the map holds views into our own storage.
  StringDictionary(StringDictionary&&) = default;
  StringDictionary& operator=(StringDictionary&&) = default;
  StringDictionary(const StringDictionary&) = delete;
  StringDictionary& operator=(const StringDictionary&) = delete;

  /// Returns the id of `key`, inserting it if absent.
  DictId GetOrAdd(std::string_view key) {
    auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    DictId id = static_cast<DictId>(size());
    items_.emplace_back(key);
    index_.emplace(std::string_view(items_.back()), id);
    return id;
  }

  /// Returns the id of `key` if present.
  std::optional<DictId> Find(std::string_view key) const {
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  bool Contains(std::string_view key) const {
    return index_.find(key) != index_.end();
  }

  /// Inverse mapping M^-1: id -> string. `id` must be < size().
  std::string_view Lookup(DictId id) const {
    if (id < BorrowedCount()) {
      return std::string_view(
          blob_.data() + offsets_[id],
          static_cast<size_t>(offsets_[id + 1] - offsets_[id]));
    }
    return items_.at(id - BorrowedCount());
  }

  size_t size() const { return BorrowedCount() + items_.size(); }
  bool empty() const { return size() == 0; }

  /// Approximate footprint in bytes (strings + hash table; for borrowed
  /// dictionaries the string bytes live in the mapped file).
  uint64_t ByteSize() const {
    uint64_t total = blob_.size() + offsets_.size() * sizeof(uint64_t);
    for (const auto& s : items_) total += s.capacity() + sizeof(std::string);
    total += index_.size() *
             (sizeof(std::string_view) + sizeof(DictId) + 2 * sizeof(void*));
    return total;
  }

  /// Adds this dictionary's two AMF sections (string blob + offset table)
  /// under `base_id` + {0, 1}. The blob/offsets are materialized once into
  /// the writer when the dictionary owns its strings; a borrowed dictionary
  /// re-references the mapping it was loaded from.
  void SaveAmf(amf::Writer* w, uint32_t base_id) const {
    if (items_.empty() && BorrowedCount() > 0) {
      w->AddArray(base_id, blob_);
      w->AddArray(base_id + 1, offsets_);
      return;
    }
    std::vector<char> blob;
    std::vector<uint64_t> offsets;
    offsets.reserve(size() + 1);
    offsets.push_back(0);
    for (size_t i = 0; i < size(); ++i) {
      std::string_view s = Lookup(static_cast<DictId>(i));
      blob.insert(blob.end(), s.begin(), s.end());
      offsets.push_back(blob.size());
    }
    w->AddOwned(base_id, std::move(blob));
    w->AddOwned(base_id + 1, std::move(offsets));
  }

  /// Points this dictionary at the blob/offsets sections under `base_id`
  /// and rebuilds the hash index over the borrowed entries (the only
  /// per-entry work on the mmap path — no string bytes are copied).
  Status LoadAmf(const amf::Reader& r, uint32_t base_id) {
    Clear();
    AMBER_ASSIGN_OR_RETURN(blob_, r.Array<char>(base_id));
    AMBER_ASSIGN_OR_RETURN(offsets_, r.Array<uint64_t>(base_id + 1));
    AMBER_RETURN_IF_ERROR(
        amf::ValidateOffsets(offsets_, blob_.size(), "dictionary"));
    index_.reserve(BorrowedCount());
    for (size_t i = 0; i < BorrowedCount(); ++i) {
      if (!index_.emplace(Lookup(static_cast<DictId>(i)),
                          static_cast<DictId>(i))
               .second) {
        return Status::Corruption("duplicate dictionary key");
      }
    }
    return Status::OK();
  }

 private:
  size_t BorrowedCount() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  void Clear() {
    items_.clear();
    index_.clear();
    blob_ = {};
    offsets_ = {};
  }

  std::deque<std::string> items_;  // deque: stable references on push_back
  std::unordered_map<std::string_view, DictId> index_;
  // Borrowed storage (views into a mapped AMF file); empty in owned mode.
  std::span<const char> blob_;
  std::span<const uint64_t> offsets_;
};

}  // namespace amber

#endif  // AMBER_RDF_DICTIONARY_H_
