// AMF — the single-file, mmap-able artifact format of the offline stage.
//
// Layout (all integers little-endian, the only byte order we target):
//
//   [ 0, 64)              FileHeader: magic "AMF1", version, section count,
//                         total file length (a cheap truncation check), and
//                         an FNV-1a checksum of the section table (so a
//                         flipped offset cannot silently redirect a reader
//                         into the wrong payload).
//   [64, 64 + 24*count)   Section table: one SectionEntry {id, offset,
//                         length} per section, in write order.
//   ...                   Section payloads, each offset 64-byte aligned and
//                         zero-padded up to the next section.
//
// A section is one raw array of trivially-copyable elements (a CSR offsets
// array, a trie node pool, a dictionary string blob...). Section ids are a
// flat u32 namespace owned by the components (see the kAmf* constants next
// to each Save/LoadAmf implementation). Loading is mmap + header/table
// validation + per-section bounds checks; payloads are *never* copied —
// consumers hold std::spans into the mapping (ArrayRef::Borrowed).
//
// Versioning rules (docs/ARCHITECTURE.md "Artifact format"):
//   * adding a new section id is backward-compatible (old readers that do
//     not know the id ignore it; readers requiring it fail with NotFound),
//   * changing the element layout of an existing section requires bumping
//     kVersion — readers reject any version they were not built for.

#ifndef AMBER_UTIL_AMF_H_
#define AMBER_UTIL_AMF_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace amber {
namespace amf {

inline constexpr uint32_t kMagic = 0x31464D41;  // "AMF1"
inline constexpr uint32_t kVersion = 1;
inline constexpr uint64_t kSectionAlign = 64;

struct FileHeader {
  uint32_t magic;
  uint32_t version;
  uint64_t section_count;
  uint64_t file_length;
  uint64_t table_checksum;  // FNV-1a over the section table; 0 = unchecked
  uint8_t reserved[32];
};
static_assert(sizeof(FileHeader) == 64);

struct SectionEntry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;  // from file start; kSectionAlign-aligned
  uint64_t length;  // payload bytes (excluding padding)
};
static_assert(sizeof(SectionEntry) == 24);

/// \brief Collects section references, then writes the file in one pass.
///
/// AddArray records a span into live engine structures (no copy); the spans
/// must stay valid until WriteTo returns. AddOwned/AddPod move small
/// payloads (metadata structs, materialized dictionary offset tables) into
/// the writer, which keeps them alive itself.
class Writer {
 public:
  template <typename T>
  void AddArray(uint32_t id, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    sections_.push_back(Pending{id, data.data(), data.size_bytes(), nullptr});
  }

  template <typename T>
  void AddOwned(uint32_t id, std::vector<T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto holder = std::make_shared<std::vector<T>>(std::move(data));
    sections_.push_back(Pending{id, holder->data(),
                                holder->size() * sizeof(T),
                                std::move(holder)});
  }

  template <typename T>
  void AddPod(uint32_t id, const T& pod) {
    AddOwned(id, std::vector<T>{pod});
  }

  size_t NumSections() const { return sections_.size(); }

  /// Writes header + table + payloads to `path` (truncating). The layout is
  /// a pure function of the added sections, so two writers fed identical
  /// data produce byte-identical files.
  Status WriteTo(const std::string& path) const;

 private:
  struct Pending {
    uint32_t id;
    const void* data;
    uint64_t bytes;
    std::shared_ptr<const void> keepalive;
  };
  std::vector<Pending> sections_;
};

/// Hard ceiling on any count read from a metadata section (1 TiB). A count
/// above it is rejected as corruption before it sizes anything.
inline constexpr uint64_t kMaxPayloadBytes = 1ULL << 40;

/// Shared check for borrowed CSR-style offset tables: non-empty, starts at
/// 0, ends exactly at `pool_size`, monotone non-decreasing. Every LoadAmf
/// that borrows an offsets/pool pair funnels through this so the
/// corruption rules cannot drift between components.
inline Status ValidateOffsets(std::span<const uint64_t> offsets,
                              uint64_t pool_size, const char* what) {
  if (offsets.empty()) {
    return Status::Corruption(std::string(what) + " offsets table empty");
  }
  if (offsets.front() != 0 || offsets.back() != pool_size) {
    return Status::Corruption(std::string(what) + " offsets range mismatch");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption(std::string(what) +
                                " offsets not monotonic");
    }
  }
  return Status::OK();
}

/// \brief Validated view over a mapped AMF file.
///
/// Holds only a span; whoever owns the mapping (the engine's MappedFile)
/// must outlive the Reader *and* every span handed out by Array().
class Reader {
 public:
  /// Validates the header and the full section table: magic, version,
  /// recorded file length, per-section alignment and bounds, duplicate ids.
  static Result<Reader> Open(std::span<const std::byte> file);

  bool Has(uint32_t id) const { return index_.count(id) > 0; }

  /// The payload of section `id` as a typed span (zero-copy). Fails with
  /// NotFound for unknown ids and Corruption when the payload length is not
  /// a multiple of sizeof(T).
  template <typename T>
  Result<std::span<const T>> Array(uint32_t id) const {
    static_assert(std::is_trivially_copyable_v<T>);
    auto it = index_.find(id);
    if (it == index_.end()) {
      return Status::NotFound("missing AMF section " + std::to_string(id));
    }
    const SectionEntry& s = it->second;
    if (s.length % sizeof(T) != 0) {
      return Status::Corruption("AMF section " + std::to_string(id) +
                                " length not a multiple of element size");
    }
    return std::span<const T>(
        reinterpret_cast<const T*>(file_.data() + s.offset),
        s.length / sizeof(T));
  }

  /// Reads a single-element section into `*out`.
  template <typename T>
  Status Pod(uint32_t id, T* out) const {
    AMBER_ASSIGN_OR_RETURN(std::span<const T> s, Array<T>(id));
    if (s.size() != 1) {
      return Status::Corruption("AMF pod section " + std::to_string(id) +
                                " has wrong length");
    }
    std::memcpy(out, s.data(), sizeof(T));
    return Status::OK();
  }

 private:
  std::span<const std::byte> file_;
  std::unordered_map<uint32_t, SectionEntry> index_;
};

}  // namespace amf
}  // namespace amber

#endif  // AMBER_UTIL_AMF_H_
