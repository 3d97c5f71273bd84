// AMF artifact format suite: zero-copy mmap round trips, corruption
// injection (every format violation must come back as a clean Status,
// never a crash or an over-allocation), and bit-identical output of the
// parallel offline build.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/amber_engine.h"
#include "gen/paper_example.h"
#include "sparql/parser.h"
#include "test_util.h"
#include "util/amf.h"
#include "util/fault_injector.h"
#include "util/mmap_file.h"

namespace amber {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

AmberEngine MustBuild(const std::vector<Triple>& triples) {
  auto engine = AmberEngine::Build(triples);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).value();
}

TEST(AmfWriterReaderTest, RoundTripsSections) {
  amf::Writer writer;
  std::vector<uint64_t> big = {1, 2, 3, 4, 5};
  std::vector<uint32_t> small = {7};
  writer.AddArray<uint64_t>(10, big);
  writer.AddArray<uint32_t>(20, small);
  writer.AddOwned<char>(30, {'a', 'b', 'c'});
  const std::string path = TempPath("amf_roundtrip.amf");
  ASSERT_TRUE(writer.WriteTo(path).ok());

  auto file = MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status();
  auto reader = amf::Reader::Open(file->data());
  ASSERT_TRUE(reader.ok()) << reader.status();

  auto a = reader->Array<uint64_t>(10);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(std::vector<uint64_t>(a->begin(), a->end()), big);
  auto b = reader->Array<uint32_t>(20);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b->size(), 1u);
  EXPECT_EQ((*b)[0], 7u);
  auto c = reader->Array<char>(30);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(std::string(c->begin(), c->end()), "abc");

  EXPECT_TRUE(reader->Has(10));
  EXPECT_FALSE(reader->Has(99));
  EXPECT_TRUE(reader->Array<uint64_t>(99).status().IsNotFound());
}

TEST(AmfWriterReaderTest, SectionsAre64ByteAligned) {
  amf::Writer writer;
  writer.AddOwned<char>(1, {'x'});  // 1-byte payload forces padding
  writer.AddOwned<uint64_t>(2, {42});
  const std::string path = TempPath("amf_align.amf");
  ASSERT_TRUE(writer.WriteTo(path).ok());

  std::vector<char> bytes = ReadAll(path);
  ASSERT_EQ(bytes.size() % amf::kSectionAlign, 0u);
  amf::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  EXPECT_EQ(header.file_length, bytes.size());
  for (uint64_t i = 0; i < header.section_count; ++i) {
    amf::SectionEntry entry;
    std::memcpy(&entry,
                bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    EXPECT_EQ(entry.offset % amf::kSectionAlign, 0u);
  }
}

class AmfEngineTest : public ::testing::Test {
 protected:
  // One saved artifact per corruption test. The path embeds the test name:
  // ctest runs each TEST_F as its own process, so a shared path would race
  // one process's mmap against another's rewrite (SIGBUS on truncation).
  void SetUp() override {
    path_ = TempPath(std::string("amf_engine_") +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name() +
                     ".amf");
    AmberEngine engine = MustBuild(testutil::MustParse(kPaperExampleNTriples));
    ASSERT_TRUE(engine.SaveFile(path_).ok());
    baseline_count_ = engine.CountSparql(kPaperExampleQuery, {})->count;
  }

  std::string path_;
  uint64_t baseline_count_ = 0;
};

TEST_F(AmfEngineTest, OpenFilePreservesResultsAndGraph) {
  auto loaded = AmberEngine::OpenFile(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto count = loaded->CountSparql(kPaperExampleQuery, {});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, baseline_count_);

  AmberEngine built = MustBuild(testutil::MustParse(kPaperExampleNTriples));
  EXPECT_TRUE(loaded->graph() == built.graph());
}

TEST_F(AmfEngineTest, OpenFileIsZeroCopy) {
  auto loaded = AmberEngine::OpenFile(path_);
  ASSERT_TRUE(loaded.ok());
  std::span<const std::byte> region = loaded->MappedRegion();
  ASSERT_FALSE(region.empty());
  auto within = [&region](const void* p) {
    return p >= region.data() && p < region.data() + region.size();
  };
  // CSR payloads point straight into the mapping, not at heap copies.
  const Multigraph& g = loaded->graph();
  bool checked_group = false;
  for (VertexId v = 0; v < g.NumVertices() && !checked_group; ++v) {
    if (g.GroupCount(v, Direction::kOut) > 0) {
      EXPECT_TRUE(within(g.Group(v, Direction::kOut, 0).types.data()));
      checked_group = true;
    }
  }
  EXPECT_TRUE(checked_group);
  bool checked_attr = false;
  for (VertexId v = 0; v < g.NumVertices() && !checked_attr; ++v) {
    if (!g.Attributes(v).empty()) {
      EXPECT_TRUE(within(g.Attributes(v).data()));
      checked_attr = true;
    }
  }
  EXPECT_TRUE(checked_attr);
  // Dictionary string bytes are borrowed from the mapping too.
  EXPECT_TRUE(within(loaded->dictionaries().VertexToken(0).data()));
}

TEST_F(AmfEngineTest, SaveOfMmapLoadedEngineIsByteIdentical) {
  auto loaded = AmberEngine::OpenFile(path_);
  ASSERT_TRUE(loaded.ok());
  const std::string resaved = TempPath("amf_engine_resaved.amf");
  ASSERT_TRUE(loaded->SaveFile(resaved).ok());
  EXPECT_EQ(ReadAll(path_), ReadAll(resaved));
}

TEST_F(AmfEngineTest, RejectsTruncation) {
  std::vector<char> bytes = ReadAll(path_);
  const std::string bad = TempPath("amf_truncated.amf");
  for (size_t keep : {size_t{0}, size_t{10}, size_t{100},
                      bytes.size() / 2, bytes.size() - 1}) {
    WriteAll(bad, std::vector<char>(bytes.begin(), bytes.begin() + keep));
    auto loaded = AmberEngine::OpenFile(bad);
    ASSERT_FALSE(loaded.ok()) << "accepted truncation to " << keep;
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  }
}

TEST_F(AmfEngineTest, RejectsTruncationAtEverySectionBoundary) {
  // A torn write (crash mid-copy, partial download) most plausibly stops
  // at a section edge. Sweep EVERY boundary — each section's start and
  // end, plus one byte either side — and demand a clean Corruption
  // status, never a crash or a partial engine.
  std::vector<char> bytes = ReadAll(path_);
  amf::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<size_t> cuts = {sizeof(amf::FileHeader),
                              sizeof(amf::FileHeader) +
                                  header.section_count *
                                      sizeof(amf::SectionEntry)};
  for (uint64_t i = 0; i < header.section_count; ++i) {
    amf::SectionEntry entry;
    std::memcpy(&entry,
                bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    for (size_t cut : {entry.offset - 1, entry.offset, entry.offset + 1,
                       entry.offset + entry.length}) {
      cuts.push_back(cut);
    }
  }
  const std::string bad = TempPath("amf_boundary_cut.amf");
  for (size_t cut : cuts) {
    if (cut >= bytes.size()) continue;  // not a truncation
    WriteAll(bad, std::vector<char>(bytes.begin(), bytes.begin() + cut));
    auto loaded = AmberEngine::OpenFile(bad);
    ASSERT_FALSE(loaded.ok()) << "accepted truncation at byte " << cut;
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  }
}

TEST_F(AmfEngineTest, RejectsEveryBitFlipInSectionTable) {
  // Flip one bit in every byte of the section table. The table checksum
  // in the header covers all of it, so every flip — even in a reserved
  // field, even an offset flip that stays aligned and in bounds — must
  // be rejected with a clean Corruption status. Never a crash, never a
  // silently redirected section.
  std::vector<char> bytes = ReadAll(path_);
  amf::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  const size_t table_begin = sizeof(amf::FileHeader);
  const size_t table_end =
      table_begin + header.section_count * sizeof(amf::SectionEntry);
  const std::string bad = TempPath("amf_bitflip.amf");
  for (size_t pos = table_begin; pos < table_end; ++pos) {
    std::vector<char> patched = bytes;
    patched[pos] ^= static_cast<char>(1u << (pos % 8));
    WriteAll(bad, patched);
    auto loaded = AmberEngine::OpenFile(bad);
    ASSERT_FALSE(loaded.ok()) << "accepted flip at byte " << pos;
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  }
}

TEST_F(AmfEngineTest, InjectedArtifactReadFaultsSurfaceAsStatus) {
  // The restore path has two read-fault sites: the mmap itself and the
  // AMF section-table parse. Injected IO errors at either must come back
  // through OpenFile as that Status — the engine is never half-built.
  {
    FaultSpec spec;
    spec.code = StatusCode::kIOError;
    spec.message = "disk read failed";
    spec.fail_nth = 1;
    ScopedFault fault(faults::kMmapOpen, spec);
    auto loaded = AmberEngine::OpenFile(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
    EXPECT_EQ(FaultInjector::Global().Fires(faults::kMmapOpen), 1u);
  }
  {
    FaultSpec spec;
    spec.code = StatusCode::kIOError;
    spec.message = "torn section table";
    spec.fail_nth = 1;
    ScopedFault fault(faults::kAmfOpen, spec);
    auto loaded = AmberEngine::OpenFile(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status();
  }
  // Disarmed again: the same artifact opens cleanly and answers.
  auto loaded = AmberEngine::OpenFile(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto count = loaded->CountSparql(kPaperExampleQuery, {});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, baseline_count_);
}

TEST_F(AmfEngineTest, RejectsBadMagicAndVersion) {
  std::vector<char> bytes = ReadAll(path_);
  const std::string bad = TempPath("amf_bad_header.amf");

  std::vector<char> bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteAll(bad, bad_magic);
  auto loaded = AmberEngine::OpenFile(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());

  std::vector<char> bad_version = bytes;
  bad_version[4] = 99;  // version field
  WriteAll(bad, bad_version);
  loaded = AmberEngine::OpenFile(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(AmfEngineTest, RejectsMisalignedAndOutOfBoundsSections) {
  std::vector<char> bytes = ReadAll(path_);
  const std::string bad = TempPath("amf_bad_table.amf");

  // First section entry starts right after the 64-byte header; its offset
  // field is at +8 within the entry.
  const size_t entry0_offset_field = sizeof(amf::FileHeader) + 8;

  std::vector<char> misaligned = bytes;
  uint64_t off;
  std::memcpy(&off, misaligned.data() + entry0_offset_field, sizeof(off));
  off += 1;  // break 64-byte alignment
  std::memcpy(misaligned.data() + entry0_offset_field, &off, sizeof(off));
  WriteAll(bad, misaligned);
  auto loaded = AmberEngine::OpenFile(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());

  std::vector<char> oob = bytes;
  const size_t entry0_length_field = sizeof(amf::FileHeader) + 16;
  uint64_t huge = bytes.size() + amf::kSectionAlign;
  std::memcpy(oob.data() + entry0_length_field, &huge, sizeof(huge));
  WriteAll(bad, oob);
  loaded = AmberEngine::OpenFile(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(AmfEngineTest, RejectsCorruptIntraArrayIndices) {
  // Sections can be structurally valid (aligned, in bounds, right length)
  // while their *contents* point outside sibling arrays; loaders must
  // reject that too, or the first query walks wild pointers.
  std::vector<char> bytes = ReadAll(path_);
  amf::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  auto find_section = [&](uint32_t id) -> amf::SectionEntry {
    for (uint64_t i = 0; i < header.section_count; ++i) {
      amf::SectionEntry entry;
      std::memcpy(&entry,
                  bytes.data() + sizeof(header) + i * sizeof(entry),
                  sizeof(entry));
      if (entry.id == id) return entry;
    }
    ADD_FAILURE() << "section " << id << " not found";
    return {};
  };

  const std::string bad = TempPath("amf_bad_contents.amf");
  // Out-direction adjacency groups (0x1011): GroupEntry.type_begin is at
  // byte offset 4 of the first 12-byte entry.
  {
    amf::SectionEntry groups = find_section(0x1011);
    ASSERT_GE(groups.length, 12u);
    std::vector<char> patched = bytes;
    uint32_t huge = 0xFFFFFFF0u;
    std::memcpy(patched.data() + groups.offset + 4, &huge, sizeof(huge));
    WriteAll(bad, patched);
    auto loaded = AmberEngine::OpenFile(bad);
    ASSERT_FALSE(loaded.ok()) << "accepted corrupt group type_begin";
    EXPECT_TRUE(loaded.status().IsCorruption());
  }
  // In-direction neighborhood trie nodes (0x4012): Node.subtree_end is at
  // byte offset 4 of the first 16-byte node; zero breaks DFS progress.
  {
    amf::SectionEntry nodes = find_section(0x4012);
    ASSERT_GE(nodes.length, 16u);
    std::vector<char> patched = bytes;
    uint32_t zero = 0;
    std::memcpy(patched.data() + nodes.offset + 4, &zero, sizeof(zero));
    WriteAll(bad, patched);
    auto loaded = AmberEngine::OpenFile(bad);
    ASSERT_FALSE(loaded.ok()) << "accepted corrupt trie subtree_end";
    EXPECT_TRUE(loaded.status().IsCorruption());
  }
  // Attribute index pool (0x2001): vertex ids must be < NumVertices.
  {
    amf::SectionEntry pool = find_section(0x2001);
    ASSERT_GE(pool.length, sizeof(uint32_t));
    std::vector<char> patched = bytes;
    uint32_t huge = 0xFFFFFFF0u;
    std::memcpy(patched.data() + pool.offset, &huge, sizeof(huge));
    WriteAll(bad, patched);
    auto loaded = AmberEngine::OpenFile(bad);
    ASSERT_FALSE(loaded.ok()) << "accepted corrupt attribute pool entry";
    EXPECT_TRUE(loaded.status().IsCorruption());
  }
}

TEST_F(AmfEngineTest, RejectsDictionaryNotCoveringGraph) {
  // Shrink the vertex dictionary by one entry, keeping its own blob/offset
  // invariants intact, so only the engine-level cross-check can notice
  // that the graph references vertex ids the dictionary cannot translate.
  std::vector<char> bytes = ReadAll(path_);
  amf::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  size_t blob_entry_pos = 0, offsets_entry_pos = 0;
  amf::SectionEntry blob_entry{}, offsets_entry{};
  for (uint64_t i = 0; i < header.section_count; ++i) {
    const size_t pos = sizeof(header) + i * sizeof(amf::SectionEntry);
    amf::SectionEntry entry;
    std::memcpy(&entry, bytes.data() + pos, sizeof(entry));
    if (entry.id == 0x5010) {  // vertex dictionary blob
      blob_entry = entry;
      blob_entry_pos = pos;
    } else if (entry.id == 0x5011) {  // vertex dictionary offsets
      offsets_entry = entry;
      offsets_entry_pos = pos;
    }
  }
  ASSERT_GT(offsets_entry.length, 2 * sizeof(uint64_t));

  const uint64_t count = offsets_entry.length / sizeof(uint64_t);
  uint64_t new_back = 0;
  std::memcpy(&new_back,
              bytes.data() + offsets_entry.offset +
                  (count - 2) * sizeof(uint64_t),
              sizeof(new_back));
  std::vector<char> patched = bytes;
  const uint64_t new_offsets_len = offsets_entry.length - sizeof(uint64_t);
  std::memcpy(patched.data() + offsets_entry_pos + 16, &new_offsets_len,
              sizeof(new_offsets_len));
  std::memcpy(patched.data() + blob_entry_pos + 16, &new_back,
              sizeof(new_back));
  const std::string bad = TempPath("amf_short_dict.amf");
  WriteAll(bad, patched);
  auto loaded = AmberEngine::OpenFile(bad);
  ASSERT_FALSE(loaded.ok()) << "accepted dictionary smaller than graph";
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
}

TEST(AmfEdgeCaseTest, EmptyDatasetRoundTrips) {
  AmberEngine engine = MustBuild({});
  const std::string path = TempPath("amf_empty.amf");
  ASSERT_TRUE(engine.SaveFile(path).ok());
  auto loaded = AmberEngine::OpenFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->graph().NumVertices(), 0u);
  auto count = loaded->CountSparql(
      "SELECT ?a WHERE { ?a <urn:p> ?b . }", {});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, 0u);
}

TEST(AmfParallelBuildTest, ThreadedBuildProducesBitIdenticalArtifact) {
  auto triples = testutil::RandomDataset(42, 60, 400, 5);
  AmberEngine::BuildOptions serial;
  serial.num_threads = 1;
  AmberEngine::BuildOptions threaded;
  threaded.num_threads = 4;

  auto a = AmberEngine::Build(triples, serial);
  ASSERT_TRUE(a.ok());
  auto b = AmberEngine::Build(triples, threaded);
  ASSERT_TRUE(b.ok());

  const std::string path_a = TempPath("amf_serial.amf");
  const std::string path_b = TempPath("amf_threaded.amf");
  ASSERT_TRUE(a->SaveFile(path_a).ok());
  ASSERT_TRUE(b->SaveFile(path_b).ok());
  EXPECT_EQ(ReadAll(path_a), ReadAll(path_b));
}

TEST(AmfParallelBuildTest, ThreadedBuildAnswersQueries) {
  auto triples = testutil::RandomDataset(7, 40, 300, 4);
  AmberEngine::BuildOptions threaded;
  threaded.num_threads = 3;
  auto serial = AmberEngine::Build(triples);
  ASSERT_TRUE(serial.ok());
  auto parallel = AmberEngine::Build(triples, threaded);
  ASSERT_TRUE(parallel.ok());
  for (int qi = 0; qi < 8; ++qi) {
    std::string text = testutil::RandomQueryFromData(triples, 500 + qi, 3);
    auto want = serial->CountSparql(text, {});
    auto got = parallel->CountSparql(text, {});
    ASSERT_TRUE(want.ok() && got.ok());
    EXPECT_EQ(got->count, want->count) << text;
  }
}

}  // namespace
}  // namespace amber
