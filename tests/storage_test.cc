// Storage-layer tests: dual-mode flat containers (owned vs mapped view must
// answer identically), segment blob round-trips, the paged-file layer
// (superblock, segment table, checksums), and the on-disk corruption classes
// every reader must survive with a clean Status — never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "storage/flat.h"
#include "storage/format.h"
#include "storage/paged_file.h"
#include "storage/segment.h"

namespace flix::storage {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Checksum64

// Deterministic non-trivial bytes (no zero runs that could hide a lane).
std::vector<unsigned char> PatternBytes(size_t len) {
  std::vector<unsigned char> bytes(len);
  uint64_t state = 0x243F6A8885A308D3ull;
  for (size_t i = 0; i < len; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    bytes[i] = static_cast<unsigned char>(state >> 56);
  }
  return bytes;
}

// Every single-bit flip changes the checksum, for every length through
// three full 32-byte stripes (lanes, leftover words and the 1-7 byte tail
// in every combination) and a page-sized buffer.
TEST(ChecksumTest, EverySingleBitFlipChangesTheChecksum) {
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 96; ++len) lengths.push_back(len);
  lengths.push_back(4096);
  for (const size_t len : lengths) {
    std::vector<unsigned char> bytes = PatternBytes(len);
    const uint64_t base = Checksum64(bytes.data(), len);
    for (size_t i = 0; i < len; ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[i] ^= static_cast<unsigned char>(1u << bit);
        ASSERT_NE(Checksum64(bytes.data(), len), base)
            << "len " << len << " byte " << i << " bit " << bit;
        bytes[i] ^= static_cast<unsigned char>(1u << bit);
      }
    }
  }
}

// The format's guarantee is per aligned 8-byte word, not per byte: any
// change confined to one such word (here: every byte of it rewritten, the
// tail's partial word included) changes the checksum.
TEST(ChecksumTest, WholeWordRewriteChangesTheChecksum) {
  for (size_t len = 1; len <= 96; ++len) {
    std::vector<unsigned char> bytes = PatternBytes(len);
    const uint64_t base = Checksum64(bytes.data(), len);
    for (size_t word = 0; word < len; word += 8) {
      for (const unsigned char mask : {0x01, 0x5A, 0xFF}) {
        std::vector<unsigned char> changed = bytes;
        for (size_t i = word; i < std::min(word + 8, len); ++i) {
          changed[i] ^= mask;
        }
        EXPECT_NE(Checksum64(changed.data(), len), base)
            << "len " << len << " word " << word / 8;
      }
    }
  }
}

TEST(ChecksumTest, AppendingAZeroByteChangesTheChecksum) {
  for (const size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                           size_t{31}, size_t{32}, size_t{63}, size_t{96},
                           size_t{4096}}) {
    std::vector<unsigned char> bytes = PatternBytes(len);
    const uint64_t base = Checksum64(bytes.data(), len);
    bytes.push_back(0);
    EXPECT_NE(Checksum64(bytes.data(), len + 1), base) << "len " << len;
  }
  // All-zero inputs differ only in their length.
  const std::vector<unsigned char> zeros(65, 0);
  for (size_t len = 0; len < zeros.size(); ++len) {
    EXPECT_NE(Checksum64(zeros.data(), len + 1),
              Checksum64(zeros.data(), len))
        << "len " << len;
  }
}

// Pinned values: these are format-version-2 bytes on disk, so a change to
// the function is a format change and must bump kPagedVersion.
TEST(ChecksumTest, ValuesArePinnedByTheFormatVersion) {
  EXPECT_EQ(kPagedVersion, 2u);
  const std::vector<unsigned char> bytes = PatternBytes(100);
  EXPECT_EQ(Checksum64(bytes.data(), 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(Checksum64(bytes.data(), 5), 0xA9CEC184A9367099ull);
  EXPECT_EQ(Checksum64(bytes.data(), 100), 0x2ACA820B7FD60907ull);
}

// ---------------------------------------------------------------------------
// FlatVec

TEST(FlatVecTest, OwnedAndViewAnswerIdentically) {
  const std::vector<uint32_t> data = {5, 1, 4, 1, 5, 9, 2, 6};
  FlatVec<uint32_t> owned = data;
  const FlatVec<uint32_t> view =
      FlatVec<uint32_t>::FromView({data.data(), data.size()});

  EXPECT_FALSE(owned.is_view());
  EXPECT_TRUE(view.is_view());
  ASSERT_EQ(owned.size(), view.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(owned[i], data[i]);
    EXPECT_EQ(view[i], data[i]);
  }
  EXPECT_TRUE(std::equal(view.begin(), view.end(), owned.begin()));
  EXPECT_EQ(view.span().size(), data.size());
  EXPECT_EQ(view.MemoryBytes(), data.size() * sizeof(uint32_t));
}

TEST(FlatVecTest, AssignFromVectorClearsViewMode) {
  const std::vector<NodeId> backing = {1, 2, 3};
  FlatVec<NodeId> v = FlatVec<NodeId>::FromView({backing.data(), backing.size()});
  ASSERT_TRUE(v.is_view());
  v = std::vector<NodeId>{7, 8};
  EXPECT_FALSE(v.is_view());
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 7u);
  v.push_back(9);
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------------------
// FlatRows

TEST(FlatRowsTest, FlattenFromViewRoundTrip) {
  FlatRows<NodeId> owned = std::vector<std::vector<NodeId>>{
      {3, 1, 4}, {}, {1, 5}, {9, 2, 6, 5}, {}};

  std::vector<uint64_t> offsets;
  std::vector<NodeId> flat;
  owned.Flatten(offsets, flat);
  ASSERT_EQ(offsets.size(), owned.size() + 1);
  ASSERT_EQ(flat.size(), owned.TotalEntries());

  auto view = FlatRows<NodeId>::FromView({offsets.data(), offsets.size()},
                                         {flat.data(), flat.size()});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->size(), owned.size());
  EXPECT_EQ(view->TotalEntries(), owned.TotalEntries());
  for (size_t i = 0; i < owned.size(); ++i) {
    const std::span<const NodeId> a = owned[i];
    const std::span<const NodeId> b = (*view)[i];
    ASSERT_EQ(a.size(), b.size()) << "row " << i;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }

  // A view flattens back to the same CSR pair (paged re-save of a mapped
  // instance relies on this).
  std::vector<uint64_t> offsets2;
  std::vector<NodeId> flat2;
  view->Flatten(offsets2, flat2);
  EXPECT_EQ(offsets2, offsets);
  EXPECT_EQ(flat2, flat);
}

TEST(FlatRowsTest, FromViewRejectsMalformedShapes) {
  const std::vector<NodeId> flat = {1, 2, 3};
  const std::vector<uint64_t> empty_offsets;
  const std::vector<uint64_t> bad_start = {1, 3};
  const std::vector<uint64_t> bad_end = {0, 2};
  const std::vector<uint64_t> non_monotonic = {0, 2, 1, 3};
  EXPECT_FALSE(FlatRows<NodeId>::FromView(
                   {empty_offsets.data(), empty_offsets.size()},
                   {flat.data(), flat.size()})
                   .ok());
  EXPECT_FALSE(FlatRows<NodeId>::FromView({bad_start.data(), bad_start.size()},
                                          {flat.data(), flat.size()})
                   .ok());
  EXPECT_FALSE(FlatRows<NodeId>::FromView({bad_end.data(), bad_end.size()},
                                          {flat.data(), flat.size()})
                   .ok());
  EXPECT_FALSE(FlatRows<NodeId>::FromView(
                   {non_monotonic.data(), non_monotonic.size()},
                   {flat.data(), flat.size()})
                   .ok());
}

// ---------------------------------------------------------------------------
// FlatMultiMap

TEST(FlatMultiMapTest, OwnedAndViewAnswerIdentically) {
  FlatMultiMap owned;
  owned.Add(17, 100);
  owned.Add(3, 7);
  owned.Add(17, 101);
  owned.Add(42, 1);
  ASSERT_EQ(owned.NumKeys(), 3u);
  ASSERT_EQ(owned.TotalValues(), 4u);
  EXPECT_TRUE(owned.Contains(3));
  EXPECT_FALSE(owned.Contains(4));
  EXPECT_TRUE(owned.At(99).empty());

  std::vector<NodeId> keys;
  std::vector<uint64_t> offsets;
  std::vector<NodeId> flat;
  owned.Flatten(keys, offsets, flat);
  ASSERT_EQ(keys, (std::vector<NodeId>{3, 17, 42}));  // ascending

  auto view = FlatMultiMap::FromView({keys.data(), keys.size()},
                                     {offsets.data(), offsets.size()},
                                     {flat.data(), flat.size()});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->is_view());
  EXPECT_EQ(view->NumKeys(), owned.NumKeys());
  EXPECT_EQ(view->TotalValues(), owned.TotalValues());
  for (const NodeId key : keys) {
    const std::span<const NodeId> a = owned.At(key);
    const std::span<const NodeId> b = view->At(key);
    ASSERT_EQ(a.size(), b.size()) << "key " << key;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  EXPECT_TRUE(view->At(99).empty());
  EXPECT_FALSE(view->Contains(99));

  // View-mode ForEach visits keys in ascending order.
  std::vector<NodeId> visited;
  view->ForEach([&](NodeId key, std::span<const NodeId> values) {
    visited.push_back(key);
    EXPECT_FALSE(values.empty());
  });
  EXPECT_EQ(visited, keys);
}

TEST(FlatMultiMapTest, FromViewRejectsMalformedShapes) {
  const std::vector<NodeId> unsorted = {5, 2};
  const std::vector<NodeId> dup = {2, 2};
  const std::vector<uint64_t> offsets = {0, 1, 2};
  const std::vector<NodeId> flat = {10, 11};
  EXPECT_FALSE(FlatMultiMap::FromView({unsorted.data(), unsorted.size()},
                                      {offsets.data(), offsets.size()},
                                      {flat.data(), flat.size()})
                   .ok());
  EXPECT_FALSE(FlatMultiMap::FromView({dup.data(), dup.size()},
                                      {offsets.data(), offsets.size()},
                                      {flat.data(), flat.size()})
                   .ok());
  const std::vector<NodeId> keys = {2, 5};
  const std::vector<uint64_t> short_offsets = {0, 2};
  EXPECT_FALSE(FlatMultiMap::FromView({keys.data(), keys.size()},
                                      {short_offsets.data(), short_offsets.size()},
                                      {flat.data(), flat.size()})
                   .ok());
}

// ---------------------------------------------------------------------------
// SegmentWriter / SegmentView

TEST(SegmentTest, TypedArrayRoundTrip) {
  const std::vector<uint32_t> small = {1, 2, 3};
  const std::vector<uint64_t> wide = {1ull << 40, 7};
  const std::vector<int32_t> negatives = {-5, 0, 5};
  const std::vector<uint32_t> empty;

  SegmentWriter writer;
  writer.Add<uint32_t>(1, small);
  writer.Add<uint64_t>(2, wide);
  writer.Add<int32_t>(7, negatives);
  writer.Add<uint32_t>(9, empty);
  const std::vector<std::byte> blob = writer.Finish();

  auto view = SegmentView::Parse({blob.data(), blob.size()});
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->array_count(), 4u);
  EXPECT_TRUE(view->HasArray(2));
  EXPECT_FALSE(view->HasArray(3));

  const auto got_small = view->GetArray<uint32_t>(1);
  ASSERT_TRUE(got_small.ok());
  EXPECT_TRUE(std::equal(got_small->begin(), got_small->end(), small.begin(),
                         small.end()));
  const auto got_wide = view->GetArray<uint64_t>(2);
  ASSERT_TRUE(got_wide.ok());
  EXPECT_EQ((*got_wide)[0], 1ull << 40);
  const auto got_empty = view->GetArray<uint32_t>(9);
  ASSERT_TRUE(got_empty.ok());
  EXPECT_TRUE(got_empty->empty());

  // Arrays are cache-line aligned *within* the blob (segments themselves
  // start page-aligned in a file, so mapped spans end up 64-byte aligned).
  const auto* base = reinterpret_cast<const std::byte*>(blob.data());
  EXPECT_EQ((reinterpret_cast<const std::byte*>(got_small->data()) - base) %
                kArrayAlign,
            0);
  EXPECT_EQ((reinterpret_cast<const std::byte*>(got_wide->data()) - base) %
                kArrayAlign,
            0);

  // Typed access is checked against the on-disk element size.
  EXPECT_FALSE(view->GetArray<uint64_t>(1).ok());
  // Absent ids are an error, not a crash.
  EXPECT_FALSE(view->GetArray<uint32_t>(3).ok());
}

TEST(SegmentTest, ParseRejectsGarbageAndTruncation) {
  EXPECT_FALSE(SegmentView::Parse({}).ok());

  std::vector<std::byte> garbage(64, std::byte{0xAB});
  EXPECT_FALSE(SegmentView::Parse({garbage.data(), garbage.size()}).ok());

  SegmentWriter writer;
  const std::vector<uint32_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  writer.Add<uint32_t>(1, data);
  const std::vector<std::byte> blob = writer.Finish();
  // Every truncation point must fail cleanly: either the header, the
  // directory, or an array escaping the shortened payload.
  for (const size_t keep : {size_t{1}, size_t{7}, blob.size() / 2,
                            blob.size() - 1}) {
    EXPECT_FALSE(SegmentView::Parse({blob.data(), keep}).ok())
        << "kept " << keep << " of " << blob.size();
  }
}

// ---------------------------------------------------------------------------
// PagedFileWriter / PagedFileReader

// Writes a small two-segment paged file and returns its path.
std::string WriteSampleFile(const std::string& name) {
  const std::string path = TempPath(name);
  Superblock sb;
  sb.num_elements = 1234;
  sb.num_partitions = 1;
  sb.config = 3;
  sb.partition_bound = 250;
  auto writer = PagedFileWriter::Create(path, sb);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();

  SegmentWriter framework;
  const std::vector<uint32_t> meta_of_node = {0, 0, 1, 1};
  framework.Add<uint32_t>(1, meta_of_node);
  const std::vector<std::byte> fw = framework.Finish();
  EXPECT_TRUE(writer->AddSegment(SegmentKind::kFramework, 0, 0,
                                 {fw.data(), fw.size()})
                  .ok());

  SegmentWriter partition;
  const std::vector<NodeId> nodes = {10, 11, 12};
  partition.Add<NodeId>(1, nodes);
  const std::vector<std::byte> part = partition.Finish();
  EXPECT_TRUE(writer->AddSegment(SegmentKind::kPartition, 0, 0,
                                 {part.data(), part.size()})
                  .ok());
  EXPECT_TRUE(writer->Finish().ok());
  return path;
}

TEST(PagedFileTest, WriteOpenRoundTrip) {
  const std::string path = WriteSampleFile("paged_roundtrip.flix");

  auto reader = PagedFileReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const Superblock& sb = reader->superblock();
  EXPECT_EQ(sb.magic, kPagedMagic);
  EXPECT_EQ(sb.version, kPagedVersion);
  EXPECT_EQ(sb.num_elements, 1234u);
  EXPECT_EQ(sb.config, 3u);
  EXPECT_EQ(sb.partition_bound, 250u);
  EXPECT_EQ(sb.file_bytes, std::filesystem::file_size(path));
  ASSERT_EQ(reader->segments().size(), 2u);

  const SegmentEntry* fw = reader->Find(SegmentKind::kFramework, 0);
  ASSERT_NE(fw, nullptr);
  EXPECT_EQ(fw->offset % kPageBytes, 0u);
  EXPECT_TRUE(reader->VerifySegment(*fw).ok());
  auto view = reader->View(*fw);
  ASSERT_TRUE(view.ok());
  const auto arr = view->GetArray<uint32_t>(1);
  ASSERT_TRUE(arr.ok());
  EXPECT_EQ((*arr)[2], 1u);

  EXPECT_NE(reader->Find(SegmentKind::kPartition, 0), nullptr);
  EXPECT_EQ(reader->Find(SegmentKind::kIndex, 0), nullptr);
  EXPECT_EQ(reader->Find(SegmentKind::kPartition, 5), nullptr);
}

// Files that are not FLIXPG01 — here the retired stream format's magic, too
// short to hold a superblock — are rejected by the magic check with a
// message that names the fix.
TEST(PagedFileTest, OpenRejectsStreamFormatFile) {
  const std::string path = TempPath("not_paged.flix");
  WriteAll(path, {'X', 'I', 'L', 'F', 2, 0, 0, 0});  // stream-format header
  const auto reader = PagedFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("FLIXPG01"), std::string::npos)
      << reader.status().ToString();
  EXPECT_NE(reader.status().message().find("flixctl build"), std::string::npos)
      << reader.status().ToString();
}

// A version-1 file (FNV-1a checksums, retired) is refused by its version
// field, before any checksum is compared, with a message that names the fix.
TEST(PagedFileTest, OpenRejectsVersionOneWithRebuildMessage) {
  const std::string path = WriteSampleFile("version1.flix");
  std::vector<char> bytes = ReadAll(path);
  Superblock sb;
  std::memcpy(&sb, bytes.data(), sizeof(sb));
  sb.version = 1;
  sb.checksum = Checksum64(&sb, offsetof(Superblock, checksum));
  std::memcpy(bytes.data(), &sb, sizeof(sb));
  WriteAll(path, bytes);
  const auto reader = PagedFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  const std::string message(reader.status().message());
  EXPECT_NE(message.find("unsupported version 1"), std::string::npos)
      << message;
  EXPECT_NE(message.find("rebuild with `flixctl build`"), std::string::npos)
      << message;
}

// Each corruption class must produce a clean non-ok Status from Open — no
// crash, no partially constructed reader.
TEST(PagedFileTest, OpenRejectsEmptyFile) {
  const std::string path = TempPath("empty.flix");
  WriteAll(path, {});
  EXPECT_FALSE(PagedFileReader::Open(path).ok());
}

TEST(PagedFileTest, OpenRejectsMissingFile) {
  EXPECT_FALSE(PagedFileReader::Open(TempPath("does_not_exist.flix")).ok());
}

TEST(PagedFileTest, OpenRejectsTruncatedFile) {
  const std::string path = WriteSampleFile("truncated.flix");
  std::vector<char> bytes = ReadAll(path);
  // Truncate at several depths: inside the superblock, after it, and inside
  // the segment table.
  for (const size_t keep :
       {size_t{16}, size_t{kPageBytes / 2}, bytes.size() - 40,
        bytes.size() - 1}) {
    std::vector<char> shortened(bytes.begin(),
                                bytes.begin() + static_cast<ptrdiff_t>(keep));
    WriteAll(path, shortened);
    EXPECT_FALSE(PagedFileReader::Open(path).ok()) << "kept " << keep;
  }
}

TEST(PagedFileTest, OpenRejectsFlippedMagic) {
  const std::string path = WriteSampleFile("bad_magic.flix");
  std::vector<char> bytes = ReadAll(path);
  bytes[0] ^= 0x01;
  WriteAll(path, bytes);
  const auto reader = PagedFileReader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().message().find("FLIXPG01"), std::string::npos);
}

TEST(PagedFileTest, OpenRejectsCorruptSuperblock) {
  const std::string path = WriteSampleFile("bad_superblock.flix");
  std::vector<char> bytes = ReadAll(path);
  bytes[offsetof(Superblock, num_elements)] ^= 0x40;  // checksum now stale
  WriteAll(path, bytes);
  EXPECT_FALSE(PagedFileReader::Open(path).ok());
}

TEST(PagedFileTest, OpenRejectsCorruptSegmentTable) {
  const std::string path = WriteSampleFile("bad_table.flix");
  auto reader = PagedFileReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const uint64_t table_offset = reader->superblock().segment_table_offset;
  reader = PagedFileReader::Open("");  // drop the mapping before rewriting

  std::vector<char> bytes = ReadAll(path);
  bytes[table_offset + offsetof(SegmentEntry, length)] ^= 0x04;
  WriteAll(path, bytes);
  EXPECT_FALSE(PagedFileReader::Open(path).ok());
}

TEST(PagedFileTest, PayloadBitFlipCaughtByChecksumPolicy) {
  const std::string path = WriteSampleFile("bad_payload.flix");
  std::vector<char> bytes = ReadAll(path);
  // Flip one bit inside the first segment's payload (page 1).
  bytes[kPageBytes + sizeof(SegmentHeader) + sizeof(ArrayEntry)] ^= 0x10;
  WriteAll(path, bytes);

  // The safe default verifies all payloads up front and refuses the file.
  EXPECT_FALSE(PagedFileReader::Open(path, /*verify_checksums=*/true).ok());

  // The deferred mode opens (superblock and table are intact) and surfaces
  // the corruption via the per-segment check instead.
  auto reader = PagedFileReader::Open(path, /*verify_checksums=*/false);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const SegmentEntry* fw = reader->Find(SegmentKind::kFramework, 0);
  ASSERT_NE(fw, nullptr);
  EXPECT_FALSE(reader->VerifySegment(*fw).ok());
}

}  // namespace
}  // namespace flix::storage
