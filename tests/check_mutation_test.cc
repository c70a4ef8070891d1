// Mutation tests for the correctness tooling: each test seeds exactly one
// corruption class into an otherwise valid structure (via
// index::CorruptionHook or by editing the public MetaDocumentSet fields)
// and proves the matching validator detects it with a pinpointing message.
// A validator that passes clean builds (check_validator_test.cc) but also
// passes these mutants would be vacuous.
#include "check/corruption.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/validator.h"
#include "common/rng.h"
#include "flix/flix.h"
#include "index/hopi.h"
#include "index/ppo.h"
#include "index/summary_index.h"
#include "index/transitive_closure.h"
#include "obs/metrics.h"
#include "storage/format.h"
#include "workload/synthetic_generator.h"

namespace flix::index {
namespace {

// A small tree: 0(a) with children 1(b) and 4(b); 1 has children 2(c), 3(b).
graph::Digraph SampleTree() {
  graph::Digraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(2);
  g.AddNode(1);
  g.AddNode(1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(0, 4);
  return g;
}

graph::Digraph RandomDigraph(size_t n, size_t edges, uint64_t seed,
                             size_t num_tags = 4) {
  Rng rng(seed);
  graph::Digraph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<TagId>(rng.Uniform(num_tags)));
  }
  for (size_t e = 0; e < edges; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
              static_cast<NodeId>(rng.Uniform(n)));
  }
  return g;
}

graph::Digraph ChainDag(size_t n) {
  graph::Digraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode(static_cast<TagId>(i % 3));
  for (NodeId i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1);
  return g;
}

// Corruption class 1: swapped PPO preorder intervals. The pre/order
// permutation still holds, so only the interval-nesting check can see it.
TEST(MutationTest, SwappedPpoIntervalsAreDetected) {
  const graph::Digraph g = SampleTree();
  auto built = PpoIndex::Build(g);
  ASSERT_TRUE(built.ok());
  PpoIndex& ppo = **built;
  ASSERT_TRUE(ppo.Validate(g).ok());

  CorruptionHook::SwapPpoIntervals(ppo, 0, 2);  // root <-> grandchild
  const Status status = ppo.Validate(g);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string(status.message()).find("ppo:"), std::string::npos)
      << status.ToString();
}

// Corruption class 2: dropped HOPI hub entry — an inverted list loses one
// node, so a 2-hop enumeration through that hub would silently miss it.
TEST(MutationTest, DroppedHopiHubEntryIsDetected) {
  const graph::Digraph g = RandomDigraph(40, 80, 73);
  const auto hopi = HopiIndex::Build(g);
  ASSERT_TRUE(hopi->Validate(g).ok());

  ASSERT_TRUE(CorruptionHook::DropHopiHubEntry(*hopi));
  const Status status = hopi->Validate(g);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string(status.message()).find("hopi: inverted_in"),
            std::string::npos)
      << status.ToString();
}

// Corruption class 2b: a label entry whose distance is no longer the true
// BFS distance (the PLL exactness property).
TEST(MutationTest, SkewedHopiLabelDistanceIsDetected) {
  const graph::Digraph g = RandomDigraph(40, 80, 79);
  const auto hopi = HopiIndex::Build(g);
  ASSERT_TRUE(hopi->Validate(g).ok());

  bool skewed = false;
  for (NodeId v = 0; v < g.NumNodes() && !skewed; ++v) {
    skewed = CorruptionHook::SkewHopiLabelDistance(*hopi, v);
  }
  ASSERT_TRUE(skewed);
  ValidateOptions deep;
  deep.deep = true;  // exhaustive label probes on a graph this small
  const Status status = hopi->Validate(g, deep);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string(status.message()).find("hopi:"), std::string::npos)
      << status.ToString();
}

// Corruption class 3: truncated transitive-closure row — the forward row
// disagrees with both its BFS closure and the reverse transpose.
TEST(MutationTest, TruncatedTcRowIsDetected) {
  const graph::Digraph g = ChainDag(8);
  auto built = TransitiveClosureIndex::Build(g);
  ASSERT_TRUE(built.ok());
  TransitiveClosureIndex& tc = **built;
  ASSERT_TRUE(tc.Validate(g).ok());

  ASSERT_TRUE(CorruptionHook::TruncateTcRow(tc, 0));
  const Status status = tc.Validate(g);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string(status.message()).find("tc:"), std::string::npos)
      << status.ToString();
}

// Corruption class 4: wrong APEX extent — a node filed under a foreign
// block breaks the exact-partition invariant.
TEST(MutationTest, MisfiledApexExtentIsDetected) {
  const graph::Digraph g = RandomDigraph(40, 60, 83);
  const auto apex = SummaryIndex::BuildApex(g);
  ASSERT_TRUE(apex->Validate(g).ok());

  ASSERT_TRUE(CorruptionHook::MisfileExtent(*apex, 0));
  const Status status = apex->Validate(g);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string(status.message()).find("apex:"), std::string::npos)
      << status.ToString();
}

// Corruption class 4b: a cleared summary pruning bit — the pruned traversal
// would cut branches that still hold results with that tag.
TEST(MutationTest, ClearedSummaryPruningBitIsDetected) {
  const graph::Digraph g = RandomDigraph(40, 60, 89);
  const auto summary = SummaryIndex::Build(g);
  ASSERT_TRUE(summary->Validate(g).ok());

  ASSERT_TRUE(CorruptionHook::ClearSummaryPruningBit(*summary));
  const Status status = summary->Validate(g);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string(status.message()).find("summary:"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace flix::index

namespace flix::check {
namespace {

std::unique_ptr<core::Flix> BuildHybrid(const xml::Collection& collection) {
  core::FlixOptions options;
  options.config = core::MdbConfig::kHybrid;
  options.partition_bound = 50;  // small bound => cross links exist
  auto flix = core::Flix::Build(collection, options);
  EXPECT_TRUE(flix.ok()) << flix.status().ToString();
  return std::move(flix).value();
}

bool AnyViolationContains(const CheckReport& report,
                          const std::string& needle) {
  for (const std::string& v : report.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

// Framework-level mutations edit the public MetaDocumentSet fields; the
// const_cast mirrors what an (impossible in production) in-place corruption
// of the built structures would look like.
core::MetaDocumentSet& MutableSet(core::Flix& flix) {
  return const_cast<core::MetaDocumentSet&>(flix.meta_documents());
}

// Corruption class 5: stale L_i entry — a recorded cross link with no
// witnessing element edge.
TEST(FrameworkMutationTest, StaleLinkEntryIsDetected) {
  const auto collection = workload::GenerateSynthetic({.seed = 97});
  ASSERT_TRUE(collection.ok());
  const auto flix = BuildHybrid(*collection);
  ASSERT_TRUE(ValidateFramework(*flix).ok());

  core::MetaDocumentSet& set = MutableSet(*flix);
  core::MetaDocument* victim = nullptr;
  for (core::MetaDocument& doc : set.docs) {
    if (!doc.link_sources.empty()) {
      victim = &doc;
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "expected cross links at this bound";
  // The element graph has no self edges, so source -> source is never
  // witnessed.
  const NodeId local = victim->link_sources[0];
  victim->link_targets.Add(local, victim->global_nodes[local]);

  CheckOptions options;
  options.validate_indexes = false;  // the indexes themselves are intact
  const CheckReport report = ValidateFramework(*flix, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(AnyViolationContains(report, "stale L_i entry"))
      << report.violations.front();
}

// Corruption class 6: orphaned partition node — a global node whose mapping
// no longer round-trips through its meta document.
TEST(FrameworkMutationTest, OrphanedPartitionNodeIsDetected) {
  const auto collection = workload::GenerateSynthetic({.seed = 101});
  ASSERT_TRUE(collection.ok());
  const auto flix = BuildHybrid(*collection);
  ASSERT_TRUE(ValidateFramework(*flix).ok());

  core::MetaDocumentSet& set = MutableSet(*flix);
  // Remove the last element of the largest meta document from its
  // global_nodes list: the node keeps pointing at the meta document, but
  // the meta document no longer claims it.
  core::MetaDocument* victim = &set.docs.front();
  for (core::MetaDocument& doc : set.docs) {
    if (doc.global_nodes.size() > victim->global_nodes.size()) victim = &doc;
  }
  ASSERT_GT(victim->global_nodes.size(), 1u);
  victim->global_nodes.MutableOwned().pop_back();

  CheckOptions options;
  options.validate_indexes = false;
  const CheckReport report = ValidateFramework(*flix, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(AnyViolationContains(report, "orphaned"))
      << report.violations.front();
}

// The violations counter must tick for failed runs.
TEST(FrameworkMutationTest, ViolationsCounterAdvancesOnFailure) {
  const auto collection = workload::GenerateSynthetic({.seed = 103});
  ASSERT_TRUE(collection.ok());
  const auto flix = BuildHybrid(*collection);
  core::MetaDocumentSet& set = MutableSet(*flix);
  ASSERT_GT(set.docs.front().global_nodes.size(), 1u);
  set.docs.front().global_nodes.MutableOwned().pop_back();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t before =
      registry.GetCounter("flix.check.violations").Value();
  CheckOptions options;
  options.validate_indexes = false;
  const CheckReport report = ValidateFramework(*flix, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(registry.GetCounter("flix.check.violations").Value(),
            before + report.violations.size());
}

// ---------------------------------------------------------------------------
// On-disk corruption classes: damage a saved index *file* (instead of the
// in-memory structures above) and prove the load path rejects it with a
// clean Status — never a crash, never a silently wrong instance. The default
// paged load verifies all payload checksums, so every class below must be
// caught before a single query runs.

class OnDiskCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto collection = workload::GenerateSynthetic({.seed = 107});
    ASSERT_TRUE(collection.ok());
    collection_ = std::move(collection).value();
    flix_ = BuildHybrid(collection_);
    // One file per test: ctest runs tests as parallel processes, so a
    // shared name would race.
    const char* test_name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = (std::filesystem::path(::testing::TempDir()) /
             (std::string("ondisk_") + test_name + ".flix"))
                .string();
  }

  void SavePaged() {
    ASSERT_TRUE(flix_->Save(path_, core::Flix::IndexFormat::kMapped).ok());
  }

  std::vector<char> ReadFile() {
    std::ifstream in(path_, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  Status Reload() {
    auto loaded = core::Flix::Load(path_, collection_);
    return loaded.ok() ? Status::Ok() : loaded.status();
  }

  xml::Collection collection_;
  std::unique_ptr<core::Flix> flix_;
  std::string path_;
};

// Corruption class 7: truncation — at the superblock, mid-segment, and
// inside the trailing segment table.
TEST_F(OnDiskCorruptionTest, TruncatedPagedFileIsRejected) {
  SavePaged();
  const std::vector<char> bytes = ReadFile();
  ASSERT_GT(bytes.size(), storage::kPageBytes);
  for (const size_t keep :
       {size_t{32}, size_t{storage::kPageBytes}, bytes.size() / 2,
        bytes.size() - 1}) {
    WriteFile(std::vector<char>(bytes.begin(),
                                bytes.begin() + static_cast<ptrdiff_t>(keep)));
    EXPECT_FALSE(Reload().ok()) << "kept " << keep << " of " << bytes.size();
  }
}

// Corruption class 8: a flipped bit in a superblock identity field — the
// superblock checksum no longer matches.
TEST_F(OnDiskCorruptionTest, FlippedSuperblockBitIsRejected) {
  SavePaged();
  std::vector<char> bytes = ReadFile();
  bytes[offsetof(storage::Superblock, num_elements)] ^= 0x01;
  WriteFile(bytes);
  const Status status = Reload();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string(status.message()).find("checksum"), std::string::npos)
      << status.ToString();
}

// Corruption class 9: a flipped bit deep inside a segment payload — caught
// by the up-front payload checksum sweep of the default load.
TEST_F(OnDiskCorruptionTest, FlippedSegmentPayloadBitIsRejected) {
  SavePaged();
  std::vector<char> bytes = ReadFile();
  // First segment begins on page 1; kArrayAlign past its header sits inside
  // the first array's data, past the self-describing directory.
  bytes[storage::kPageBytes + storage::kArrayAlign + 1] ^= 0x20;
  WriteFile(bytes);
  EXPECT_FALSE(Reload().ok());
}

// Corruption class 10: a damaged segment-table row (length field) — the
// table checksum in the superblock catches it before any segment is mapped.
TEST_F(OnDiskCorruptionTest, FlippedSegmentTableBitIsRejected) {
  SavePaged();
  std::vector<char> bytes = ReadFile();
  storage::Superblock sb;
  std::memcpy(&sb, bytes.data(), sizeof(sb));
  ASSERT_LT(sb.segment_table_offset, bytes.size());
  bytes[sb.segment_table_offset + offsetof(storage::SegmentEntry, length)] ^=
      0x02;
  WriteFile(bytes);
  EXPECT_FALSE(Reload().ok());
}

// Finds the landmark segment's table entry in a raw paged file image.
size_t LandmarkEntryOffset(const std::vector<char>& bytes) {
  storage::Superblock sb;
  std::memcpy(&sb, bytes.data(), sizeof(sb));
  for (uint64_t i = 0; i < sb.segment_count; ++i) {
    const size_t offset =
        sb.segment_table_offset + i * sizeof(storage::SegmentEntry);
    storage::SegmentEntry entry;
    std::memcpy(&entry, bytes.data() + offset, sizeof(entry));
    if (entry.kind == static_cast<uint32_t>(storage::SegmentKind::kLandmarks)) {
      return offset;
    }
  }
  return 0;
}

// Rewrites the segment-table and superblock checksums after an in-place
// edit, so only the intended corruption is visible to the loader.
void ResealChecksums(std::vector<char>& bytes) {
  storage::Superblock sb;
  std::memcpy(&sb, bytes.data(), sizeof(sb));
  sb.segment_table_checksum = storage::Checksum64(
      bytes.data() + sb.segment_table_offset,
      sb.segment_count * sizeof(storage::SegmentEntry));
  sb.checksum =
      storage::Checksum64(&sb, offsetof(storage::Superblock, checksum));
  std::memcpy(bytes.data(), &sb, sizeof(sb));
}

// Corruption class 12: a flipped distance byte inside the landmark segment.
// The segment is advisory — its own checksum catches the damage, the load
// must still succeed, and point queries fall back to the blind walk with
// unchanged answers.
TEST_F(OnDiskCorruptionTest, FlippedLandmarkDistanceFallsBackToBlind) {
  SavePaged();
  std::vector<char> bytes = ReadFile();
  const size_t entry_offset = LandmarkEntryOffset(bytes);
  ASSERT_NE(entry_offset, 0u) << "no landmark segment in the saved file";
  storage::SegmentEntry entry;
  std::memcpy(&entry, bytes.data() + entry_offset, sizeof(entry));
  // Flip a byte in the middle of the payload — inside the distance tables,
  // past the segment's array directory.
  bytes[entry.offset + entry.length / 2] ^= 0x11;
  WriteFile(bytes);

  auto loaded = core::Flix::Load(path_, collection_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->meta_documents().landmarks.Snapshot(), nullptr);
  const graph::Digraph g = collection_.BuildGraph();
  for (NodeId a = 0; a < g.NumNodes(); a += 61) {
    for (NodeId b = 0; b < g.NumNodes(); b += 67) {
      EXPECT_EQ((*loaded)->FindDistance(a, b), flix_->FindDistance(a, b));
    }
  }
}

// Corruption class 13: a truncated landmark table whose checksums were
// recomputed to match (a "clean" torn write). The payload checksum passes;
// the segment's shape validation catches the short arrays, and the load
// falls back to blind search instead of crashing or serving garbage.
TEST_F(OnDiskCorruptionTest, TruncatedLandmarkTableFallsBackToBlind) {
  SavePaged();
  std::vector<char> bytes = ReadFile();
  const size_t entry_offset = LandmarkEntryOffset(bytes);
  ASSERT_NE(entry_offset, 0u) << "no landmark segment in the saved file";
  storage::SegmentEntry entry;
  std::memcpy(&entry, bytes.data() + entry_offset, sizeof(entry));
  entry.length /= 2;
  entry.checksum =
      storage::Checksum64(bytes.data() + entry.offset, entry.length);
  std::memcpy(bytes.data() + entry_offset, &entry, sizeof(entry));
  ResealChecksums(bytes);
  WriteFile(bytes);

  auto loaded = core::Flix::Load(path_, collection_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->meta_documents().landmarks.Snapshot(), nullptr);
  const graph::Digraph g = collection_.BuildGraph();
  for (NodeId a = 0; a < g.NumNodes(); a += 61) {
    for (NodeId b = 0; b < g.NumNodes(); b += 67) {
      EXPECT_EQ((*loaded)->FindDistance(a, b), flix_->FindDistance(a, b));
    }
  }
}

// Corruption class 11: a file in the retired stream format, which began
// with the u32 magic 0x464C4958 ("FLIX") and the u32 version (2 in its last
// release). Both Flix::Load and `flixctl info` must refuse it with a message
// that names the format they expect and the fix.
TEST_F(OnDiskCorruptionTest, OldStreamFileIsRejected) {
  std::vector<char> bytes(1024, '\0');
  const uint32_t header[2] = {0x464C4958, 2};
  std::memcpy(bytes.data(), header, sizeof(header));
  WriteFile(bytes);

  const Status status = Reload();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("FLIXPG01"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("flixctl build"), std::string::npos)
      << status.ToString();

  const std::string command =
      std::string(FLIXCTL_PATH) + " info --index '" + path_ + "' 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 256> line{};
  while (std::fgets(line.data(), static_cast<int>(line.size()), pipe) !=
         nullptr) {
    output += line.data();
  }
  EXPECT_NE(pclose(pipe), 0) << output;
  EXPECT_NE(output.find("FLIXPG01"), std::string::npos) << output;
  EXPECT_NE(output.find("flixctl build"), std::string::npos) << output;
}

}  // namespace
}  // namespace flix::check
