// Persistence round-trips: binary I/O primitives (collection files), every
// index strategy's segment arrays, and a full Flix save/load through the
// paged (mmap, zero-copy) FLIXPG01 file whose loaded instance must answer
// queries exactly like the freshly built one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "check/validator.h"
#include "common/binary_io.h"
#include "common/rng.h"
#include "flix/adapt.h"
#include "flix/flix.h"
#include "index/hopi.h"
#include "index/path_index.h"
#include "index/ppo.h"
#include "index/summary_index.h"
#include "index/transitive_closure.h"
#include "storage/segment.h"
#include "workload/synthetic_generator.h"

namespace flix {
namespace {

TEST(BinaryIoTest, PodAndStringRoundTrip) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(1ULL << 40);
  writer.WriteString("hello \0 world");
  ASSERT_TRUE(writer.ok());

  BinaryReader reader(stream);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64(), 1ULL << 40);
  EXPECT_EQ(reader.ReadString(), std::string("hello \0 world"));
  EXPECT_TRUE(reader.ok());
}

TEST(BinaryIoTest, TruncatedInputFailsGracefully) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU64(1000000);  // claims a million bytes, provides none
  BinaryReader reader(stream);
  const std::string s = reader.ReadString();
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(reader.failed());
}

TEST(BinaryIoTest, HugeClaimedSizeRejected) {
  std::stringstream stream;
  BinaryWriter writer(stream);
  writer.WriteU64(UINT64_MAX);  // absurd byte count
  BinaryReader reader(stream);
  (void)reader.ReadString();
  EXPECT_TRUE(reader.failed());
}

graph::Digraph RandomGraph(size_t n, size_t edges, uint64_t seed) {
  Rng rng(seed);
  graph::Digraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode(static_cast<TagId>(rng.Uniform(4)));
  for (size_t e = 0; e < edges; ++e) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
              static_cast<NodeId>(rng.Uniform(n)),
              rng.Bernoulli(0.3) ? graph::EdgeKind::kLink
                                 : graph::EdgeKind::kTree);
  }
  return g;
}

TEST(PersistenceTest, DigraphRoundTrip) {
  const graph::Digraph g = RandomGraph(30, 60, 5);
  storage::SegmentWriter seg;
  g.AppendArrays(seg, /*base_id=*/10);
  const std::vector<std::byte> payload = seg.Finish();
  const auto view = storage::SegmentView::Parse(payload);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto from_segment = graph::Digraph::FromSegment(*view, /*base_id=*/10);
  ASSERT_TRUE(from_segment.ok()) << from_segment.status().ToString();
  const graph::Digraph& loaded = *from_segment;
  EXPECT_TRUE(loaded.is_view());
  ASSERT_EQ(loaded.NumNodes(), g.NumNodes());
  ASSERT_EQ(loaded.NumEdges(), g.NumEdges());
  EXPECT_EQ(loaded.NumLinkEdges(), g.NumLinkEdges());
  EXPECT_EQ(loaded.Edges(), g.Edges());
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_EQ(loaded.Tag(v), g.Tag(v));
  }
}

// Round-trips one index through SaveIndexSegment/LoadIndexSegment and
// compares answers.
void CheckIndexRoundTrip(const index::PathIndex& original,
                         const graph::Digraph& g) {
  storage::SegmentWriter seg;
  index::SaveIndexSegment(original, seg);
  const std::vector<std::byte> payload = seg.Finish();
  const auto view = storage::SegmentView::Parse(payload);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  auto loaded = index::LoadIndexSegment(*view, original.kind(), g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->kind(), original.kind());

  for (NodeId u = 0; u < g.NumNodes(); u += 3) {
    EXPECT_EQ((*loaded)->Descendants(u), original.Descendants(u));
    for (TagId tag = 0; tag < 4; ++tag) {
      EXPECT_EQ((*loaded)->DescendantsByTag(u, tag),
                original.DescendantsByTag(u, tag));
      EXPECT_EQ((*loaded)->AncestorsByTag(u, tag),
                original.AncestorsByTag(u, tag));
    }
    for (NodeId v = 0; v < g.NumNodes(); v += 4) {
      EXPECT_EQ((*loaded)->DistanceBetween(u, v),
                original.DistanceBetween(u, v));
    }
  }
}

TEST(PersistenceTest, PpoRoundTrip) {
  Rng rng(9);
  graph::Digraph g;
  for (int i = 0; i < 40; ++i) g.AddNode(static_cast<TagId>(rng.Uniform(4)));
  for (NodeId i = 1; i < 40; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(i)), i);
  }
  auto built = index::PpoIndex::Build(g);
  ASSERT_TRUE(built.ok());
  CheckIndexRoundTrip(**built, g);
}

TEST(PersistenceTest, HopiRoundTrip) {
  const graph::Digraph g = RandomGraph(50, 110, 11);
  const auto built = index::HopiIndex::Build(g);
  CheckIndexRoundTrip(*built, g);
}

TEST(PersistenceTest, ApexRoundTrip) {
  const graph::Digraph g = RandomGraph(50, 110, 13);
  const auto built = index::SummaryIndex::BuildApex(g);
  CheckIndexRoundTrip(*built, g);
}

TEST(PersistenceTest, TcRoundTrip) {
  const graph::Digraph g = RandomGraph(40, 90, 17);
  auto built = index::TransitiveClosureIndex::Build(g);
  ASSERT_TRUE(built.ok());
  CheckIndexRoundTrip(**built, g);
}

TEST(PersistenceTest, LoadIndexRejectsGarbage) {
  graph::Digraph g(1);
  storage::SegmentWriter seg;
  seg.Add(1, std::vector<uint32_t>{7, 7, 7});
  const std::vector<std::byte> payload = seg.Finish();
  const auto view = storage::SegmentView::Parse(payload);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  // Unknown strategy kind.
  EXPECT_FALSE(
      index::LoadIndexSegment(*view, static_cast<index::StrategyKind>(999), g)
          .ok());
  // A known kind whose arrays are missing.
  for (const index::StrategyKind kind :
       {index::StrategyKind::kPpo, index::StrategyKind::kHopi,
        index::StrategyKind::kApex, index::StrategyKind::kTransitiveClosure,
        index::StrategyKind::kSummary}) {
    EXPECT_FALSE(index::LoadIndexSegment(*view, kind, g).ok())
        << index::StrategyName(kind);
  }
}

// Writes a kApex segment by hand, array by array in the saved layout, over
// the two-block summary of the graph a(0) -> b(1).
std::vector<std::byte> HandBuiltApexSegment(
    const std::vector<uint32_t>& block_of,
    const std::vector<NodeId>& extent_flat) {
  graph::Digraph quotient(2);
  quotient.AddEdge(0, 1);
  storage::SegmentWriter seg;
  seg.Add(1, block_of);                           // block of each node
  seg.Add(2, std::vector<uint64_t>{0, 1, 2});     // extent offsets
  seg.Add(3, extent_flat);                        // extent members
  seg.Add(4, std::vector<uint64_t>{0, 1, 2});     // forward-tag offsets
  seg.Add(5, std::vector<uint64_t>{0b11, 0b10});  // forward-tag rows
  seg.Add(8, std::vector<uint64_t>{1, 0});        // tag_words, no closure
  quotient.AppendArrays(seg, 10);
  return seg.Finish();
}

TEST(PersistenceTest, LoadApexSegmentRangeChecksIds) {
  graph::Digraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddEdge(0, 1);
  // The loaded index views `payload`, which the caller keeps alive.
  const auto load = [&](const std::vector<std::byte>& payload)
      -> StatusOr<std::unique_ptr<index::PathIndex>> {
    const auto view = storage::SegmentView::Parse(payload);
    if (!view.ok()) return view.status();
    return index::LoadIndexSegment(*view, index::StrategyKind::kApex, g);
  };

  // The well-formed segment loads and answers.
  const std::vector<std::byte> good = HandBuiltApexSegment({0, 1}, {0, 1});
  const auto loaded = load(good);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->kind(), index::StrategyKind::kApex);
  EXPECT_EQ((*loaded)->DistanceBetween(0, 1), 1);

  // Node 1 filed under block 7 of 2.
  const std::vector<std::byte> bad_block = HandBuiltApexSegment({0, 7}, {0, 1});
  const auto rejected_block = load(bad_block);
  ASSERT_FALSE(rejected_block.ok());
  EXPECT_NE(rejected_block.status().ToString().find("maps to block 7"),
            std::string::npos)
      << rejected_block.status().ToString();

  // An extent listing node 9 of a 2-node graph.
  const std::vector<std::byte> bad_member =
      HandBuiltApexSegment({0, 1}, {0, 9});
  const auto rejected_member = load(bad_member);
  ASSERT_FALSE(rejected_member.ok());
  EXPECT_NE(rejected_member.status().ToString().find("lists node 9"),
            std::string::npos)
      << rejected_member.status().ToString();
}

std::string PagedTempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(CollectionPersistenceTest, RoundTripPreservesEverything) {
  const auto original = workload::GenerateSynthetic({.seed = 87});
  ASSERT_TRUE(original.ok());

  std::stringstream stream;
  ASSERT_TRUE(original->Save(stream).ok());
  auto loaded = xml::Collection::Load(stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(loaded->NumDocuments(), original->NumDocuments());
  ASSERT_EQ(loaded->NumElements(), original->NumElements());
  EXPECT_EQ(loaded->pool().size(), original->pool().size());
  for (TagId t = 0; t < original->pool().size(); ++t) {
    EXPECT_EQ(loaded->pool().Name(t), original->pool().Name(t));
  }
  for (DocId d = 0; d < original->NumDocuments(); ++d) {
    const xml::Document& a = original->document(d);
    const xml::Document& b = loaded->document(d);
    ASSERT_EQ(b.name(), a.name());
    ASSERT_EQ(b.NumElements(), a.NumElements());
    for (xml::ElementId e = 0; e < a.NumElements(); ++e) {
      EXPECT_EQ(b.element(e).tag, a.element(e).tag);
      EXPECT_EQ(b.element(e).parent, a.element(e).parent);
      EXPECT_EQ(b.element(e).children, a.element(e).children);
      EXPECT_EQ(b.element(e).attributes, a.element(e).attributes);
      EXPECT_EQ(b.element(e).text, a.element(e).text);
    }
  }
  EXPECT_EQ(loaded->links().links, original->links().links);

  // Anchors survive: resolving links again gives the same set.
  loaded->ResolveAllLinks();
  EXPECT_EQ(loaded->links().links, original->links().links);

  // The element graphs are identical, so a saved index works with either.
  const graph::Digraph g1 = original->BuildGraph();
  const graph::Digraph g2 = loaded->BuildGraph();
  EXPECT_EQ(g2.Edges(), g1.Edges());
}

TEST(CollectionPersistenceTest, IndexSavedAgainstLoadedCollection) {
  // Build against the original, save both, load both, query via the loaded
  // pair — the workflow flixctl uses.
  const auto original = workload::GenerateSynthetic({.seed = 89});
  ASSERT_TRUE(original.ok());
  auto flix = core::Flix::Build(*original, {});
  ASSERT_TRUE(flix.ok());

  std::stringstream coll_stream;
  const std::string index_path = PagedTempPath("against_loaded.flix");
  ASSERT_TRUE(original->Save(coll_stream).ok());
  ASSERT_TRUE((*flix)->Save(index_path).ok());

  auto loaded_collection = xml::Collection::Load(coll_stream);
  ASSERT_TRUE(loaded_collection.ok());
  auto loaded_flix = core::Flix::Load(index_path, *loaded_collection);
  ASSERT_TRUE(loaded_flix.ok()) << loaded_flix.status().ToString();

  const NodeId start = loaded_collection->GlobalId(0, 0);
  EXPECT_EQ((*loaded_flix)->FindDescendantsByName(start, "t0"),
            (*flix)->FindDescendantsByName(start, "t0"));
}

TEST(CollectionPersistenceTest, RejectsGarbage) {
  std::stringstream stream("garbage bytes");
  EXPECT_FALSE(xml::Collection::Load(stream).ok());
}

// ---------------------------------------------------------------------------
// Full Flix save/load

// Compares every query class the facade offers between two instances built
// over the same collection: mapped views must agree with heap answers from
// every document root, and on a grid of connection/distance pairs.
void ExpectSameAnswers(const core::Flix& a, const core::Flix& b,
                       const xml::Collection& collection) {
  const graph::Digraph g = collection.BuildGraph();
  for (const char* tag : {"t0", "t1", "doc", "xref"}) {
    for (DocId d = 0; d < collection.NumDocuments(); ++d) {
      const NodeId start = collection.GlobalId(d, 0);
      EXPECT_EQ(b.FindDescendantsByName(start, tag),
                a.FindDescendantsByName(start, tag))
          << "descendants, tag " << tag << " doc " << d;
      EXPECT_EQ(b.FindAncestorsByName(start, tag),
                a.FindAncestorsByName(start, tag))
          << "ancestors, tag " << tag << " doc " << d;
    }
  }
  for (NodeId u = 0; u < g.NumNodes(); u += 37) {
    for (NodeId v = 0; v < g.NumNodes(); v += 41) {
      EXPECT_EQ(b.IsConnected(u, v), a.IsConnected(u, v));
      EXPECT_EQ(b.FindDistance(u, v), a.FindDistance(u, v));
    }
  }
}

class PagedPersistenceTest
    : public ::testing::TestWithParam<core::MdbConfig> {};

TEST_P(PagedPersistenceTest, MappedRoundTrip) {
  const auto collection = workload::GenerateSynthetic({.seed = 81});
  ASSERT_TRUE(collection.ok());
  core::FlixOptions options;
  options.config = GetParam();
  options.partition_bound = 80;
  auto original = core::Flix::Build(*collection, options);
  ASSERT_TRUE(original.ok());

  const std::string path = PagedTempPath(
      std::string("mapped_roundtrip_") +
      std::string(core::MdbConfigName(GetParam())) + ".flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());

  auto loaded = core::Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The load is zero-copy: every meta-document table is a view into the
  // mapping, not a heap copy.
  const core::MetaDocumentSet& set = (*loaded)->meta_documents();
  EXPECT_TRUE(set.meta_of_node.is_view());
  EXPECT_TRUE(set.local_of_node.is_view());
  ASSERT_FALSE(set.docs.empty());
  for (const core::MetaDocument& meta : set.docs) {
    EXPECT_TRUE(meta.global_nodes.is_view());
    EXPECT_TRUE(meta.graph.is_view());
  }

  // Same structure as the original...
  EXPECT_EQ((*loaded)->stats().num_meta_documents,
            (*original)->stats().num_meta_documents);
  EXPECT_EQ((*loaded)->stats().num_cross_links,
            (*original)->stats().num_cross_links);
  EXPECT_EQ((*loaded)->stats().num_ppo, (*original)->stats().num_ppo);
  EXPECT_EQ((*loaded)->stats().num_hopi, (*original)->stats().num_hopi);
  EXPECT_EQ((*loaded)->stats().num_apex, (*original)->stats().num_apex);

  // ...identical answers everywhere...
  ExpectSameAnswers(**original, **loaded, *collection);

  // ...and the full correctness tooling holds on the mapped views: the
  // structural validator (deep) plus the differential query oracle.
  check::CheckOptions check_options;
  check_options.index.deep = true;
  const check::CheckReport report =
      check::ValidateFramework(**loaded, check_options);
  EXPECT_TRUE(report.ok()) << report.violations.front();
  const check::OracleReport oracle = check::RunDifferentialOracle(**loaded);
  EXPECT_TRUE(oracle.ok()) << oracle.diffs.front();
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PagedPersistenceTest,
    ::testing::Values(core::MdbConfig::kNaive, core::MdbConfig::kMaximalPpo,
                      core::MdbConfig::kUnconnectedHopi,
                      core::MdbConfig::kHybrid),
    [](const ::testing::TestParamInfo<core::MdbConfig>& info) {
      return std::string(core::MdbConfigName(info.param));
    });

TEST(PagedPersistenceTest, OptionsRoundTripThroughSuperblock) {
  const auto collection = workload::GenerateSynthetic({.seed = 91});
  ASSERT_TRUE(collection.ok());
  core::FlixOptions options;
  options.config = core::MdbConfig::kUnconnectedHopi;
  options.partition_bound = 123;
  options.query_cache_capacity = 7;
  options.element_level_partitions = true;
  auto original = core::Flix::Build(*collection, options);
  ASSERT_TRUE(original.ok());

  const std::string path = PagedTempPath("options_superblock.flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());
  auto loaded = core::Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->options().config, options.config);
  EXPECT_EQ((*loaded)->options().partition_bound, options.partition_bound);
  EXPECT_EQ((*loaded)->options().query_cache_capacity, 7u);
  EXPECT_TRUE((*loaded)->options().element_level_partitions);
  ASSERT_NE((*loaded)->query_cache(), nullptr);
}

TEST(PagedPersistenceTest, SkippingChecksumVerificationStillLoads) {
  const auto collection = workload::GenerateSynthetic({.seed = 95});
  ASSERT_TRUE(collection.ok());
  auto original = core::Flix::Build(*collection, {});
  ASSERT_TRUE(original.ok());
  const std::string path = PagedTempPath("no_verify.flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());

  core::Flix::LoadOptions load_options;
  load_options.verify_checksums = false;
  auto loaded = core::Flix::Load(path, *collection, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const NodeId start = collection->GlobalId(0, 0);
  EXPECT_EQ((*loaded)->FindDescendantsByName(start, "t0"),
            (*original)->FindDescendantsByName(start, "t0"));
}

TEST(PagedPersistenceTest, MappedLoadRejectsWrongCollection) {
  const auto collection = workload::GenerateSynthetic({.seed = 83});
  ASSERT_TRUE(collection.ok());
  auto original = core::Flix::Build(*collection, {});
  ASSERT_TRUE(original.ok());
  const std::string path = PagedTempPath("wrong_collection.flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());

  const auto other = workload::GenerateSynthetic({.seed = 84, .tree_docs = 2});
  ASSERT_TRUE(other.ok());
  const auto loaded = core::Flix::Load(path, *other);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// The adaptive ISS must work on a mapped instance: the migrator builds an
// ordinary heap index and publishes it over the mapped base; afterwards the
// instance re-saves cleanly over its own backing file (the temp-file+rename
// path — overwriting a live mapping in place would fault).
TEST(PagedPersistenceTest, AdaptiveMigrationOnMappedInstance) {
  const auto collection = workload::GenerateSynthetic({.seed = 97});
  ASSERT_TRUE(collection.ok());
  core::FlixOptions options;
  options.config = core::MdbConfig::kHybrid;
  options.partition_bound = 80;
  auto original = core::Flix::Build(*collection, options);
  ASSERT_TRUE(original.ok());

  const std::string path = PagedTempPath("adapt_mapped.flix");
  ASSERT_TRUE((*original)->Save(path, core::Flix::IndexFormat::kMapped).ok());
  auto loaded = core::Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  core::Flix& flix = **loaded;
  flix.SetAdaptiveIss(true);

  // Migrate the first partition that is not already HOPI (all-HOPI builds
  // fall back to an APEX migration) — proves ReplacePartitionIndex layers a
  // heap index over the mapped base.
  const core::MetaDocumentSet& set = flix.meta_documents();
  ASSERT_FALSE(set.docs.empty());
  core::Recommendation rec;
  rec.best = index::StrategyKind::kHopi;
  rec.migrate = true;
  rec.partition = 0;
  for (uint32_t p = 0; p < set.docs.size(); ++p) {
    if (set.docs[p].index.Acquire()->kind() != index::StrategyKind::kHopi) {
      rec.partition = p;
      break;
    }
  }
  if (set.docs[rec.partition].index.Acquire()->kind() ==
      index::StrategyKind::kHopi) {
    rec.best = index::StrategyKind::kApex;
  }
  rec.current = set.docs[rec.partition].index.Acquire()->kind();

  core::StrategyMigrator migrator(flix);
  ASSERT_TRUE(migrator.Migrate(rec).ok());
  EXPECT_EQ(set.docs[rec.partition].index.Acquire()->kind(), rec.best);

  // Queries still match the freshly built instance after the swap.
  ExpectSameAnswers(**original, flix, *collection);

  // Re-save over the live mapping, then reload the new file.
  ASSERT_TRUE(flix.Save(path, core::Flix::IndexFormat::kMapped).ok());
  auto reloaded = core::Flix::Load(path, *collection);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ((*reloaded)
                ->meta_documents()
                .docs[rec.partition]
                .index.Acquire()
                ->kind(),
            rec.best);
  ExpectSameAnswers(**original, **reloaded, *collection);
}

TEST(PagedPersistenceTest, PathLoadRejectsMissingAndGarbageFiles) {
  const auto collection = workload::GenerateSynthetic({.seed = 85});
  ASSERT_TRUE(collection.ok());
  EXPECT_FALSE(
      core::Flix::Load(PagedTempPath("nonexistent.flix"), *collection).ok());

  const std::string path = PagedTempPath("garbage_path.flix");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is not a flix index";
  }
  EXPECT_FALSE(core::Flix::Load(path, *collection).ok());
}

}  // namespace
}  // namespace flix
