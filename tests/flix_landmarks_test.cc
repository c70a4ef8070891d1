#include "flix/landmarks.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <set>
#include <vector>
#include <thread>

#include "flix/flix.h"
#include "flix/mdb.h"
#include "graph/traversal.h"
#include "workload/synthetic_generator.h"
#include "xml/collection.h"

namespace flix::core {
namespace {

// Same shape as flix_pee_test's chained collection: three documents whose
// links form a cycle, so partition_bound=4 forces a >= 3-partition chain
// and every cross-partition query hops at least one super edge.
xml::Collection ChainedCollection() {
  xml::Collection c;
  EXPECT_TRUE(c.AddXml("<a><b/><link href=\"d1\"/></a>", "d0").ok());
  EXPECT_TRUE(c.AddXml("<a><b><link href=\"d2#mid\"/></b></a>", "d1").ok());
  EXPECT_TRUE(c.AddXml(
      R"(<a><c id="mid"><b/></c><link href="d0"/></a>)", "d2").ok());
  c.ResolveAllLinks();
  return c;
}

std::unique_ptr<Flix> MustBuild(const xml::Collection& c, MdbConfig config,
                                size_t partition_bound,
                                size_t landmark_count) {
  FlixOptions options;
  options.config = config;
  options.partition_bound = partition_bound;
  options.landmark_count = landmark_count;
  auto flix = Flix::Build(c, options);
  EXPECT_TRUE(flix.ok()) << flix.status().ToString();
  return std::move(*flix);
}

class LandmarkConfigTest : public ::testing::TestWithParam<MdbConfig> {};

// The central guarantee: with the cache resident, every point query
// returns byte-identical answers to the blind walk, which in turn matches
// the BFS oracle — including a == b, unreachable pairs, and max_distance
// exactly at / one below the true distance.
TEST_P(LandmarkConfigTest, GuidedMatchesBlindAndOracle) {
  const auto collection = workload::GenerateSynthetic({.seed = 42});
  ASSERT_TRUE(collection.ok());
  auto flix = MustBuild(*collection, GetParam(), 60, 8);
  ASSERT_NE(flix->meta_documents().landmarks.Snapshot(), nullptr);

  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); a += 29) {
    for (NodeId b = 0; b < g.NumNodes(); b += 31) {
      const Distance truth = oracle.Distance(a, b);
      flix->SetLandmarksEnabled(false);
      const Distance blind = flix->FindDistance(a, b);
      flix->SetLandmarksEnabled(true);
      const Distance guided = flix->FindDistance(a, b);
      EXPECT_EQ(guided, blind) << a << "->" << b;
      EXPECT_EQ(guided, truth) << a << "->" << b;
      if (truth != kUnreachable && truth > 0) {
        // A budget exactly at the true distance keeps the answer; one
        // below it must report unreachable — in both modes.
        EXPECT_EQ(flix->FindDistance(a, b, truth), truth);
        EXPECT_EQ(flix->FindDistance(a, b, truth - 1), kUnreachable);
        flix->SetLandmarksEnabled(false);
        EXPECT_EQ(flix->FindDistance(a, b, truth), truth);
        EXPECT_EQ(flix->FindDistance(a, b, truth - 1), kUnreachable);
        flix->SetLandmarksEnabled(true);
      }
      EXPECT_EQ(flix->IsConnected(a, b), truth != kUnreachable);
      EXPECT_EQ(flix->pee().IsConnectedBidirectional(a, b),
                truth != kUnreachable);
    }
    EXPECT_EQ(flix->FindDistance(a, a), 0);
  }
}

TEST_P(LandmarkConfigTest, MultiPartitionChain) {
  const xml::Collection c = ChainedCollection();
  auto flix = MustBuild(c, GetParam(), 4, 8);
  // The per-document configs must split this into a >= 3-partition chain;
  // the merging configs may legally fuse it (the differential check below
  // still runs — it just exercises the local path there).
  if (GetParam() == MdbConfig::kNaive ||
      GetParam() == MdbConfig::kUnconnectedHopi) {
    ASSERT_GE(flix->meta_documents().docs.size(), 3u);
  }
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      EXPECT_EQ(flix->FindDistance(a, b), oracle.Distance(a, b))
          << a << "->" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, LandmarkConfigTest,
    ::testing::Values(MdbConfig::kNaive, MdbConfig::kMaximalPpo,
                      MdbConfig::kUnconnectedHopi, MdbConfig::kHybrid),
    [](const ::testing::TestParamInfo<MdbConfig>& info) {
      return std::string(MdbConfigName(info.param));
    });

// h(n, g) never overstates the true distance, and unreachability proofs
// never fire for reachable pairs — the two properties the A* rewrite rests
// on, checked directly against the BFS oracle.
TEST(LandmarkCacheTest, BoundsAreAdmissible) {
  const auto collection = workload::GenerateSynthetic({.seed = 77});
  ASSERT_TRUE(collection.ok());
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 60, 12);
  const std::shared_ptr<const LandmarkCache> cache =
      flix->meta_documents().landmarks.Snapshot();
  ASSERT_NE(cache, nullptr);
  EXPECT_FALSE(cache->empty());

  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId goal = 0; goal < g.NumNodes(); goal += 53) {
    const LandmarkCache::GoalView view = cache->Goal(goal);
    for (NodeId n = 0; n < g.NumNodes(); n += 17) {
      const Distance truth = oracle.Distance(n, goal);
      if (truth == kUnreachable) continue;
      EXPECT_LE(cache->LowerBound(n, view), truth) << n << "->" << goal;
      EXPECT_FALSE(cache->ProvablyUnreachable(n, view)) << n << "->" << goal;
    }
  }
  EXPECT_TRUE(cache->Validate(g, 32, /*seed=*/1).ok());
}

TEST(LandmarkCacheTest, ValidateCatchesFlippedDistance) {
  const auto collection = workload::GenerateSynthetic({.seed = 19});
  ASSERT_TRUE(collection.ok());
  const graph::Digraph g = collection->BuildGraph();
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 60, 4);
  const std::shared_ptr<const LandmarkCache> cache =
      flix->meta_documents().landmarks.Snapshot();
  ASSERT_NE(cache, nullptr);

  storage::SegmentWriter seg;
  cache->AppendArrays(seg);
  std::vector<std::byte> payload = seg.Finish();
  const auto view = storage::SegmentView::Parse(payload);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  StatusOr<LandmarkCache> loaded =
      LandmarkCache::FromSegment(*view, cache->num_nodes());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The loaded cache borrows `payload`. Flipping the high byte of the last
  // from-landmark distance damages one row without breaking the shape.
  const NodeId last = static_cast<NodeId>(loaded->num_nodes() - 1);
  const auto* entry =
      reinterpret_cast<const std::byte*>(&loaded->Goal(last).from_land.back());
  payload[static_cast<size_t>(entry - payload.data()) + 1] ^= std::byte{0x2b};
  // Full sweep (sample >= nodes) must notice the flip.
  EXPECT_FALSE(loaded->Validate(g, g.NumNodes(), /*seed=*/1).ok());
}

TEST(LandmarkPersistenceTest, MappedRoundTrip) {
  const auto collection = workload::GenerateSynthetic({.seed = 62});
  ASSERT_TRUE(collection.ok());
  auto original = MustBuild(*collection, MdbConfig::kHybrid, 60, 8);
  const auto before = original->meta_documents().landmarks.Snapshot();
  ASSERT_NE(before, nullptr);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "landmarks.flix")
          .string();
  ASSERT_TRUE(original->Save(path, Flix::IndexFormat::kMapped).ok());
  auto loaded = Flix::Load(path, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const auto after = (*loaded)->meta_documents().landmarks.Snapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->num_landmarks(), before->num_landmarks());
  EXPECT_EQ(after->generation(), before->generation());
  EXPECT_EQ(std::vector<NodeId>(after->landmarks().begin(),
                                after->landmarks().end()),
            std::vector<NodeId>(before->landmarks().begin(),
                                before->landmarks().end()));
  EXPECT_TRUE(after->Validate(collection->BuildGraph(), 32, 1).ok());
  EXPECT_EQ((*loaded)->options().landmark_count, 8u);

  // Same answers out of the mapped cache.
  const graph::Digraph g = collection->BuildGraph();
  for (NodeId a = 0; a < g.NumNodes(); a += 37) {
    for (NodeId b = 0; b < g.NumNodes(); b += 41) {
      EXPECT_EQ((*loaded)->FindDistance(a, b), original->FindDistance(a, b));
    }
  }
}

TEST(LandmarkLifecycleTest, CountZeroDisablesTheCache) {
  const auto collection = workload::GenerateSynthetic({.seed = 63});
  ASSERT_TRUE(collection.ok());
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 60, 0);
  EXPECT_EQ(flix->meta_documents().landmarks.Snapshot(), nullptr);
  // Point queries still answer, blind.
  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); a += 43) {
    for (NodeId b = 0; b < g.NumNodes(); b += 47) {
      EXPECT_EQ(flix->FindDistance(a, b), oracle.Distance(a, b));
    }
  }
}

TEST(LandmarkLifecycleTest, RebuildBumpsGeneration) {
  const auto collection = workload::GenerateSynthetic({.seed = 64});
  ASSERT_TRUE(collection.ok());
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 60, 8);
  const uint64_t before =
      flix->meta_documents().landmarks.Snapshot()->generation();
  flix->RebuildLandmarks();
  EXPECT_EQ(flix->meta_documents().landmarks.Snapshot()->generation(),
            before + 1);
}

TEST(LandmarkRefresherTest, RunOnceAndBackgroundCadence) {
  const auto collection = workload::GenerateSynthetic({.seed = 65});
  ASSERT_TRUE(collection.ok());
  const graph::Digraph g = collection->BuildGraph();
  const std::vector<uint32_t> doc_of = collection->DocOfNode();
  std::vector<NodeId> doc_roots(collection->NumDocuments());
  for (DocId d = 0; d < collection->NumDocuments(); ++d) {
    doc_roots[d] = collection->GlobalId(d, 0);
  }
  MdbInput input;
  input.graph = &g;
  input.doc_of = &doc_of;
  input.doc_roots = &doc_roots;
  FlixOptions options;
  options.config = MdbConfig::kHybrid;
  options.partition_bound = 60;
  MetaDocumentSet set = BuildMetaDocuments(input, options);
  ASSERT_EQ(set.landmarks.Snapshot(), nullptr);

  size_t hook_calls = 0;
  LandmarkRefresher::Options refresher_options;
  refresher_options.landmark_count = 6;
  refresher_options.replacement_hook = [&](LandmarkCache&) { ++hook_calls; };
  LandmarkRefresher refresher(*collection, set, refresher_options);

  EXPECT_EQ(refresher.RunOnce(), 0u);  // no readers in flight
  ASSERT_NE(set.landmarks.Snapshot(), nullptr);
  EXPECT_EQ(set.landmarks.Snapshot()->generation(), 1u);
  EXPECT_EQ(set.landmarks.Snapshot()->num_landmarks(), 6u);
  EXPECT_EQ(hook_calls, 1u);

  refresher.RunOnce();
  EXPECT_EQ(set.landmarks.Snapshot()->generation(), 2u);

  refresher.Start(std::chrono::milliseconds(1));
  const uint64_t base = set.landmarks.Snapshot()->generation();
  for (int i = 0; i < 200; ++i) {
    if (set.landmarks.Snapshot()->generation() > base) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  refresher.Stop();
  EXPECT_GT(set.landmarks.Snapshot()->generation(), base);
  EXPECT_TRUE(set.landmarks.Snapshot()->Validate(g, 16, 1).ok());
}

TEST(LandmarkSelectionTest, DeterministicAndSpread) {
  const auto collection = workload::GenerateSynthetic({.seed = 66});
  ASSERT_TRUE(collection.ok());
  const graph::Digraph g = collection->BuildGraph();
  auto flix = MustBuild(*collection, MdbConfig::kHybrid, 40, 8);
  const auto& set = flix->meta_documents();
  const LandmarkCache first = LandmarkCache::Build(g, set, 8);
  const LandmarkCache second = LandmarkCache::Build(g, set, 8);
  ASSERT_EQ(first.num_landmarks(), second.num_landmarks());
  EXPECT_EQ(std::vector<NodeId>(first.landmarks().begin(),
                                first.landmarks().end()),
            std::vector<NodeId>(second.landmarks().begin(),
                                second.landmarks().end()));
  // One landmark per partition at most: farthest-point seeding never
  // revisits a partition it already covered.
  std::set<uint32_t> partitions;
  for (const NodeId l : first.landmarks()) {
    EXPECT_TRUE(partitions.insert(set.meta_of_node[l]).second);
  }
}

}  // namespace
}  // namespace flix::core
