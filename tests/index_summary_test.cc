// Tests for the structure-summary index and its presets: APEX (the
// 1-index), A(k), F&B (forward+backward bisimulation) and D(k)
// (workload-adaptive refinement depth).
#include "index/summary_index.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "graph/traversal.h"
#include "storage/segment.h"

namespace flix::index {
namespace {

graph::Digraph RandomGraph(size_t n, size_t edges, uint64_t seed,
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

// Two structures with identical incoming paths but different outgoing
// structure: a(0) -> b(1) -> c(2)  and  a(3) -> b(4)   (b4 has no child).
graph::Digraph ForwardAsymmetric() {
  graph::Digraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(2);
  g.AddNode(0);
  g.AddNode(1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(3, 4);
  return g;
}

TEST(ApexTest, SummaryGroupsBisimilarNodes) {
  // Two identical subtrees: root(a) -> {b -> c, b -> c}. The two b nodes
  // (and the two c nodes) have identical incoming paths and must share a
  // block.
  graph::Digraph g;
  g.AddNode(0);              // 0: a
  g.AddNode(1);              // 1: b
  g.AddNode(2);              // 2: c
  g.AddNode(1);              // 3: b
  g.AddNode(2);              // 4: c
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 3);
  g.AddEdge(3, 4);
  const auto apex = SummaryIndex::BuildApex(g);
  EXPECT_EQ(apex->BlockOf(1), apex->BlockOf(3));
  EXPECT_EQ(apex->BlockOf(2), apex->BlockOf(4));
  EXPECT_NE(apex->BlockOf(0), apex->BlockOf(1));
  EXPECT_EQ(apex->NumBlocks(), 3u);
}

TEST(ApexTest, DifferentIncomingPathsSplitBlocks) {
  // c under a/b vs c under a: same tag, different incoming paths.
  graph::Digraph g;
  g.AddNode(0);  // a
  g.AddNode(1);  // b
  g.AddNode(2);  // c (under b)
  g.AddNode(2);  // c (under a)
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 3);
  const auto apex = SummaryIndex::BuildApex(g);
  EXPECT_NE(apex->BlockOf(2), apex->BlockOf(3));
}

TEST(ApexTest, AkIndexCoarserThanFixpoint) {
  // With zero refinement rounds the summary is the tag partition.
  graph::Digraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(2);
  g.AddNode(2);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 3);
  SummaryOptions options;
  options.max_rounds = 0;
  const auto apex = SummaryIndex::Build(g, options);
  EXPECT_EQ(apex->NumBlocks(), 3u);  // tags 0, 1, 2
  EXPECT_EQ(apex->BlockOf(2), apex->BlockOf(3));
}

TEST(ApexTest, ExtentsPartitionTheNodes) {
  const graph::Digraph g = RandomGraph(60, 120, 61);
  const auto apex = SummaryIndex::BuildApex(g);
  std::vector<bool> seen(60, false);
  for (uint32_t b = 0; b < apex->NumBlocks(); ++b) {
    for (const NodeId v : apex->Extent(b)) {
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
      EXPECT_EQ(apex->BlockOf(v), b);
    }
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(ApexTest, DescendantsMatchOracle) {
  const graph::Digraph g = RandomGraph(70, 150, 67);
  const auto apex = SummaryIndex::BuildApex(g);
  const graph::ReachabilityOracle oracle(g);
  for (NodeId start = 0; start < 70; start += 6) {
    EXPECT_EQ(apex->Descendants(start), oracle.Descendants(start));
    for (TagId tag = 0; tag < 4; ++tag) {
      EXPECT_EQ(apex->DescendantsByTag(start, tag),
                oracle.DescendantsByTag(start, tag));
    }
  }
}

TEST(ApexTest, AncestorsMatchOracle) {
  const graph::Digraph g = RandomGraph(50, 110, 71);
  const auto apex = SummaryIndex::BuildApex(g);
  const graph::ReachabilityOracle oracle(g);
  for (NodeId start = 0; start < 50; start += 4) {
    for (TagId tag = 0; tag < 4; ++tag) {
      EXPECT_EQ(apex->AncestorsByTag(start, tag),
                oracle.AncestorsByTag(start, tag));
    }
  }
}

TEST(ApexTest, DistancesMatchOracle) {
  const graph::Digraph g = RandomGraph(40, 90, 73);
  const auto apex = SummaryIndex::BuildApex(g);
  const graph::ReachabilityOracle oracle(g);
  for (NodeId u = 0; u < 40; u += 3) {
    for (NodeId v = 0; v < 40; v += 5) {
      EXPECT_EQ(apex->DistanceBetween(u, v), oracle.Distance(u, v));
    }
  }
}

TEST(ApexTest, WorksWithoutBlockClosure) {
  // The kSummary presets store no block closure, so their point lookups
  // take the shared tag-pruned path; Build(g) has APEX's partition.
  const graph::Digraph g = RandomGraph(40, 90, 79);
  const graph::ReachabilityOracle oracle(g);
  for (const auto& summary :
       {SummaryIndex::Build(g), SummaryIndex::BuildFb(g),
        SummaryIndex::BuildDk(g, {{0, 1}})}) {
    for (NodeId u = 0; u < 40; u += 7) {
      for (NodeId v = 0; v < 40; v += 6) {
        EXPECT_EQ(summary->IsReachable(u, v), oracle.IsReachable(u, v));
        EXPECT_EQ(summary->DistanceBetween(u, v), oracle.Distance(u, v));
      }
      EXPECT_EQ(summary->Descendants(u), oracle.Descendants(u));
    }
  }
}

TEST(ApexTest, CyclicDataHandled) {
  graph::Digraph g;
  g.AddNode(0);
  g.AddNode(1);
  g.AddNode(1);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 1);  // cycle between the two tag-1 nodes
  const auto apex = SummaryIndex::BuildApex(g);
  EXPECT_TRUE(apex->IsReachable(0, 2));
  EXPECT_EQ(apex->DistanceBetween(0, 2), 2);
  EXPECT_EQ(apex->DescendantsByTag(1, 1).size(), 1u);
}

TEST(ApexTest, SummaryMuchSmallerThanDataOnRegularStructure) {
  // 50 identical small trees: the summary collapses them all.
  graph::Digraph g;
  for (int t = 0; t < 50; ++t) {
    const NodeId root = g.AddNode(0);
    const NodeId mid = g.AddNode(1);
    const NodeId leaf = g.AddNode(2);
    g.AddEdge(root, mid);
    g.AddEdge(mid, leaf);
  }
  const auto apex = SummaryIndex::BuildApex(g);
  EXPECT_EQ(apex->NumBlocks(), 3u);
  EXPECT_EQ(apex->Extent(apex->BlockOf(0)).size(), 50u);
}

TEST(ApexTest, PresetHasTheDefaultSummaryPartition) {
  // APEX is the 1-index: Build(g) with default options refines backward to
  // the same fixpoint and numbers blocks the same way.
  for (const uint64_t seed : {61u, 79u, 107u}) {
    const graph::Digraph g = RandomGraph(80, 170, seed);
    const auto apex = SummaryIndex::BuildApex(g);
    const auto summary = SummaryIndex::Build(g);
    EXPECT_EQ(apex->kind(), StrategyKind::kApex);
    EXPECT_EQ(summary->kind(), StrategyKind::kSummary);
    ASSERT_EQ(apex->NumBlocks(), summary->NumBlocks());
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      EXPECT_EQ(apex->BlockOf(v), summary->BlockOf(v)) << v;
    }
    EXPECT_TRUE(apex->Validate(g).ok());
    EXPECT_TRUE(summary->Validate(g).ok());
  }
}

TEST(FbIndexTest, ForwardRefinementSplitsWhatBackwardCannot) {
  const graph::Digraph g = ForwardAsymmetric();
  // Backward-only (1-index / APEX): the two b nodes share a block (same
  // incoming label path a/b).
  const auto backward = SummaryIndex::BuildApex(g);
  EXPECT_EQ(backward->BlockOf(1), backward->BlockOf(4));
  // F&B: they differ (one has a c child, the other does not).
  const auto fb = SummaryIndex::BuildFb(g);
  EXPECT_NE(fb->BlockOf(1), fb->BlockOf(4));
  // The a parents consequently split too.
  EXPECT_NE(fb->BlockOf(0), fb->BlockOf(3));
}

TEST(FbIndexTest, SymmetricStructuresShareBlocks) {
  // Two fully identical subtrees must collapse even under F&B.
  graph::Digraph g;
  for (int t = 0; t < 2; ++t) {
    const NodeId root = g.AddNode(0);
    const NodeId mid = g.AddNode(1);
    const NodeId leaf = g.AddNode(2);
    g.AddEdge(root, mid);
    g.AddEdge(mid, leaf);
  }
  const auto fb = SummaryIndex::BuildFb(g);
  EXPECT_EQ(fb->NumBlocks(), 3u);
  EXPECT_EQ(fb->BlockOf(0), fb->BlockOf(3));
  EXPECT_EQ(fb->BlockOf(1), fb->BlockOf(4));
  EXPECT_EQ(fb->BlockOf(2), fb->BlockOf(5));
}

TEST(FbIndexTest, AtLeastAsFineAsBackwardBisimulation) {
  const graph::Digraph g = RandomGraph(60, 130, 91);
  const auto apex = SummaryIndex::BuildApex(g);
  const auto fb = SummaryIndex::BuildFb(g);
  EXPECT_GE(fb->NumBlocks(), apex->NumBlocks());
  // F&B must refine the backward partition: two nodes in one F&B block are
  // always in one backward block.
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    for (NodeId v = u + 1; v < g.NumNodes(); ++v) {
      if (fb->BlockOf(u) == fb->BlockOf(v)) {
        EXPECT_EQ(apex->BlockOf(u), apex->BlockOf(v))
            << u << " vs " << v;
      }
    }
  }
}

TEST(FbIndexTest, QueriesMatchOracle) {
  const graph::Digraph g = RandomGraph(70, 150, 93);
  const auto fb = SummaryIndex::BuildFb(g);
  const graph::ReachabilityOracle oracle(g);
  for (NodeId start = 0; start < 70; start += 6) {
    EXPECT_EQ(fb->Descendants(start), oracle.Descendants(start));
    for (TagId tag = 0; tag < 4; ++tag) {
      EXPECT_EQ(fb->DescendantsByTag(start, tag),
                oracle.DescendantsByTag(start, tag));
      EXPECT_EQ(fb->AncestorsByTag(start, tag),
                oracle.AncestorsByTag(start, tag));
    }
  }
}

TEST(DkIndexTest, WorkloadDepthControlsRefinement) {
  // doc(0) -> a(1) -> b(2); doc(0) -> c(3) -> b(4): the two b nodes differ
  // at 2-bisimilarity (different grandparents... actually parents a vs c).
  graph::Digraph g;
  g.AddNode(0);  // doc
  g.AddNode(1);  // a
  g.AddNode(2);  // b under a
  g.AddNode(3);  // c
  g.AddNode(2);  // b under c
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 3);
  g.AddEdge(3, 4);

  // Workload touching b at depth >= 1 forces the split.
  const auto deep = SummaryIndex::BuildDk(g, {{0, 1, 2}});
  EXPECT_NE(deep->BlockOf(2), deep->BlockOf(4));

  // A workload that never exercises paths into b keeps the tag partition
  // for b (both b nodes in one block).
  const auto shallow = SummaryIndex::BuildDk(g, {{0}});
  EXPECT_EQ(shallow->BlockOf(2), shallow->BlockOf(4));
  EXPECT_LE(shallow->NumBlocks(), deep->NumBlocks());
}

TEST(DkIndexTest, QueriesExactRegardlessOfDepth) {
  // Pruning with a coarse summary must stay sound: results always match the
  // oracle, whatever the workload says.
  const graph::Digraph g = RandomGraph(50, 110, 97);
  const graph::ReachabilityOracle oracle(g);
  for (const auto& workload :
       {std::vector<std::vector<TagId>>{}, {{0}}, {{0, 1}, {2, 3, 1}}}) {
    const auto dk = SummaryIndex::BuildDk(g, workload);
    for (NodeId start = 0; start < 50; start += 7) {
      for (TagId tag = 0; tag < 4; ++tag) {
        EXPECT_EQ(dk->DescendantsByTag(start, tag),
                  oracle.DescendantsByTag(start, tag));
      }
      EXPECT_EQ(dk->Descendants(start), oracle.Descendants(start));
    }
  }
}

TEST(DkIndexTest, CoarserThanFullBisimulation) {
  const graph::Digraph g = RandomGraph(80, 170, 101);
  const auto full = SummaryIndex::BuildApex(g);  // fixpoint
  const auto dk = SummaryIndex::BuildDk(g, {{0, 1}});  // shallow workload
  EXPECT_LE(dk->NumBlocks(), full->NumBlocks());
}

TEST(SummaryIndexTest, PersistenceRoundTrip) {
  const graph::Digraph g = RandomGraph(40, 90, 103);
  const auto original = SummaryIndex::BuildFb(g);

  storage::SegmentWriter seg;
  SaveIndexSegment(*original, seg);
  const std::vector<std::byte> payload = seg.Finish();
  const auto view = storage::SegmentView::Parse(payload);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  auto loaded = LoadIndexSegment(*view, StrategyKind::kSummary, g);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->kind(), StrategyKind::kSummary);
  for (NodeId u = 0; u < g.NumNodes(); u += 5) {
    EXPECT_EQ((*loaded)->Descendants(u), original->Descendants(u));
    for (TagId tag = 0; tag < 4; ++tag) {
      EXPECT_EQ((*loaded)->AncestorsByTag(u, tag),
                original->AncestorsByTag(u, tag));
    }
  }
}

TEST(SummaryIndexTest, NameRegistered) {
  EXPECT_EQ(StrategyName(StrategyKind::kSummary), "SUMMARY");
}

}  // namespace
}  // namespace flix::index
