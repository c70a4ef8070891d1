// Property test for PathIndex::NewReachCover: for every strategy and both
// directions, seeded random Add/Covers sequences over random forests, DAGs
// and cyclic graphs must answer exactly what the brute-force "any
// IsReachable" loop answers (and what BFS answers), and CoversSince must
// answer for the nodes added after a random prefix. HOPI's hub-union cover
// and PPO's interval cover are also run on LoadIndexSegment-mapped
// instances.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/traversal.h"
#include "graph/tree_utils.h"
#include "index/hopi.h"
#include "index/path_index.h"
#include "index/ppo.h"
#include "index/summary_index.h"
#include "index/transitive_closure.h"
#include "storage/segment.h"

namespace flix::index {
namespace {

enum class Family { kForest, kDag, kCyclic };

std::string FamilyName(Family family) {
  switch (family) {
    case Family::kForest: return "Forest";
    case Family::kDag: return "Dag";
    case Family::kCyclic: return "Cyclic";
  }
  return "?";
}

graph::Digraph MakeGraph(Family family, size_t n, uint64_t seed) {
  Rng rng(seed);
  graph::Digraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode(static_cast<TagId>(i % 3));
  switch (family) {
    case Family::kForest:
      for (NodeId i = 1; i < n; ++i) {
        if (rng.Bernoulli(0.85)) {
          g.AddEdge(static_cast<NodeId>(rng.Uniform(i)), i);
        }
      }
      break;
    case Family::kDag:
      for (size_t e = 0; e < 2 * n; ++e) {
        NodeId u = static_cast<NodeId>(rng.Uniform(n));
        NodeId v = static_cast<NodeId>(rng.Uniform(n));
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        g.AddEdge(u, v);
      }
      break;
    case Family::kCyclic:
      for (size_t e = 0; e < 2 * n; ++e) {
        g.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
                  static_cast<NodeId>(rng.Uniform(n)));
      }
      break;
  }
  return g;
}

std::unique_ptr<PathIndex> BuildIndex(StrategyKind kind,
                                      const graph::Digraph& g) {
  switch (kind) {
    case StrategyKind::kPpo: {
      auto built = PpoIndex::Build(g);
      return built.ok() ? std::move(built).value() : nullptr;
    }
    case StrategyKind::kHopi:
      return HopiIndex::Build(g);
    case StrategyKind::kApex:
      return SummaryIndex::BuildApex(g);
    case StrategyKind::kTransitiveClosure: {
      auto built = TransitiveClosureIndex::Build(g);
      return built.ok() ? std::move(built).value() : nullptr;
    }
    case StrategyKind::kSummary:
      return SummaryIndex::BuildFb(g);
  }
  return nullptr;
}

// Runs `steps` random operations against a fresh cover in each direction.
// About a third of the steps add a node; the rest ask Covers and compare
// with the pairwise IsReachable loop and with BFS. Covering an added node
// itself is asked for explicitly now and then (every node reaches itself).
void CheckCovers(const PathIndex& index, const graph::Digraph& g,
                 uint64_t seed, size_t steps) {
  const size_t n = g.NumNodes();
  // reach[u][v]: BFS reachability, u reaches itself.
  const graph::ReachabilityOracle oracle(g);
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (NodeId u = 0; u < n; ++u) {
    reach[u][u] = true;
    for (const NodeDist& nd : oracle.Descendants(u)) {
      reach[u][nd.node] = true;
    }
  }
  for (const bool forward : {true, false}) {
    SCOPED_TRACE(forward ? "forward" : "backward");
    Rng rng(seed * 31 + (forward ? 1 : 2));
    const std::unique_ptr<ReachCover> cover = index.NewReachCover(forward);
    ASSERT_NE(cover, nullptr);
    std::vector<NodeId> added;
    size_t hits = 0;
    for (size_t step = 0; step < steps; ++step) {
      if (rng.Bernoulli(0.3)) {
        const NodeId p = static_cast<NodeId>(rng.Uniform(n));
        cover->Add(p);
        added.push_back(p);
        continue;
      }
      const NodeId x = !added.empty() && rng.Bernoulli(0.1)
                           ? added[rng.Uniform(added.size())]
                           : static_cast<NodeId>(rng.Uniform(n));
      bool any_index = false;
      bool any_bfs = false;
      for (const NodeId p : added) {
        any_index |= forward ? index.IsReachable(p, x) : index.IsReachable(x, p);
        any_bfs |= forward ? reach[p][x] : reach[x][p];
      }
      ASSERT_EQ(any_index, any_bfs) << "IsReachable disagrees with BFS";
      const size_t before = cover->probes();
      ASSERT_EQ(cover->Covers(x), any_index)
          << "x=" << x << " after " << added.size() << " adds, step " << step;
      const size_t spent = cover->probes() - before;
      // Pairwise covers spend one probe per IsReachable call (at most one
      // per added node); the index-native covers (HOPI's hub union, PPO's
      // intervals) spend one per lookup.
      if (index.kind() == StrategyKind::kHopi ||
          index.kind() == StrategyKind::kPpo) {
        EXPECT_EQ(spent, 1u);
      } else {
        EXPECT_LE(spent, added.size());
      }
      hits += any_index ? 1 : 0;

      // CoversSince: the pairwise cover tests only the nodes added after
      // the first `since` (on a miss, each of them exactly once); the
      // index-native covers cannot tell added nodes apart and answer
      // Covers. Either way, when none of the first `since` covers x, the
      // answer is Covers(x): what the PEE's pop-time re-test relies on.
      const size_t since = rng.Uniform(added.size() + 1);
      bool any_prefix = false;
      bool any_suffix = false;
      for (size_t i = 0; i < added.size(); ++i) {
        const NodeId p = added[i];
        const bool reaches = forward ? reach[p][x] : reach[x][p];
        (i < since ? any_prefix : any_suffix) |= reaches;
      }
      const size_t before_since = cover->probes();
      const bool since_answer = cover->CoversSince(x, since);
      const size_t since_spent = cover->probes() - before_since;
      if (index.kind() == StrategyKind::kHopi ||
          index.kind() == StrategyKind::kPpo) {
        ASSERT_EQ(since_answer, any_index) << "x=" << x << " since " << since;
        EXPECT_EQ(since_spent, 1u);
      } else {
        ASSERT_EQ(since_answer, any_suffix) << "x=" << x << " since " << since;
        if (!any_suffix) {
          EXPECT_EQ(since_spent, added.size() - since);
        } else {
          EXPECT_LE(since_spent, added.size() - since);
        }
      }
      if (!any_prefix) {
        ASSERT_EQ(since_answer, any_index);
      }
    }
    // The sequences must exercise both answers to mean anything.
    EXPECT_GT(hits, 0u);
  }
}

struct Params {
  StrategyKind strategy;
  Family family;
  size_t nodes;
  uint64_t seed;
};

class ReachCoverTest : public ::testing::TestWithParam<Params> {};

TEST_P(ReachCoverTest, MatchesPairwiseIsReachable) {
  const Params& p = GetParam();
  const graph::Digraph g = MakeGraph(p.family, p.nodes, p.seed);
  ASSERT_TRUE(p.strategy != StrategyKind::kPpo || graph::IsForest(g));
  const std::unique_ptr<PathIndex> index = BuildIndex(p.strategy, g);
  ASSERT_NE(index, nullptr);
  CheckCovers(*index, g, p.seed, 3 * p.nodes);
}

std::vector<Params> MakeAllParams() {
  std::vector<Params> params;
  const StrategyKind strategies[] = {
      StrategyKind::kPpo, StrategyKind::kHopi, StrategyKind::kApex,
      StrategyKind::kTransitiveClosure, StrategyKind::kSummary};
  for (const StrategyKind s : strategies) {
    for (const Family f : {Family::kForest, Family::kDag, Family::kCyclic}) {
      // PPO indexes forests only.
      if (s == StrategyKind::kPpo && f != Family::kForest) continue;
      for (const size_t n : {24, 150}) {
        for (const uint64_t seed : {1, 2, 3}) {
          params.push_back({s, f, n, seed});
        }
      }
    }
  }
  return params;
}

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  return std::string(StrategyName(p.strategy)) + "_" + FamilyName(p.family) +
         "_n" + std::to_string(p.nodes) + "_s" + std::to_string(p.seed);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ReachCoverTest,
                         ::testing::ValuesIn(MakeAllParams()), ParamName);

// The hub-union cover reads the labels through the same FlatRows accessors
// in both storage modes; run it on a zero-copy instance mapped from a
// saved segment too.
TEST(HopiReachCoverTest, MappedMatchesPairwiseIsReachable) {
  for (const Family family : {Family::kDag, Family::kCyclic}) {
    for (const uint64_t seed : {4, 5}) {
      SCOPED_TRACE(FamilyName(family) + " seed " + std::to_string(seed));
      const graph::Digraph g = MakeGraph(family, 150, seed);
      const std::unique_ptr<HopiIndex> built = HopiIndex::Build(g);
      storage::SegmentWriter seg;
      SaveIndexSegment(*built, seg);
      const std::vector<std::byte> payload = seg.Finish();
      const auto view = storage::SegmentView::Parse(payload);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      auto mapped = LoadIndexSegment(*view, StrategyKind::kHopi, g);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      CheckCovers(**mapped, g, seed, 450);
    }
  }
}

// The interval cover reads pre/size/parent views of a mapped segment.
TEST(PpoReachCoverTest, MappedMatchesPairwiseIsReachable) {
  for (const uint64_t seed : {4, 5}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Digraph g = MakeGraph(Family::kForest, 150, seed);
    auto built = PpoIndex::Build(g);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    storage::SegmentWriter seg;
    SaveIndexSegment(**built, seg);
    const std::vector<std::byte> payload = seg.Finish();
    const auto view = storage::SegmentView::Parse(payload);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    auto mapped = LoadIndexSegment(*view, StrategyKind::kPpo, g);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    CheckCovers(**mapped, g, seed, 450);
  }
}

}  // namespace
}  // namespace flix::index
