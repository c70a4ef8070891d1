// Property tests: every path indexing strategy must agree with the BFS
// oracle on every query type, across a sweep of graph families, sizes,
// densities and seeds (TEST_P over strategy x graph family).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "graph/traversal.h"
#include "graph/tree_utils.h"
#include "index/hopi.h"
#include "index/path_index.h"
#include "index/ppo.h"
#include "index/summary_index.h"
#include "index/transitive_closure.h"

namespace flix::index {
namespace {

enum class GraphFamily {
  kForest,       // random forest (all strategies, incl. PPO)
  kDag,          // random DAG
  kCyclic,       // random digraph with cycles
  kLinkedDocs,   // small trees joined by random link edges
};

std::string FamilyName(GraphFamily family) {
  switch (family) {
    case GraphFamily::kForest: return "Forest";
    case GraphFamily::kDag: return "Dag";
    case GraphFamily::kCyclic: return "Cyclic";
    case GraphFamily::kLinkedDocs: return "LinkedDocs";
  }
  return "?";
}

graph::Digraph MakeGraph(GraphFamily family, size_t n, uint64_t seed) {
  Rng rng(seed);
  graph::Digraph g;
  constexpr size_t kTags = 5;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<TagId>(rng.Uniform(kTags)));
  }
  switch (family) {
    case GraphFamily::kForest:
      for (NodeId i = 1; i < n; ++i) {
        if (rng.Bernoulli(0.85)) {
          g.AddEdge(static_cast<NodeId>(rng.Uniform(i)), i);
        }
      }
      break;
    case GraphFamily::kDag:
      for (size_t e = 0; e < 2 * n; ++e) {
        NodeId u = static_cast<NodeId>(rng.Uniform(n));
        NodeId v = static_cast<NodeId>(rng.Uniform(n));
        if (u == v) continue;
        if (u > v) std::swap(u, v);
        g.AddEdge(u, v);
      }
      break;
    case GraphFamily::kCyclic:
      for (size_t e = 0; e < 2 * n; ++e) {
        g.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
                  static_cast<NodeId>(rng.Uniform(n)));
      }
      break;
    case GraphFamily::kLinkedDocs: {
      // Trees of ~8 nodes plus n/4 random link edges.
      const size_t doc = 8;
      for (NodeId i = 0; i < n; ++i) {
        if (i % doc != 0) {
          const NodeId base = i - (i % doc);
          g.AddEdge(base + static_cast<NodeId>(rng.Uniform(i % doc)), i,
                    graph::EdgeKind::kTree);
        }
      }
      for (size_t e = 0; e < n / 4; ++e) {
        g.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
                  static_cast<NodeId>(rng.Uniform(n)),
                  graph::EdgeKind::kLink);
      }
      break;
    }
  }
  return g;
}

struct Params {
  StrategyKind strategy;
  GraphFamily family;
  size_t nodes;
  uint64_t seed;
};

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
      // The F&B variant is the strongest summary; D(k) is covered by the
      // dedicated summary-index tests.
      return SummaryIndex::BuildFb(g);
  }
  return nullptr;
}

class IndexPropertyTest : public ::testing::TestWithParam<Params> {};

TEST_P(IndexPropertyTest, AgreesWithOracle) {
  const Params& p = GetParam();
  const graph::Digraph g = MakeGraph(p.family, p.nodes, p.seed);
  if (p.strategy == StrategyKind::kPpo && !graph::IsForest(g)) {
    GTEST_SKIP() << "PPO only applies to forests";
  }
  const std::unique_ptr<PathIndex> index = BuildIndex(p.strategy, g);
  ASSERT_NE(index, nullptr);
  const graph::ReachabilityOracle oracle(g);

  const size_t step = std::max<size_t>(1, p.nodes / 12);
  for (NodeId start = 0; start < p.nodes; start += step) {
    // Wildcard and tag-filtered descendants: exact match including order.
    EXPECT_EQ(index->Descendants(start), oracle.Descendants(start))
        << "descendants from " << start;
    for (TagId tag = 0; tag < 5; ++tag) {
      EXPECT_EQ(index->DescendantsByTag(start, tag),
                oracle.DescendantsByTag(start, tag))
          << "start " << start << " tag " << tag;
      EXPECT_EQ(index->AncestorsByTag(start, tag),
                oracle.AncestorsByTag(start, tag))
          << "ancestors of " << start << " tag " << tag;
    }
    // Point queries.
    for (NodeId target = 0; target < p.nodes; target += step + 1) {
      EXPECT_EQ(index->DistanceBetween(start, target),
                oracle.Distance(start, target))
          << start << "->" << target;
      EXPECT_EQ(index->IsReachable(start, target),
                oracle.IsReachable(start, target));
    }
  }

  // ReachableAmong with a mixed target list.
  std::vector<NodeId> targets;
  for (NodeId v = 0; v < p.nodes; v += 3) targets.push_back(v);
  for (NodeId start = 0; start < p.nodes; start += 2 * step) {
    std::vector<NodeDist> expected;
    for (const NodeId t : targets) {
      const Distance d = t == start ? 0 : oracle.Distance(start, t);
      if (d != kUnreachable) expected.push_back({t, d});
    }
    SortByDistance(expected);
    EXPECT_EQ(index->ReachableAmong(start, targets), expected);
  }
}

std::vector<Params> MakeAllParams() {
  std::vector<Params> params;
  const StrategyKind strategies[] = {
      StrategyKind::kPpo, StrategyKind::kHopi, StrategyKind::kApex,
      StrategyKind::kTransitiveClosure, StrategyKind::kSummary};
  const GraphFamily families[] = {GraphFamily::kForest, GraphFamily::kDag,
                                  GraphFamily::kCyclic,
                                  GraphFamily::kLinkedDocs};
  const size_t sizes[] = {12, 40, 90};
  const uint64_t seeds[] = {1, 2, 3};
  for (const StrategyKind s : strategies) {
    for (const GraphFamily f : families) {
      // PPO only on forests; skip generating the other families for it.
      if (s == StrategyKind::kPpo && f != GraphFamily::kForest) continue;
      for (const size_t n : sizes) {
        for (const uint64_t seed : seeds) {
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

INSTANTIATE_TEST_SUITE_P(AllStrategies, IndexPropertyTest,
                         ::testing::ValuesIn(MakeAllParams()), ParamName);

}  // namespace
}  // namespace flix::index
