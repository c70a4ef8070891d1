// Cursor contract tests: every strategy's lazy cursors must (a) yield
// exactly the elements the BFS oracle (and hence the materialized vector
// methods) produce, in ascending (distance, node) order; (b) report sound,
// monotone BoundHints — a hint is a lower bound on every element still to
// come and reaches kUnreachable once the cursor is exhausted; and (c)
// tolerate early close after any prefix (the whole point of streaming).
#include <gtest/gtest.h>

#include <functional>
#include <limits>
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
      return SummaryIndex::BuildFb(g);
  }
  return nullptr;
}

using CursorFactory = std::function<std::unique_ptr<NodeDistCursor>()>;

// Drains a fresh cursor while checking the BoundHint contract, compares the
// stream against `expected`, then re-opens and abandons the cursor after a
// half-way prefix to prove early close yields the same prefix and is safe.
void CheckCursorContract(const CursorFactory& factory,
                         const std::vector<NodeDist>& expected,
                         const std::string& context) {
  SCOPED_TRACE(context);
  std::unique_ptr<NodeDistCursor> cursor = factory();
  ASSERT_NE(cursor, nullptr);

  // kUnreachable (-1) means "nothing left" and orders above every distance.
  const auto rank = [](Distance d) {
    return d == kUnreachable ? std::numeric_limits<int64_t>::max()
                             : static_cast<int64_t>(d);
  };
  std::vector<NodeDist> drained;
  int64_t last_hint = 0;
  while (true) {
    const Distance hint = cursor->BoundHint();
    EXPECT_GE(rank(hint), last_hint) << "BoundHint went backwards";
    last_hint = rank(hint);
    // A finite hint over an empty remainder is vacuously valid; exhaustion
    // is only observable through Next, after which the hint must flip to
    // kUnreachable (asserted below).
    const std::optional<NodeDist> nd = cursor->Next();
    if (!nd.has_value()) break;
    EXPECT_GE(static_cast<int64_t>(nd->distance), rank(hint))
        << "emitted below the promised bound";
    drained.push_back(*nd);
  }
  EXPECT_EQ(cursor->BoundHint(), kUnreachable)
      << "exhausted cursor must report kUnreachable";
  EXPECT_EQ(drained, expected);

  // Early close: the first half must match, and destroying the half-pulled
  // cursor (end of scope) must be clean.
  std::unique_ptr<NodeDistCursor> prefix_cursor = factory();
  const size_t prefix = expected.size() / 2;
  for (size_t i = 0; i < prefix; ++i) {
    const std::optional<NodeDist> nd = prefix_cursor->Next();
    ASSERT_TRUE(nd.has_value());
    EXPECT_EQ(*nd, expected[i]);
  }
}

class IndexCursorTest : public ::testing::TestWithParam<Params> {};

TEST_P(IndexCursorTest, CursorsMatchOracleAndHonorContract) {
  const Params& p = GetParam();
  const graph::Digraph g = MakeGraph(p.family, p.nodes, p.seed);
  if (p.strategy == StrategyKind::kPpo && !graph::IsForest(g)) {
    GTEST_SKIP() << "PPO only applies to forests";
  }
  const std::unique_ptr<PathIndex> index = BuildIndex(p.strategy, g);
  ASSERT_NE(index, nullptr);
  const graph::ReachabilityOracle oracle(g);

  const size_t step = std::max<size_t>(1, p.nodes / 8);
  for (NodeId start = 0; start < p.nodes; start += step) {
    CheckCursorContract(
        [&] { return index->DescendantsCursor(start); },
        oracle.Descendants(start),
        "descendants from " + std::to_string(start));
    for (TagId tag = 0; tag < 5; ++tag) {
      const std::string at = "start " + std::to_string(start) + " tag " +
                             std::to_string(tag);
      CheckCursorContract(
          [&] { return index->DescendantsByTagCursor(start, tag); },
          oracle.DescendantsByTag(start, tag), "descendants-by-tag " + at);
      CheckCursorContract(
          [&] { return index->AncestorsByTagCursor(start, tag); },
          oracle.AncestorsByTag(start, tag), "ancestors-by-tag " + at);
    }
  }

  // Among cursors over a mixed membership list (`start` itself included, so
  // the distance-0 self hit is covered too).
  std::vector<NodeId> members;
  for (NodeId v = 0; v < p.nodes; v += 3) members.push_back(v);
  for (NodeId start = 0; start < p.nodes; start += 2 * step) {
    std::vector<NodeDist> reachable;
    std::vector<NodeDist> ancestors;
    for (const NodeId m : members) {
      const Distance down = m == start ? 0 : oracle.Distance(start, m);
      if (down != kUnreachable) reachable.push_back({m, down});
      const Distance up = m == start ? 0 : oracle.Distance(m, start);
      if (up != kUnreachable) ancestors.push_back({m, up});
    }
    SortByDistance(reachable);
    SortByDistance(ancestors);
    CheckCursorContract(
        [&] { return index->ReachableAmongCursor(start, members); },
        reachable, "reachable-among from " + std::to_string(start));
    CheckCursorContract(
        [&] { return index->AncestorsAmongCursor(start, members); },
        ancestors, "ancestors-among from " + std::to_string(start));
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
  const size_t sizes[] = {12, 40};
  const uint64_t seeds[] = {1, 2};
  for (const StrategyKind s : strategies) {
    for (const GraphFamily f : families) {
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

INSTANTIATE_TEST_SUITE_P(AllStrategies, IndexCursorTest,
                         ::testing::ValuesIn(MakeAllParams()), ParamName);

}  // namespace
}  // namespace flix::index
