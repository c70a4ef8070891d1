// Contract test for PathIndex::MultiSourceCursor and MultiSourceAmongCursor:
// for every strategy, over random forests, DAGs and cyclic graphs, seed sets
// of one, two and many nodes (seeds that reach one another and repeated
// seeds included), both directions, and the tag, wildcard and among
// filters, the cursor must yield exactly what a multi-source BFS yields —
// each node once at its minimum distance from the seed set, ascending by
// (distance, node), and never a seed (the among probes yield seeds in the
// probe set at distance 0). HOPI, PPO and APEX are also run on instances
// mapped from a saved segment. A last HOPI case uses a tag so sparse that
// most inverted-list entries cannot be yielded, and also checks the
// single-source cursors and both cursor hints after every pull.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
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
#include "obs/metrics.h"
#include "obs/names.h"
#include "storage/segment.h"

namespace flix::index {
namespace {

constexpr size_t kTags = 4;

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
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<TagId>(rng.Uniform(kTags)));
  }
  switch (family) {
    case Family::kForest:
      for (NodeId i = 1; i < n; ++i) {
        if (rng.Bernoulli(0.9)) {
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

// Multi-source BFS: distance of every node from the nearest seed.
std::vector<Distance> SeedDistances(const graph::Digraph& g,
                                    const std::vector<NodeId>& seeds,
                                    bool forward) {
  std::vector<Distance> dist(g.NumNodes(), kUnreachable);
  std::vector<NodeId> queue;
  for (const NodeId s : seeds) {
    if (dist[s] == kUnreachable) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (const graph::Digraph::Arc& arc :
         forward ? g.OutArcs(v) : g.InArcs(v)) {
      if (dist[arc.target] == kUnreachable) {
        dist[arc.target] = dist[v] + 1;
        queue.push_back(arc.target);
      }
    }
  }
  return dist;
}

// The expected stream: nodes passing `keep`, ascending (distance, node).
template <typename Keep>
std::vector<NodeDist> Expected(const std::vector<Distance>& dist, Keep keep) {
  std::vector<NodeDist> want;
  for (NodeId v = 0; v < dist.size(); ++v) {
    if (dist[v] != kUnreachable && keep(v)) want.push_back({v, dist[v]});
  }
  SortByDistance(want);
  return want;
}

std::string Describe(const std::vector<NodeId>& seeds) {
  std::string out = "seeds {";
  for (const NodeId s : seeds) out += " " + std::to_string(s);
  return out + " }";
}

// Seed sets of one, two and many nodes. The two-seed and many-seed sets are
// built so that one seed reaches another where the graph allows it, and the
// last set repeats a seed.
std::vector<std::vector<NodeId>> SeedSets(const graph::Digraph& g,
                                          uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  const size_t n = g.NumNodes();
  std::vector<std::vector<NodeId>> sets;
  const NodeId a = static_cast<NodeId>(rng.Uniform(n));
  sets.push_back({a});
  // {a, b} with b a descendant of a, when a has one.
  const graph::ReachabilityOracle oracle(g);
  const std::vector<NodeDist> below = oracle.Descendants(a);
  const NodeId b = below.empty() ? static_cast<NodeId>(rng.Uniform(n))
                                 : below[rng.Uniform(below.size())].node;
  sets.push_back({b, a});
  std::vector<NodeId> many;
  for (size_t i = 0; i < 1 + n / 8; ++i) {
    many.push_back(static_cast<NodeId>(rng.Uniform(n)));
  }
  many.push_back(a);
  many.push_back(b);
  sets.push_back(many);
  many.push_back(many.front());  // a repeated seed
  many.push_back(a);
  sets.push_back(many);
  return sets;
}

// Drains `cursor`, checking BoundHint soundness on the way.
std::vector<NodeDist> DrainChecked(NodeDistCursor& cursor) {
  std::vector<NodeDist> got;
  while (true) {
    const Distance hint = cursor.BoundHint();
    const std::optional<NodeDist> nd = cursor.Next();
    if (!nd.has_value()) break;
    EXPECT_LE(hint, nd->distance) << "BoundHint above the next element";
    got.push_back(*nd);
  }
  EXPECT_EQ(cursor.BoundHint(), kUnreachable);
  return got;
}

// Every filter and direction for every seed set of `g`.
void CheckIndex(const PathIndex& index, const graph::Digraph& g,
                uint64_t seed) {
  const size_t n = g.NumNodes();
  // A probe set of about a third of the nodes, ascending.
  std::vector<NodeId> probes;
  Rng rng(seed + 17);
  for (NodeId v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.33)) probes.push_back(v);
  }
  const auto in_probes = [&](NodeId v) {
    return std::binary_search(probes.begin(), probes.end(), v);
  };
  for (const std::vector<NodeId>& seeds : SeedSets(g, seed)) {
    SCOPED_TRACE(Describe(seeds));
    const auto is_seed = [&](NodeId v) {
      return std::find(seeds.begin(), seeds.end(), v) != seeds.end();
    };
    for (const bool forward : {true, false}) {
      SCOPED_TRACE(forward ? "forward" : "backward");
      const std::vector<Distance> dist = SeedDistances(g, seeds, forward);
      for (TagId tag = 0; tag < kTags; ++tag) {
        SCOPED_TRACE("tag " + std::to_string(tag));
        const auto cursor = index.MultiSourceCursor(seeds, tag,
                                                    /*wildcard=*/false,
                                                    forward);
        EXPECT_EQ(DrainChecked(*cursor), Expected(dist, [&](NodeId v) {
                    return !is_seed(v) && g.Tag(v) == tag;
                  }));
      }
      if (forward) {
        SCOPED_TRACE("wildcard");
        const auto cursor = index.MultiSourceCursor(seeds, kInvalidTag,
                                                    /*wildcard=*/true,
                                                    /*forward=*/true);
        EXPECT_EQ(DrainChecked(*cursor),
                  Expected(dist, [&](NodeId v) { return !is_seed(v); }));
      }
      {
        SCOPED_TRACE("among");
        const auto cursor =
            index.MultiSourceAmongCursor(seeds, probes, forward);
        EXPECT_EQ(DrainChecked(*cursor), Expected(dist, in_probes));
      }
    }
  }
}

struct Params {
  StrategyKind strategy;
  Family family;
  size_t nodes;
  uint64_t seed;
};

class MultiSourceCursorTest : public ::testing::TestWithParam<Params> {};

TEST_P(MultiSourceCursorTest, MatchesMultiSourceBfs) {
  const Params& p = GetParam();
  const graph::Digraph g = MakeGraph(p.family, p.nodes, p.seed);
  ASSERT_TRUE(p.strategy != StrategyKind::kPpo || graph::IsForest(g));
  const std::unique_ptr<PathIndex> index = BuildIndex(p.strategy, g);
  ASSERT_NE(index, nullptr);
  CheckIndex(*index, g, p.seed);
}

// HOPI answers the among probes from filtered inverted lists once a probe
// set is registered; the fold must hold there too.
TEST_P(MultiSourceCursorTest, MatchesMultiSourceBfsWithRegisteredProbes) {
  const Params& p = GetParam();
  const graph::Digraph g = MakeGraph(p.family, p.nodes, p.seed);
  std::unique_ptr<PathIndex> index = BuildIndex(p.strategy, g);
  ASSERT_NE(index, nullptr);
  std::vector<NodeId> probes;
  Rng rng(p.seed + 17);  // the probe set CheckIndex draws
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (rng.Bernoulli(0.33)) probes.push_back(v);
  }
  index->RegisterLinkSources(probes);
  index->RegisterEntryNodes(probes);
  CheckIndex(*index, g, p.seed);
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
      for (const size_t n : {30, 120}) {
        for (const uint64_t seed : {1, 2}) {
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

INSTANTIATE_TEST_SUITE_P(AllStrategies, MultiSourceCursorTest,
                         ::testing::ValuesIn(MakeAllParams()), ParamName);

// Zero-copy instances read the same arrays through segment views.
TEST(MultiSourceCursorMappedTest, MappedMatchesMultiSourceBfs) {
  for (const StrategyKind kind :
       {StrategyKind::kHopi, StrategyKind::kPpo, StrategyKind::kApex}) {
    for (const Family family : {Family::kForest, Family::kDag,
                                Family::kCyclic}) {
      if (kind == StrategyKind::kPpo && family != Family::kForest) continue;
      SCOPED_TRACE(std::string(StrategyName(kind)) + " " +
                   FamilyName(family));
      const graph::Digraph g = MakeGraph(family, 120, 9);
      const std::unique_ptr<PathIndex> built = BuildIndex(kind, g);
      ASSERT_NE(built, nullptr);
      storage::SegmentWriter seg;
      SaveIndexSegment(*built, seg);
      const std::vector<std::byte> payload = seg.Finish();
      const auto view = storage::SegmentView::Parse(payload);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      auto mapped = LoadIndexSegment(*view, kind, g);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      CheckIndex(**mapped, g, 9);
    }
  }
}

// No seeds: an empty cursor, whatever the filter.
TEST(MultiSourceCursorEdgeTest, NoSeedsYieldNothing) {
  const graph::Digraph g = MakeGraph(Family::kDag, 30, 3);
  const std::unique_ptr<PathIndex> index = HopiIndex::Build(g);
  const std::vector<NodeId> none;
  const std::vector<NodeId> probes = {0, 1, 2};
  EXPECT_TRUE(DrainCursor(*index->MultiSourceCursor(none, 0, false, true))
                  .empty());
  EXPECT_TRUE(
      DrainCursor(*index->MultiSourceAmongCursor(none, probes, true)).empty());
}

// --- Merge cursors where most inverted-list entries cannot be yielded -----
//
// A dense DAG gives every node many hubs whose inverted lists overlap, and a
// tag carried by at most 5% of the nodes makes most entries of a by-tag
// cursor's lists unmatched: each merge head steps over long runs of seen and
// wrong-tag entries before it pushes one. Every cursor is checked against a
// BFS, and so are its hints after every pull.

constexpr TagId kSparseTag = 0;

// Node v gets arcs from up to `fan_in` random earlier nodes; about 4% of the
// nodes carry kSparseTag, the rest tags 1..3.
graph::Digraph DenseDagWithSparseTag(size_t n, size_t fan_in, uint64_t seed) {
  Rng rng(seed);
  graph::Digraph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(rng.Bernoulli(0.04) ? kSparseTag
                                  : static_cast<TagId>(1 + rng.Uniform(3)));
  }
  for (NodeId v = 1; v < n; ++v) {
    for (size_t e = 0; e < fan_in; ++e) {
      g.AddEdge(static_cast<NodeId>(rng.Uniform(v)), v);
    }
  }
  return g;
}

// Drains `cursor`. Each BoundHint read before a Next must not exceed the
// distance that Next yields, and each RemainingHint (read first and after
// every Next) must cover the results still to come.
std::vector<NodeDist> DrainWithHints(NodeDistCursor& cursor) {
  std::vector<NodeDist> got;
  std::vector<size_t> remaining = {cursor.RemainingHint()};
  while (true) {
    const Distance bound = cursor.BoundHint();
    const std::optional<NodeDist> nd = cursor.Next();
    if (!nd.has_value()) break;
    EXPECT_LE(bound, nd->distance) << "BoundHint above the yielded distance";
    got.push_back(*nd);
    remaining.push_back(cursor.RemainingHint());
  }
  for (size_t i = 0; i < remaining.size(); ++i) {
    EXPECT_GE(remaining[i], got.size() - i)
        << "RemainingHint below the results still to come after " << i;
  }
  EXPECT_EQ(cursor.BoundHint(), kUnreachable);
  return got;
}

// Every HOPI cursor kind on `index`: single-source by-tag, wildcard and
// ancestors-by-tag from several starts; the multi-source fold (seeds never
// yielded) in both directions; and the among cursors over `probes`, which
// take the filtered-list merge when `probes` is registered on `index`.
void CheckSparseTagCursors(const PathIndex& index, const graph::Digraph& g,
                           const std::vector<NodeId>& probes) {
  const NodeId n = static_cast<NodeId>(g.NumNodes());
  const auto tagged = [&](NodeId v) { return g.Tag(v) == kSparseTag; };
  const auto in_probes = [&](NodeId v) {
    return std::binary_search(probes.begin(), probes.end(), v);
  };
  for (NodeId start = 0; start < n; start += n / 8) {
    SCOPED_TRACE("start " + std::to_string(start));
    const std::vector<Distance> down = SeedDistances(g, {start}, true);
    const std::vector<Distance> up = SeedDistances(g, {start}, false);
    const auto not_start = [&](NodeId v) { return v != start; };
    EXPECT_EQ(DrainWithHints(*index.DescendantsByTagCursor(start, kSparseTag)),
              Expected(down, [&](NodeId v) { return v != start && tagged(v); }));
    EXPECT_EQ(DrainWithHints(*index.DescendantsCursor(start)),
              Expected(down, not_start));
    EXPECT_EQ(DrainWithHints(*index.AncestorsByTagCursor(start, kSparseTag)),
              Expected(up, [&](NodeId v) { return v != start && tagged(v); }));
    EXPECT_EQ(DrainWithHints(*index.ReachableAmongCursor(start, probes)),
              Expected(down, in_probes));
    EXPECT_EQ(DrainWithHints(*index.AncestorsAmongCursor(start, probes)),
              Expected(up, in_probes));
  }
  // Seed sets that reach one another: a prefix of the DAG order, and
  // nodes spread over the whole of it (repeating one).
  const std::vector<std::vector<NodeId>> seed_sets = {
      {0, 1, 2, 3, 5, 8},
      {n / 7, n / 3, n / 2, n - 9, n / 3}};
  for (const std::vector<NodeId>& seeds : seed_sets) {
    SCOPED_TRACE("seeds from " + std::to_string(seeds.front()));
    const auto not_seed = [&](NodeId v) {
      return std::find(seeds.begin(), seeds.end(), v) == seeds.end();
    };
    for (const bool forward : {true, false}) {
      SCOPED_TRACE(forward ? "forward" : "backward");
      const std::vector<Distance> dist = SeedDistances(g, seeds, forward);
      EXPECT_EQ(DrainWithHints(*index.MultiSourceCursor(
                    seeds, kSparseTag, /*wildcard=*/false, forward)),
                Expected(dist,
                        [&](NodeId v) { return not_seed(v) && tagged(v); }));
      if (forward) {
        EXPECT_EQ(DrainWithHints(*index.MultiSourceCursor(
                      seeds, kInvalidTag, /*wildcard=*/true, forward)),
                  Expected(dist, not_seed));
      }
      EXPECT_EQ(
          DrainWithHints(*index.MultiSourceAmongCursor(seeds, probes, forward)),
          Expected(dist, in_probes));
    }
  }
}

class HopiSparseTagTest : public ::testing::TestWithParam<bool> {};

TEST_P(HopiSparseTagTest, CursorsMatchBfsOnBuiltAndMappedInstances) {
  const bool registered = GetParam();
  const graph::Digraph g = DenseDagWithSparseTag(400, 4, 61);
  size_t sparse = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) sparse += g.Tag(v) == kSparseTag;
  ASSERT_GT(sparse, 0u);
  ASSERT_LE(sparse * 20, g.NumNodes()) << "the target tag must stay <= 5%";
  // A probe set of about a third of the nodes, ascending.
  std::vector<NodeId> probes;
  Rng rng(67);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (rng.Bernoulli(0.33)) probes.push_back(v);
  }

  const std::unique_ptr<HopiIndex> built = HopiIndex::Build(g);
  storage::SegmentWriter seg;
  built->SaveSegment(seg);
  const std::vector<std::byte> payload = seg.Finish();
  const auto view = storage::SegmentView::Parse(payload);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto mapped = HopiIndex::LoadSegment(*view);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  obs::Counter& skipped = obs::MetricsRegistry::Global().GetCounter(
      obs::names::kCursorSkippedHopi);
  for (HopiIndex* index : {built.get(), mapped->get()}) {
    SCOPED_TRACE(index == built.get() ? "built" : "mapped");
    if (registered) {
      index->RegisterLinkSources(probes);
      index->RegisterEntryNodes(probes);
    }
    const uint64_t skipped_before = skipped.Value();
    CheckSparseTagCursors(*index, g, probes);
    // The heads did step over entries, so the skip was exercised.
    EXPECT_GT(skipped.Value(), skipped_before);
  }
}

INSTANTIATE_TEST_SUITE_P(ProbeSets, HopiSparseTagTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Registered" : "Unregistered";
                         });

}  // namespace
}  // namespace flix::index
