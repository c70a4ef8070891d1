#include "flix/pee.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "flix/flix.h"
#include "graph/traversal.h"
#include "index/path_index.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "workload/synthetic_generator.h"
#include "xml/collection.h"

namespace flix::core {
namespace {

// Collection whose element graph crosses several documents:
//   d0: a(0) -> b(1), a -> link(2) --href--> d1 root
//   d1: a(3) -> b(4) -> link(5) --href--> d2#mid
//   d2: a(6) -> c(7 id=mid) -> b(8), plus link(9) --href--> d0 (cycle!)
xml::Collection ChainedCollection() {
  xml::Collection c;
  EXPECT_TRUE(c.AddXml("<a><b/><link href=\"d1\"/></a>", "d0").ok());
  EXPECT_TRUE(c.AddXml("<a><b><link href=\"d2#mid\"/></b></a>", "d1").ok());
  EXPECT_TRUE(c.AddXml(
      R"(<a><c id="mid"><b/></c><link href="d0"/></a>)", "d2").ok());
  c.ResolveAllLinks();
  return c;
}

std::vector<Result> Collect(const Flix& flix, NodeId start,
                            std::string_view name,
                            const QueryOptions& options = {}) {
  return flix.FindDescendantsByName(start, name, options);
}

std::set<NodeId> Nodes(const std::vector<Result>& results) {
  std::set<NodeId> nodes;
  for (const Result& r : results) nodes.insert(r.node);
  return nodes;
}

std::set<NodeId> OracleNodes(const graph::ReachabilityOracle& oracle,
                             NodeId start, TagId tag) {
  std::set<NodeId> nodes;
  for (const graph::NodeDist& nd : oracle.DescendantsByTag(start, tag)) {
    nodes.insert(nd.node);
  }
  return nodes;
}

class PeeConfigTest : public ::testing::TestWithParam<MdbConfig> {};

TEST_P(PeeConfigTest, DescendantsAcrossMetaDocuments) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.config = GetParam();
  options.partition_bound = 4;  // force several meta documents
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok()) << flix.status().ToString();

  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  const TagId tag_b = c.pool().Lookup("b");

  for (const NodeId start : {c.GlobalId(0, 0), c.GlobalId(1, 0),
                             c.GlobalId(2, 0)}) {
    const std::vector<Result> results = Collect(**flix, start, "b");
    EXPECT_EQ(Nodes(results), OracleNodes(oracle, start, tag_b))
        << "config " << MdbConfigName(GetParam()) << " start " << start;
    // Reported distances are true path lengths: never below the shortest.
    for (const Result& r : results) {
      const Distance exact = oracle.Distance(start, r.node);
      EXPECT_GE(r.distance, exact);
      EXPECT_NE(exact, kUnreachable);
    }
    // No duplicates.
    EXPECT_EQ(Nodes(results).size(), results.size());
  }
}

TEST_P(PeeConfigTest, ConnectionTestsMatchOracle) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.config = GetParam();
  options.partition_bound = 4;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); ++a) {
    for (NodeId b = 0; b < g.NumNodes(); b += 2) {
      EXPECT_EQ((*flix)->IsConnected(a, b), oracle.IsReachable(a, b))
          << a << "->" << b;
      EXPECT_EQ((*flix)->pee().IsConnectedBidirectional(a, b),
                oracle.IsReachable(a, b))
          << "bidi " << a << "->" << b;
    }
  }
}

TEST_P(PeeConfigTest, AncestorsAcrossMetaDocuments) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.config = GetParam();
  options.partition_bound = 4;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  const TagId tag_a = c.pool().Lookup("a");

  // The b element in d2 has ancestors across all three documents.
  const NodeId deep_b = c.GlobalId(2, 2);
  const std::vector<Result> results =
      (*flix)->FindAncestorsByName(deep_b, "a");
  std::set<NodeId> expected;
  for (const graph::NodeDist& nd : oracle.AncestorsByTag(deep_b, tag_a)) {
    expected.insert(nd.node);
  }
  EXPECT_EQ(Nodes(results), expected);
}

// Full drains of every query shape in every emission mode, over a synthetic
// collection cut into many small meta documents: the answers are BFS's,
// and every entry point is accounted for exactly once. Each start and each
// followed link yields one entry, which is either processed or dropped as
// dominated (at push or at pop) — never both, never neither.
TEST_P(PeeConfigTest, FullDrainsMatchBfsAndAccountForEveryEntry) {
  const auto collection = workload::GenerateSynthetic({.seed = 11});
  ASSERT_TRUE(collection.ok());
  FlixOptions options;
  options.config = GetParam();
  options.partition_bound = 40;
  auto flix = Flix::Build(*collection, options);
  ASSERT_TRUE(flix.ok()) << flix.status().ToString();
  const PathExpressionEvaluator& pee = (*flix)->pee();
  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  const TagId tag_a = collection->pool().Lookup("t1");
  const TagId tag_b = collection->pool().Lookup("t2");
  const TagId tag_doc = collection->pool().Lookup("doc");
  ASSERT_NE(tag_a, kInvalidTag);
  ASSERT_NE(tag_b, kInvalidTag);
  ASSERT_NE(tag_doc, kInvalidTag);

  enum class Mode { kStreamed, kPerBlock, kExact };
  size_t dominated = 0;
  size_t links = 0;
  for (const Mode mode : {Mode::kStreamed, Mode::kPerBlock, Mode::kExact}) {
    QueryOptions query;
    query.materialize = mode == Mode::kPerBlock;
    query.exact = mode == Mode::kExact;
    // Runs one query and checks it against the BFS answer (node -> its
    // shortest distance from the nearest start).
    const auto check = [&](const std::string& label, size_t num_starts,
                           const std::map<NodeId, Distance>& truth,
                           const auto& run) {
      SCOPED_TRACE(label + " mode " + std::to_string(static_cast<int>(mode)));
      QueryStats stats;
      std::map<NodeId, Distance> got;
      run(query, [&](const Result& r) {
            EXPECT_TRUE(got.emplace(r.node, r.distance).second)
                << "duplicate " << r.node;
            return true;
          },
          &stats);
      ASSERT_EQ(got.size(), truth.size());
      for (const auto& [node, distance] : got) {
        const auto it = truth.find(node);
        ASSERT_NE(it, truth.end()) << "spurious " << node;
        if (mode == Mode::kExact) {
          EXPECT_EQ(distance, it->second) << node;
        } else {
          EXPECT_GE(distance, it->second) << node;
        }
      }
      EXPECT_EQ(stats.entries_processed + stats.entries_dominated,
                num_starts + stats.links_followed);
      dominated += stats.entries_dominated;
      links += stats.links_followed;
    };
    const auto add_truth = [](std::map<NodeId, Distance>& truth,
                              const std::vector<graph::NodeDist>& found) {
      for (const graph::NodeDist& nd : found) {
        const auto [it, inserted] = truth.emplace(nd.node, nd.distance);
        if (!inserted) it->second = std::min(it->second, nd.distance);
      }
    };

    for (DocId doc = 0; doc < collection->NumDocuments(); ++doc) {
      const NodeId root = collection->GlobalId(doc, 0);
      std::map<NodeId, Distance> by_tag;
      add_truth(by_tag, oracle.DescendantsByTag(root, tag_b));
      check("a//B from " + std::to_string(root), 1, by_tag,
            [&](const QueryOptions& o, const ResultSink& sink,
                QueryStats* stats) {
              pee.FindDescendantsByTag(root, tag_b, o, sink, stats);
            });
      std::map<NodeId, Distance> all;
      add_truth(all, oracle.Descendants(root));
      check("a//* from " + std::to_string(root), 1, all,
            [&](const QueryOptions& o, const ResultSink& sink,
                QueryStats* stats) {
              pee.FindDescendants(root, o, sink, stats);
            });
    }
    for (NodeId v = 0; v < g.NumNodes(); v += 5) {
      std::map<NodeId, Distance> ancestors;
      add_truth(ancestors, oracle.AncestorsByTag(v, tag_doc));
      check("ancestors of " + std::to_string(v), 1, ancestors,
            [&](const QueryOptions& o, const ResultSink& sink,
                QueryStats* stats) {
              pee.FindAncestorsByTag(v, tag_doc, o, sink, stats);
            });
    }
    const std::vector<NodeId> type_starts = g.NodesWithTag(tag_a);
    std::map<NodeId, Distance> type_truth;
    for (const NodeId a : type_starts) {
      add_truth(type_truth, oracle.DescendantsByTag(a, tag_b));
    }
    check("A//B", type_starts.size(), type_truth,
          [&](const QueryOptions& o, const ResultSink& sink,
              QueryStats* stats) {
            pee.EvaluateTypeQuery(tag_a, tag_b, o, sink, stats);
          });
  }
  // The drains must cross links and drop entries to mean anything.
  EXPECT_GT(links, 0u);
  EXPECT_GT(dominated, 0u);
}

// Streamed and exact runs emit in non-decreasing distance, full drains and
// top-k stops alike, and the registry counts no result out of order. This
// is the monotonicity Run's bucket queue relies on: nothing is queued
// nearer than the last item popped.
TEST_P(PeeConfigTest, StreamedAndExactRunsEmitAscendingDistances) {
  const auto collection = workload::GenerateSynthetic({.seed = 11});
  ASSERT_TRUE(collection.ok());
  FlixOptions options;
  options.config = GetParam();
  options.partition_bound = 40;
  auto flix = Flix::Build(*collection, options);
  ASSERT_TRUE(flix.ok()) << flix.status().ToString();
  const PathExpressionEvaluator& pee = (*flix)->pee();
  const TagId tag_a = collection->pool().Lookup("t1");
  const TagId tag_b = collection->pool().Lookup("t2");
  const TagId tag_doc = collection->pool().Lookup("doc");
  ASSERT_NE(tag_a, kInvalidTag);
  ASSERT_NE(tag_b, kInvalidTag);
  ASSERT_NE(tag_doc, kInvalidTag);
  obs::Counter& out_of_order = obs::MetricsRegistry::Global().GetCounter(
      obs::names::kQueryResultsOutOfOrder);
  const uint64_t out_of_order_before = out_of_order.Value();

  size_t emitted = 0;
  size_t stopped_early = 0;
  for (const bool exact : {false, true}) {
    for (const int64_t k : {int64_t{-1}, int64_t{1}, int64_t{7}}) {
      QueryOptions query;
      query.exact = exact;
      query.max_results = k;
      const auto check = [&](const std::string& label, const auto& run) {
        SCOPED_TRACE(label + (exact ? " exact" : " streamed") + " k " +
                     std::to_string(k));
        std::vector<Result> got;
        run(query, [&](const Result& r) {
          got.push_back(r);
          return true;
        });
        for (size_t i = 1; i < got.size(); ++i) {
          ASSERT_GE(got[i].distance, got[i - 1].distance) << "position " << i;
        }
        emitted += got.size();
        if (k >= 0 && got.size() == static_cast<size_t>(k)) ++stopped_early;
      };
      for (DocId doc = 0; doc < collection->NumDocuments(); ++doc) {
        const NodeId root = collection->GlobalId(doc, 0);
        check("a//B from " + std::to_string(root),
              [&](const QueryOptions& o, const ResultSink& sink) {
                pee.FindDescendantsByTag(root, tag_b, o, sink);
              });
        check("a//* from " + std::to_string(root),
              [&](const QueryOptions& o, const ResultSink& sink) {
                pee.FindDescendants(root, o, sink);
              });
      }
      for (NodeId v = 0; v < collection->NumElements(); v += 7) {
        check("ancestors of " + std::to_string(v),
              [&](const QueryOptions& o, const ResultSink& sink) {
                pee.FindAncestorsByTag(v, tag_doc, o, sink);
              });
      }
      check("A//B", [&](const QueryOptions& o, const ResultSink& sink) {
        pee.EvaluateTypeQuery(tag_a, tag_b, o, sink);
      });
    }
  }
  EXPECT_EQ(out_of_order.Value(), out_of_order_before);
  // The runs must emit, and some top-k runs must stop early, to mean
  // anything.
  EXPECT_GT(emitted, 0u);
  EXPECT_GT(stopped_early, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PeeConfigTest,
    ::testing::Values(MdbConfig::kNaive, MdbConfig::kMaximalPpo,
                      MdbConfig::kUnconnectedHopi, MdbConfig::kHybrid),
    [](const ::testing::TestParamInfo<MdbConfig>& info) {
      return std::string(MdbConfigName(info.param));
    });

// Links of d0 enter one subtree of d1: x and its descendant y. The link
// element l carries two links, so x and y are queued together and pop as
// one batch at distance 2: x is admitted and covers y, which is dropped at
// its pop. The deeper link element reaches y again at distance 3, after x
// was admitted, so that arrival is dropped at push. Each arrival counts as
// dominated exactly once, is charged to d1's partition, and opens no
// cursor.
TEST(PeeTest, CoveredLinkTargetIsDominatedOnceAndOpensNoCursor) {
  xml::Collection c;
  ASSERT_TRUE(c.AddXml(R"(<a><l href="d1#x" xlink:href="d1#y"/>)"
                       R"(<c><l href="d1#y"/></c></a>)",
                       "d0")
                  .ok());
  ASSERT_TRUE(
      c.AddXml(R"(<r><x id="x"><y id="y"><b/></y></x></r>)", "d1").ok());
  c.ResolveAllLinks();
  const NodeId x = c.GlobalId(1, 1);
  const NodeId y = c.GlobalId(1, 2);
  for (const MdbConfig config : {MdbConfig::kNaive, MdbConfig::kHybrid}) {
    SCOPED_TRACE(MdbConfigName(config));
    FlixOptions options;
    options.config = config;
    options.partition_bound = 4;  // one meta document per document
    auto flix = Flix::Build(c, options);
    ASSERT_TRUE(flix.ok()) << flix.status().ToString();
    const MetaDocumentSet& set = (*flix)->meta_documents();
    const uint32_t m0 = set.meta_of_node[c.GlobalId(0, 0)];
    const uint32_t m1 = set.meta_of_node[x];
    ASSERT_NE(m0, m1);
    ASSERT_EQ(set.meta_of_node[y], m1);

    for (const bool exact : {false, true}) {
      SCOPED_TRACE(exact ? "exact" : "default");
      (*flix)->profiler().Reset();
      QueryOptions query;
      query.exact = exact;
      QueryStats stats;
      std::vector<Result> results;
      (*flix)->pee().FindDescendantsByTag(
          c.GlobalId(0, 0), c.pool().Lookup("b"), query,
          [&](const Result& r) {
            results.push_back(r);
            return true;
          },
          &stats);
      ASSERT_EQ(results.size(), 1u);
      EXPECT_EQ(results[0].node, c.GlobalId(1, 3));
      // a -> l -> y -> b; the default mode reaches b through x, one more.
      EXPECT_EQ(results[0].distance, exact ? 3 : 4);
      EXPECT_EQ(stats.links_followed, 3u);
      // Default mode: a and x are processed, both arrivals of y are covered
      // by x. Exact mode: y is processed at its first arrival and only the
      // second one is dropped.
      const size_t processed = exact ? 3 : 2;
      EXPECT_EQ(stats.entries_processed, processed);
      EXPECT_EQ(stats.entries_dominated, 3 + 1 - processed);
      // One cursor pair for a, one for d1's batch: none for a dropped y.
      EXPECT_EQ(stats.cursors_opened, 4u);
      const obs::WorkloadProfile profile = (*flix)->Profile();
      EXPECT_EQ(profile.partitions[m0].entries_dominated, 0u);
      EXPECT_EQ(profile.partitions[m1].entries_dominated,
                3 + 1 - processed);
      EXPECT_EQ(profile.partitions[m1].entries_processed, processed - 1);
    }
  }
}

TEST(PeeTest, MaxResultsStopsEarly) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  QueryOptions options;
  options.max_results = 1;
  const std::vector<Result> results =
      Collect(**flix, c.GlobalId(0, 0), "b", options);
  EXPECT_EQ(results.size(), 1u);
}

TEST(PeeTest, MaxDistanceFiltersFarResults) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  QueryOptions options;
  options.max_distance = 1;
  const std::vector<Result> results =
      Collect(**flix, c.GlobalId(0, 0), "b", options);
  // Only the direct child b of d0's root is within distance 1.
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].node, c.GlobalId(0, 1));
}

TEST(PeeTest, SinkCanAbort) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  int calls = 0;
  (*flix)->FindDescendantsByName(c.GlobalId(0, 0), "b", {},
                                 [&](const Result&) {
                                   ++calls;
                                   return false;  // stop immediately
                                 });
  EXPECT_EQ(calls, 1);
}

TEST(PeeTest, WildcardDescendants) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  const NodeId start = c.GlobalId(0, 0);
  std::vector<Result> results;
  (*flix)->pee().FindDescendants(start, {}, [&](const Result& r) {
    results.push_back(r);
    return true;
  });
  std::set<NodeId> expected;
  for (const graph::NodeDist& nd : oracle.Descendants(start)) {
    expected.insert(nd.node);
  }
  EXPECT_EQ(Nodes(results), expected);
}

TEST(PeeTest, TypeQueryFindsAllPairsTargets) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  const TagId tag_a = c.pool().Lookup("a");
  const TagId tag_b = c.pool().Lookup("b");

  const std::vector<Result> results = (*flix)->EvaluateTypeQuery("a", "b");
  std::set<NodeId> expected;
  for (const NodeId a : g.NodesWithTag(tag_a)) {
    for (const graph::NodeDist& nd : oracle.DescendantsByTag(a, tag_b)) {
      expected.insert(nd.node);
    }
  }
  EXPECT_EQ(Nodes(results), expected);
}

TEST(PeeTest, FindDistanceReturnsRealPathLength) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  for (NodeId a = 0; a < g.NumNodes(); a += 2) {
    for (NodeId b = 0; b < g.NumNodes(); b += 3) {
      const Distance got = (*flix)->FindDistance(a, b);
      const Distance exact = oracle.Distance(a, b);
      if (exact == kUnreachable) {
        EXPECT_EQ(got, kUnreachable);
      } else {
        EXPECT_NE(got, kUnreachable);
        EXPECT_GE(got, exact);
      }
    }
  }
}

TEST(PeeTest, ConnectionThresholdRespected) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  const NodeId start = c.GlobalId(0, 0);
  // d2's deep b is several hops away; a tight threshold must reject it.
  const NodeId deep_b = c.GlobalId(2, 2);
  EXPECT_TRUE((*flix)->IsConnected(start, deep_b));
  EXPECT_FALSE((*flix)->IsConnected(start, deep_b, /*max_distance=*/1));
}

TEST(PeeTest, StreamingMatchesMaterializedResultSet) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  const TagId tag_b = c.pool().Lookup("b");

  for (const NodeId start :
       {c.GlobalId(0, 0), c.GlobalId(1, 0), c.GlobalId(2, 0)}) {
    std::vector<Result> streamed;
    std::vector<Result> materialized;
    (*flix)->pee().FindDescendantsByTag(start, tag_b, {},
                                        [&](const Result& r) {
                                          streamed.push_back(r);
                                          return true;
                                        });
    QueryOptions legacy;
    legacy.materialize = true;
    (*flix)->pee().FindDescendantsByTag(start, tag_b, legacy,
                                        [&](const Result& r) {
                                          materialized.push_back(r);
                                          return true;
                                        });
    EXPECT_EQ(Nodes(streamed), Nodes(materialized)) << "start " << start;
    // Both modes run on the same loop. The streamed merge emits globally
    // ascending — tighter than the per-block mode, which emits each local
    // probe as one drained block and is only approximately sorted.
    for (size_t i = 1; i < streamed.size(); ++i) {
      EXPECT_GE(streamed[i].distance, streamed[i - 1].distance);
    }
  }
}

TEST(PeeTest, ExactModeStreamsThroughCursors) {
  const auto collection = workload::GenerateSynthetic({.seed = 9});
  ASSERT_TRUE(collection.ok());
  FlixOptions options;
  options.config = MdbConfig::kNaive;  // one meta document per document
  auto flix = Flix::Build(*collection, options);
  ASSERT_TRUE(flix.ok()) << flix.status().ToString();
  ASSERT_GT((*flix)->meta_documents().docs.size(), 1u);
  const PathExpressionEvaluator& pee = (*flix)->pee();
  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);

  // A document root with a sizeable by-tag answer, so a top-1 stop leaves
  // cursor work behind.
  NodeId start = kInvalidNode;
  TagId tag = kInvalidTag;
  std::vector<graph::NodeDist> truth;
  for (DocId doc = 0; doc < collection->NumDocuments() && truth.empty();
       ++doc) {
    const NodeId root = collection->GlobalId(doc, 0);
    for (const graph::NodeDist& nd : oracle.Descendants(root)) {
      std::vector<graph::NodeDist> by_tag =
          oracle.DescendantsByTag(root, g.Tag(nd.node));
      if (by_tag.size() >= 10) {
        start = root;
        tag = g.Tag(nd.node);
        truth = std::move(by_tag);
        break;
      }
    }
  }
  ASSERT_FALSE(truth.empty());

  QueryOptions exact;
  exact.exact = true;
  exact.max_results = 1;
  QueryStats stats;
  std::vector<Result> first;
  pee.FindDescendantsByTag(start, tag, exact,
                           [&](const Result& r) {
                             first.push_back(r);
                             return true;
                           },
                           &stats);
  ASSERT_EQ(first.size(), 1u);
  // The answer is one of the BFS-nearest matches, at its BFS distance.
  EXPECT_EQ(first[0].distance, truth.front().distance);
  EXPECT_EQ(oracle.Distance(start, first[0].node), truth.front().distance);
  EXPECT_EQ(g.Tag(first[0].node), tag);
  // Exact mode runs on the streaming loop: it opens cursors and stops
  // pulling them once the first result is out.
  EXPECT_GT(stats.cursors_opened, 0u);
  EXPECT_GT(stats.cursor_saved, 0u);

  // The full exact drain: every node at its BFS distance, ascending.
  exact.max_results = -1;
  std::vector<Result> all;
  pee.FindDescendantsByTag(start, tag, exact, [&](const Result& r) {
    all.push_back(r);
    return true;
  });
  std::vector<graph::NodeDist> drained;
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(all[i].distance, all[i - 1].distance);
    }
    drained.push_back({all[i].node, all[i].distance});
  }
  index::SortByDistance(drained);
  EXPECT_EQ(drained, truth);
}

TEST(PeeTest, TopKStopsPullingCursorsEarly) {
  const auto collection = workload::GenerateSynthetic({.seed = 9});
  ASSERT_TRUE(collection.ok());
  auto flix = Flix::Build(*collection, {});
  ASSERT_TRUE(flix.ok());
  const PathExpressionEvaluator& pee = (*flix)->pee();

  // Find a start whose wildcard descendant set is comfortably larger than
  // the requested k, so an early stop has work left to skip.
  NodeId start = kInvalidNode;
  QueryStats full_stats;
  size_t full_count = 0;
  for (DocId doc = 0; doc < collection->NumDocuments(); ++doc) {
    start = collection->GlobalId(doc, 0);
    full_stats = {};
    full_count = 0;
    pee.FindDescendants(start, {},
                        [&](const Result&) {
                          ++full_count;
                          return true;
                        },
                        &full_stats);
    if (full_count > 10) break;
  }
  ASSERT_GT(full_count, 10u);
  ASSERT_GT(full_stats.cursors_opened, 0u);
  ASSERT_GT(full_stats.cursor_pulls, 0u);

  QueryOptions topk;
  topk.max_results = 3;
  QueryStats topk_stats;
  size_t topk_count = 0;
  pee.FindDescendants(start, topk,
                      [&](const Result&) {
                        ++topk_count;
                        return true;
                      },
                      &topk_stats);
  EXPECT_EQ(topk_count, 3u);
  // The streaming evaluator pulls only what the top-k emission forced and
  // credits the untraversed remainder of its open cursors.
  EXPECT_LT(topk_stats.cursor_pulls, full_stats.cursor_pulls);
  EXPECT_GT(topk_stats.cursor_saved, 0u);
}

TEST(PeeTest, AsyncStreamingDeliversSameResults) {
  const xml::Collection c = ChainedCollection();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  const NodeId start = c.GlobalId(0, 0);
  const TagId tag_b = c.pool().Lookup("b");

  const std::vector<Result> sync = Collect(**flix, start, "b");

  // Tiny capacity: force producer/consumer interplay.
  AsyncQuery query =
      (*flix)->pee().FindDescendantsByTagAsync(start, tag_b, {}, /*capacity=*/2);
  const std::vector<Result> async = query.DrainAll();
  EXPECT_EQ(async, sync);
}

TEST(PeeTest, AsyncCancellationStopsWorker) {
  const auto collection = workload::GenerateSynthetic({.seed = 9});
  ASSERT_TRUE(collection.ok());
  auto flix = Flix::Build(*collection, {});
  ASSERT_TRUE(flix.ok());
  const TagId tag = collection->pool().Lookup("t0");
  ASSERT_NE(tag, kInvalidTag);

  {
    AsyncQuery query = (*flix)->pee().FindDescendantsByTagAsync(
        collection->GlobalId(0, 0), tag, {}, /*capacity=*/1);
    query.Next();  // maybe one result
  }  // handle destruction cancels the stream and joins the worker
  SUCCEED();
}

TEST(PeeTest, ChildAxisCrossesMetaDocuments) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.config = MdbConfig::kNaive;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());
  const PathExpressionEvaluator& pee = (*flix)->pee();

  // d0 root: tree children b(1) and link(2).
  const std::vector<Result> root_children = pee.Children(c.GlobalId(0, 0));
  EXPECT_EQ(Nodes(root_children),
            (std::set<NodeId>{c.GlobalId(0, 1), c.GlobalId(0, 2)}));
  // The link element's child via the cross link: d1's root.
  const std::vector<Result> link_children = pee.Children(c.GlobalId(0, 2));
  EXPECT_EQ(Nodes(link_children), (std::set<NodeId>{c.GlobalId(1, 0)}));
  // Tag filter.
  EXPECT_EQ(pee.ChildrenByTag(c.GlobalId(0, 0), c.pool().Lookup("b")).size(),
            1u);
}

TEST(PeeTest, ParentAxisIncludesLinkOrigins) {
  const xml::Collection c = ChainedCollection();
  FlixOptions options;
  options.config = MdbConfig::kNaive;
  auto flix = Flix::Build(c, options);
  ASSERT_TRUE(flix.ok());
  const PathExpressionEvaluator& pee = (*flix)->pee();

  // d1's root has no tree parent but is the target of d0's link element.
  const std::vector<Result> parents = pee.Parents(c.GlobalId(1, 0));
  EXPECT_EQ(Nodes(parents), (std::set<NodeId>{c.GlobalId(0, 2)}));
  // A mid-document element has its plain tree parent.
  EXPECT_EQ(Nodes(pee.Parents(c.GlobalId(0, 1))),
            (std::set<NodeId>{c.GlobalId(0, 0)}));
  // d0's root is itself linked from d2 (the cycle-closing link element).
  EXPECT_EQ(Nodes(pee.Parents(c.GlobalId(0, 0))),
            (std::set<NodeId>{c.GlobalId(2, 3)}));
}

TEST(PeeTest, ChildAndParentAxesMatchGraph) {
  // Property: Children/Parents agree with the global element graph across
  // configurations.
  const xml::Collection c = ChainedCollection();
  const graph::Digraph g = c.BuildGraph();
  for (const MdbConfig config :
       {MdbConfig::kNaive, MdbConfig::kUnconnectedHopi, MdbConfig::kHybrid}) {
    FlixOptions options;
    options.config = config;
    options.partition_bound = 4;
    auto flix = Flix::Build(c, options);
    ASSERT_TRUE(flix.ok());
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      std::set<NodeId> expected_children;
      for (const graph::Digraph::Arc& arc : g.OutArcs(v)) {
        expected_children.insert(arc.target);
      }
      EXPECT_EQ(Nodes((*flix)->pee().Children(v)), expected_children)
          << "children of " << v << " under " << MdbConfigName(config);
      std::set<NodeId> expected_parents;
      for (const graph::Digraph::Arc& arc : g.InArcs(v)) {
        expected_parents.insert(arc.target);
      }
      EXPECT_EQ(Nodes((*flix)->pee().Parents(v)), expected_parents)
          << "parents of " << v << " under " << MdbConfigName(config);
    }
  }
}

TEST(PeeTest, SiblingsExcludeSelf) {
  xml::Collection c;
  ASSERT_TRUE(c.AddXml("<a><b/><c/><d/></a>", "doc").ok());
  c.ResolveAllLinks();
  auto flix = Flix::Build(c, {});
  ASSERT_TRUE(flix.ok());
  const std::vector<Result> siblings =
      (*flix)->pee().Siblings(c.GlobalId(0, 2));  // element c
  EXPECT_EQ(Nodes(siblings),
            (std::set<NodeId>{c.GlobalId(0, 1), c.GlobalId(0, 3)}));
  EXPECT_TRUE((*flix)->pee().Siblings(c.GlobalId(0, 0)).empty());
}

TEST(PeeTest, CyclicLinksDoNotLoopForever) {
  // d0 -> d1 -> d2 -> d0 cycle in ChainedCollection; a wildcard query from
  // any root must terminate and visit each reachable node exactly once.
  const xml::Collection c = ChainedCollection();
  const graph::Digraph g = c.BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  const size_t expected = oracle.Descendants(c.GlobalId(0, 0)).size();
  for (const MdbConfig config :
       {MdbConfig::kNaive, MdbConfig::kUnconnectedHopi}) {
    FlixOptions options;
    options.config = config;
    options.partition_bound = 4;
    auto flix = Flix::Build(c, options);
    ASSERT_TRUE(flix.ok());
    std::vector<Result> results;
    (*flix)->pee().FindDescendants(c.GlobalId(0, 0), {},
                                   [&](const Result& r) {
                                     results.push_back(r);
                                     return true;
                                   });
    EXPECT_EQ(Nodes(results).size(), results.size());
    EXPECT_EQ(results.size(), expected);
  }
}

}  // namespace
}  // namespace flix::core
