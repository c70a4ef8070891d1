// End-to-end tests: generate collections, build every FliX configuration,
// and validate query results against the BFS oracle on the full element
// graph — the framework-level contract of the paper.
#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "flix/flix.h"
#include "graph/traversal.h"
#include "graph/tree_utils.h"
#include "workload/dblp_generator.h"
#include "workload/query_workload.h"
#include "workload/synthetic_generator.h"

namespace flix::core {
namespace {

// gtest lists a parameter it has no printer for by its bytes, and ctest
// takes that listing into each test's name. So the struct has no implicit
// padding, whose bytes are indeterminate and would make the names differ
// between builds.
struct ConfigParam {
  MdbConfig config;
  uint32_t padding = 0;
  size_t partition_bound;
};
static_assert(std::has_unique_object_representations_v<ConfigParam>);

std::string ConfigName(const ::testing::TestParamInfo<ConfigParam>& info) {
  return std::string(MdbConfigName(info.param.config)) + "_b" +
         std::to_string(info.param.partition_bound);
}

class IntegrationTest : public ::testing::TestWithParam<ConfigParam> {
 protected:
  static FlixOptions Options(const ConfigParam& p) {
    FlixOptions options;
    options.config = p.config;
    options.partition_bound = p.partition_bound;
    return options;
  }
};

TEST_P(IntegrationTest, SyntheticCollectionAllQueriesMatchOracle) {
  const auto collection = workload::GenerateSynthetic(
      {.seed = 11, .tree_docs = 5, .dense_docs = 7, .isolated_docs = 2});
  ASSERT_TRUE(collection.ok());
  auto flix = Flix::Build(*collection, Options(GetParam()));
  ASSERT_TRUE(flix.ok()) << flix.status().ToString();

  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);

  workload::QuerySamplerOptions sampler;
  sampler.seed = 5;
  sampler.count = 12;
  const std::vector<workload::DescendantQuery> queries =
      workload::SampleDescendantQueries(*collection, g, sampler);
  ASSERT_FALSE(queries.empty());

  for (const workload::DescendantQuery& q : queries) {
    const std::vector<Result> results =
        (*flix)->FindDescendantsByName(q.start, q.tag_name);
    EXPECT_TRUE(workload::SameResultSet(results,
                                        oracle.DescendantsByTag(q.start, q.tag)))
        << "query " << q.tag_name << " from " << q.start;
  }
}

TEST_P(IntegrationTest, SyntheticConnectionPairsMatchOracle) {
  const auto collection = workload::GenerateSynthetic({.seed = 13});
  ASSERT_TRUE(collection.ok());
  auto flix = Flix::Build(*collection, Options(GetParam()));
  ASSERT_TRUE(flix.ok());

  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  const auto pairs = workload::SampleConnectionPairs(g, 30, 17);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ((*flix)->IsConnected(a, b), oracle.IsReachable(a, b))
        << a << "->" << b;
  }
}

TEST_P(IntegrationTest, MiniDblpDescendantsMatchOracle) {
  workload::DblpOptions dblp;
  dblp.num_publications = 150;
  dblp.seed = 19;
  const auto collection = workload::GenerateDblp(dblp);
  ASSERT_TRUE(collection.ok()) << collection.status().ToString();
  auto flix = Flix::Build(*collection, Options(GetParam()));
  ASSERT_TRUE(flix.ok());

  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);
  const TagId article = collection->pool().Lookup("article");
  ASSERT_NE(article, kInvalidTag);

  // Descendant articles of a handful of publication roots.
  for (DocId d = 0; d < collection->NumDocuments(); d += 29) {
    const NodeId start = collection->GlobalId(d, 0);
    const std::vector<Result> results =
        (*flix)->FindDescendantsByName(start, "article");
    EXPECT_TRUE(workload::SameResultSet(
        results, oracle.DescendantsByTag(start, article)))
        << "start doc " << d;
  }
}

TEST_P(IntegrationTest, StatsAreConsistent) {
  const auto collection = workload::GenerateSynthetic({.seed = 23});
  ASSERT_TRUE(collection.ok());
  auto flix = Flix::Build(*collection, Options(GetParam()));
  ASSERT_TRUE(flix.ok());
  const FlixStats& stats = (*flix)->stats();
  EXPECT_EQ(stats.num_meta_documents, (*flix)->meta_documents().docs.size());
  EXPECT_EQ(stats.per_meta.size(), stats.num_meta_documents);
  EXPECT_EQ(stats.num_ppo + stats.num_hopi + stats.num_apex,
            stats.num_meta_documents);
  EXPECT_GT(stats.total_index_bytes, 0u);
  size_t nodes = 0;
  for (const MetaIndexStats& m : stats.per_meta) nodes += m.nodes;
  EXPECT_EQ(nodes, collection->NumElements());
}

TEST_P(IntegrationTest, EveryMetaDocumentHasAnIndexMatchingItsStructure) {
  const auto collection = workload::GenerateSynthetic({.seed = 29});
  ASSERT_TRUE(collection.ok());
  const ConfigParam p = GetParam();
  auto flix = Flix::Build(*collection, Options(p));
  ASSERT_TRUE(flix.ok());
  for (const MetaDocument& meta : (*flix)->meta_documents().docs) {
    ASSERT_NE(meta.index, nullptr);
    if (meta.index->kind() == index::StrategyKind::kPpo) {
      EXPECT_TRUE(graph::IsForest(meta.graph));
    }
    if (p.config == MdbConfig::kUnconnectedHopi) {
      EXPECT_EQ(meta.index->kind(), index::StrategyKind::kHopi);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, IntegrationTest,
    ::testing::Values(ConfigParam{.config = MdbConfig::kNaive,
                                  .partition_bound = 5000},
                      ConfigParam{.config = MdbConfig::kMaximalPpo,
                                  .partition_bound = 5000},
                      ConfigParam{.config = MdbConfig::kUnconnectedHopi,
                                  .partition_bound = 50},
                      ConfigParam{.config = MdbConfig::kUnconnectedHopi,
                                  .partition_bound = 200},
                      ConfigParam{.config = MdbConfig::kHybrid,
                                  .partition_bound = 50},
                      ConfigParam{.config = MdbConfig::kHybrid,
                                  .partition_bound = 200}),
    ConfigName);

TEST(IntegrationTest, ConfigsAgreeWithEachOther) {
  // All four configurations must return identical result sets for the same
  // queries — only performance may differ.
  const auto collection = workload::GenerateSynthetic({.seed = 31});
  ASSERT_TRUE(collection.ok());
  const graph::Digraph g = collection->BuildGraph();

  workload::QuerySamplerOptions sampler;
  sampler.seed = 37;
  sampler.count = 8;
  const auto queries = workload::SampleDescendantQueries(*collection, g, sampler);
  ASSERT_FALSE(queries.empty());

  std::vector<std::unique_ptr<Flix>> builds;
  for (const MdbConfig config :
       {MdbConfig::kNaive, MdbConfig::kMaximalPpo, MdbConfig::kUnconnectedHopi,
        MdbConfig::kHybrid}) {
    FlixOptions options;
    options.config = config;
    options.partition_bound = 60;
    auto flix = Flix::Build(*collection, options);
    ASSERT_TRUE(flix.ok());
    builds.push_back(std::move(flix).value());
  }
  for (const workload::DescendantQuery& q : queries) {
    std::set<NodeId> reference;
    for (const Result& r :
         builds[0]->FindDescendantsByName(q.start, q.tag_name)) {
      reference.insert(r.node);
    }
    for (size_t i = 1; i < builds.size(); ++i) {
      std::set<NodeId> got;
      for (const Result& r :
           builds[i]->FindDescendantsByName(q.start, q.tag_name)) {
        got.insert(r.node);
      }
      EXPECT_EQ(got, reference) << "config " << i << " query from " << q.start;
    }
  }
}

}  // namespace
}  // namespace flix::core
