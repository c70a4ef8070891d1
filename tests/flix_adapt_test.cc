// Workload-adaptive ISS tests (flix/adapt.h): the cost model turns a skewed
// workload profile into migration recommendations, StrategyMigrator swaps a
// partition's strategy atomically with zero result diffs, hysteresis keeps
// the system from flapping, a corrupted replacement is rejected with the old
// index staying live, and queries race migrations safely (the `adapt` ctest
// label is part of the TSan CI matrix).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "check/corruption.h"
#include "flix/adapt.h"
#include "flix/flix.h"
#include "graph/traversal.h"
#include "index/hopi.h"
#include "obs/metrics.h"
#include "workload/query_workload.h"
#include "workload/synthetic_generator.h"

namespace flix::core {
namespace {

using index::StrategyKind;

// Deliberately synthetic constants (NOT CostModel::Measured()): APEX probes
// and pulls are 100x HOPI's and a HOPI rebuild is cheap, so a partition that
// serves any real traffic under APEX always projects a decisive HOPI win —
// the deterministic APEX -> HOPI direction every test below relies on. PPO
// is priced out so forest-shaped partitions don't steal the recommendation.
CostModel TestModel() {
  CostModel model;
  model.ppo = {/*probe_ns=*/500, /*pull_ns=*/500, /*bytes_per_node=*/30,
               /*build_ns_per_node=*/100};
  model.hopi = {/*probe_ns=*/10, /*pull_ns=*/10, /*bytes_per_node=*/200,
                /*build_ns_per_node=*/10};
  model.apex = {/*probe_ns=*/1000, /*pull_ns=*/1000, /*bytes_per_node=*/90,
                /*build_ns_per_node=*/50};
  return model;
}

// Several linked-document groups plus isolated documents: enough meta
// documents that the skew between a hot and a cold partition is visible.
StatusOr<xml::Collection> MakeCollection(uint64_t seed) {
  return workload::GenerateSynthetic(
      {.seed = seed, .tree_docs = 6, .dense_docs = 6, .isolated_docs = 4});
}

// A collection whose index starts out all-APEX: the static ISS was forced to
// the wrong strategy, which is exactly the situation `flixctl adapt` exists
// to repair.
StatusOr<std::unique_ptr<Flix>> BuildForcedApex(
    const xml::Collection& collection) {
  FlixOptions options;
  options.config = MdbConfig::kUnconnectedHopi;
  options.iss_policy = IssPolicy::kForceApex;
  options.partition_bound = 120;
  auto flix = Flix::Build(collection, options);
  if (flix.ok()) (*flix)->SetAdaptiveIss(true);
  return flix;
}

// Runs every query `repeat` times whose start node lives in `partition`
// (pass any large id to run the whole workload) and returns those queries.
std::vector<workload::DescendantQuery> RunSkewedWorkload(
    Flix& flix, const xml::Collection& collection, const graph::Digraph& g,
    uint32_t partition, size_t repeat) {
  workload::QuerySamplerOptions sampler;
  sampler.seed = 31;
  sampler.count = 40;
  std::vector<workload::DescendantQuery> queries =
      workload::SampleDescendantQueries(collection, g, sampler);
  const MetaDocumentSet& set = flix.meta_documents();
  std::erase_if(queries, [&](const workload::DescendantQuery& q) {
    return partition < set.docs.size() &&
           set.meta_of_node[q.start] != partition;
  });
  for (size_t r = 0; r < repeat; ++r) {
    for (const workload::DescendantQuery& q : queries) {
      flix.FindDescendantsByName(q.start, q.tag_name);
    }
  }
  return queries;
}

// Result-set equality as sorted (node, distance) multisets: result order may
// legitimately differ across strategies, the contents must not.
bool SameResults(std::vector<Result> a, std::vector<Result> b) {
  const auto by_node = [](const Result& x, const Result& y) {
    return x.node != y.node ? x.node < y.node : x.distance < y.distance;
  };
  std::sort(a.begin(), a.end(), by_node);
  std::sort(b.begin(), b.end(), by_node);
  return a == b;
}

StrategyKind LiveKind(const Flix& flix, uint32_t partition) {
  return flix.meta_documents().docs[partition].index.Acquire()->kind();
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

TEST(AdaptTest, SkewedWorkloadDrivesRecommendation) {
  const auto collection = MakeCollection(41);
  ASSERT_TRUE(collection.ok());
  auto flix = BuildForcedApex(*collection);
  ASSERT_TRUE(flix.ok()) << flix.status().ToString();
  const graph::Digraph g = collection->BuildGraph();
  ASSERT_GT((*flix)->meta_documents().docs.size(), 1u);

  // Hammer partition 0 only; everything else stays cold.
  const uint32_t hot = 0;
  ASSERT_FALSE(RunSkewedWorkload(**flix, *collection, g, hot, 5).empty());

  const uint64_t recommended_before = CounterValue("flix.adapt.recommended");
  AdaptOptions options;
  options.hysteresis = 0;
  options.min_queries = 4;
  const std::vector<Recommendation> recs =
      RecommendStrategies(**flix, (*flix)->Profile(), TestModel(), options);
  EXPECT_GT(CounterValue("flix.adapt.recommended"), recommended_before);

  bool hot_migrates = false;
  for (const Recommendation& rec : recs) {
    if (rec.partition == hot) {
      hot_migrates = rec.migrate;
      EXPECT_EQ(rec.current, StrategyKind::kApex);
      EXPECT_EQ(rec.best, StrategyKind::kHopi);
      EXPECT_LT(rec.best_cost_ns, rec.current_cost_ns);
      EXPECT_GE(rec.queries, options.min_queries);
    }
    // Evidence gating: a partition the skewed workload never touched (its
    // queries stay under min_queries) is never migrated. Partitions the hot
    // queries reach across links may legitimately be warm.
    if (rec.queries < options.min_queries) {
      EXPECT_FALSE(rec.migrate) << "partition " << rec.partition;
    }
  }
  EXPECT_TRUE(hot_migrates);
  const auto untouched = std::count_if(
      recs.begin(), recs.end(), [&](const Recommendation& rec) {
        return rec.queries < options.min_queries;
      });
  EXPECT_GT(untouched, 0) << "workload was not actually skewed";

  // The rendered table carries the verdict the operator acts on.
  const std::string table = RecommendationsToText(recs);
  EXPECT_NE(table.find("migrate"), std::string::npos);
  EXPECT_NE(table.find("partition"), std::string::npos);
}

TEST(AdaptTest, MigrationSwapsStrategyWithIdenticalResults) {
  const auto collection = MakeCollection(43);
  ASSERT_TRUE(collection.ok());
  auto flix = BuildForcedApex(*collection);
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = collection->BuildGraph();

  const uint32_t hot = 0;
  const std::vector<workload::DescendantQuery> queries =
      RunSkewedWorkload(**flix, *collection, g, hot, 3);
  ASSERT_FALSE(queries.empty());
  std::vector<std::vector<Result>> before;
  for (const workload::DescendantQuery& q : queries) {
    before.push_back((*flix)->FindDescendantsByName(q.start, q.tag_name));
  }

  AdaptOptions options;
  options.hysteresis = 0;
  options.min_queries = 1;
  StrategyMigrator migrator(**flix, TestModel(), options);
  Recommendation rec;
  rec.partition = hot;
  rec.best = StrategyKind::kHopi;
  rec.migrate = true;

  const uint64_t migrated_before = CounterValue("flix.adapt.migrated");
  ASSERT_EQ(LiveKind(**flix, hot), StrategyKind::kApex);
  const Status status = migrator.Migrate(rec);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(LiveKind(**flix, hot), StrategyKind::kHopi);
  EXPECT_EQ(CounterValue("flix.adapt.migrated"), migrated_before + 1);

  // The migration is invisible to query results.
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameResults(
        (*flix)->FindDescendantsByName(queries[i].start, queries[i].tag_name),
        before[i]))
        << "query " << i << " diverged after migration";
  }

  // The profiler now attributes the partition to its new strategy.
  for (const obs::PartitionProfile& p : (*flix)->Profile().partitions) {
    if (p.partition == hot) {
      EXPECT_EQ(p.strategy, "HOPI");
    }
  }

  // Migrating to the strategy already live is a no-op, not an error.
  EXPECT_TRUE(migrator.Migrate(rec).ok());
  EXPECT_EQ(CounterValue("flix.adapt.migrated"), migrated_before + 1);
}

TEST(AdaptTest, MigrationRequiresAdaptiveIss) {
  const auto collection = MakeCollection(47);
  ASSERT_TRUE(collection.ok());
  FlixOptions options;
  options.config = MdbConfig::kUnconnectedHopi;
  options.iss_policy = IssPolicy::kForceApex;
  auto flix = Flix::Build(*collection, options);  // adaptive_iss stays false
  ASSERT_TRUE(flix.ok());

  StrategyMigrator migrator(**flix, TestModel());
  Recommendation rec;
  rec.partition = 0;
  rec.best = StrategyKind::kHopi;
  EXPECT_FALSE(migrator.Migrate(rec).ok());
  EXPECT_EQ(LiveKind(**flix, 0), StrategyKind::kApex);
}

TEST(AdaptTest, HysteresisSuppressesFlapping) {
  const auto collection = MakeCollection(53);
  ASSERT_TRUE(collection.ok());
  auto flix = BuildForcedApex(*collection);
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = collection->BuildGraph();
  RunSkewedWorkload(**flix, *collection, g, /*partition=*/~0u, /*repeat=*/3);

  AdaptOptions eager;
  eager.hysteresis = 0;
  eager.min_queries = 1;
  {
    StrategyMigrator migrator(**flix, TestModel(), eager);
    const auto migrated = migrator.RunOnce();
    ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
    EXPECT_GT(*migrated, 0u);
    // Immediately re-running finds every migrated partition already on its
    // cheapest strategy: a stable fixed point, not an oscillation.
    const auto again = migrator.RunOnce();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, 0u);
  }

  // Flip the model so APEX looks marginally cheaper than the now-live HOPI,
  // but demand an absurd payback multiple: the win is positive yet under the
  // bar, so the verdict is rejected_hysteresis — and nothing migrates back.
  CostModel flipped = TestModel();
  flipped.apex.probe_ns = flipped.hopi.probe_ns / 2;
  flipped.apex.pull_ns = flipped.hopi.pull_ns / 2;
  AdaptOptions strict;
  strict.hysteresis = 1e9;
  strict.min_queries = 1;
  const uint64_t rejected_before =
      CounterValue("flix.adapt.rejected_hysteresis");
  const std::vector<Recommendation> recs =
      RecommendStrategies(**flix, (*flix)->Profile(), flipped, strict);
  bool saw_rejection = false;
  for (const Recommendation& rec : recs) {
    EXPECT_FALSE(rec.migrate);
    saw_rejection |= rec.rejected_hysteresis;
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GT(CounterValue("flix.adapt.rejected_hysteresis"), rejected_before);

  StrategyMigrator migrator(**flix, flipped, strict);
  const auto migrated = migrator.RunOnce();
  ASSERT_TRUE(migrated.ok());
  EXPECT_EQ(*migrated, 0u);
}

TEST(AdaptTest, CorruptReplacementIsRejectedAndOldIndexStaysLive) {
  const auto collection = MakeCollection(59);
  ASSERT_TRUE(collection.ok());
  auto flix = BuildForcedApex(*collection);
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = collection->BuildGraph();

  const uint32_t hot = 0;
  const std::vector<workload::DescendantQuery> queries =
      RunSkewedWorkload(**flix, *collection, g, hot, 2);
  ASSERT_FALSE(queries.empty());
  std::vector<std::vector<Result>> before;
  for (const workload::DescendantQuery& q : queries) {
    before.push_back((*flix)->FindDescendantsByName(q.start, q.tag_name));
  }

  MigrationOptions migration;
  migration.validate.deep = true;  // exhaustive probes: detection guaranteed
  migration.replacement_hook = [](index::PathIndex& replacement) {
    auto* hopi = dynamic_cast<index::HopiIndex*>(&replacement);
    ASSERT_NE(hopi, nullptr);
    bool skewed = false;
    for (NodeId v = 0; !skewed; ++v) {
      skewed = index::CorruptionHook::SkewHopiLabelDistance(*hopi, v);
    }
  };
  StrategyMigrator migrator(**flix, TestModel(), {}, migration);
  Recommendation rec;
  rec.partition = hot;
  rec.best = StrategyKind::kHopi;

  const uint64_t failed_before = CounterValue("flix.adapt.validation_failed");
  EXPECT_FALSE(migrator.Migrate(rec).ok());
  EXPECT_EQ(CounterValue("flix.adapt.validation_failed"), failed_before + 1);

  // The old index never left: still APEX, still answering correctly.
  EXPECT_EQ(LiveKind(**flix, hot), StrategyKind::kApex);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameResults(
        (*flix)->FindDescendantsByName(queries[i].start, queries[i].tag_name),
        before[i]));
  }
}

// Result nodes of the type query start_tag//result_tag, sorted.
std::vector<NodeId> TypeQueryNodes(const Flix& flix, TagId start_tag,
                                   TagId result_tag) {
  std::vector<NodeId> nodes;
  flix.pee().EvaluateTypeQuery(start_tag, result_tag, {},
                               [&nodes](const Result& r) {
                                 nodes.push_back(r.node);
                                 return true;
                               });
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

// TSan target: queries stream results from partition `hot` while a migrator
// thread swaps its index back and forth. Every query must see a complete,
// correct result set no matter which side of a swap its cursors landed on.
// Half the reader queries are A//B type queries whose start tag has several
// elements in `hot`, so the partition's dominance cover (pinned to one index
// snapshot) is alive across the swaps.
TEST(AdaptStressTest, QueriesRaceMigrationsSafely) {
  const auto collection = MakeCollection(61);
  ASSERT_TRUE(collection.ok());
  auto flix = BuildForcedApex(*collection);
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = collection->BuildGraph();

  const uint32_t hot = 0;
  const std::vector<workload::DescendantQuery> queries =
      RunSkewedWorkload(**flix, *collection, g, hot, 1);
  ASSERT_FALSE(queries.empty());
  std::vector<std::vector<Result>> expected;
  for (const workload::DescendantQuery& q : queries) {
    expected.push_back((*flix)->FindDescendantsByName(q.start, q.tag_name));
  }

  const MetaDocument& hot_doc = (*flix)->meta_documents().docs[hot];
  std::vector<std::pair<TagId, TagId>> type_queries;
  for (const workload::DescendantQuery& q : queries) {
    const TagId start_tag = g.Tag(q.start);
    if (start_tag != q.tag &&
        hot_doc.graph.NodesWithTag(start_tag).size() > 1) {
      type_queries.emplace_back(start_tag, q.tag);
    }
  }
  ASSERT_FALSE(type_queries.empty());
  std::vector<std::vector<NodeId>> expected_types;
  for (const auto& [start_tag, result_tag] : type_queries) {
    expected_types.push_back(TypeQueryNodes(**flix, start_tag, result_tag));
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        bool same = false;
        if (i % 2 == 0) {
          const size_t k = (i / 2) % queries.size();
          same = SameResults(
              (*flix)->FindDescendantsByName(queries[k].start,
                                             queries[k].tag_name),
              expected[k]);
        } else {
          const size_t k = (i / 2) % type_queries.size();
          same = TypeQueryNodes(**flix, type_queries[k].first,
                                type_queries[k].second) == expected_types[k];
        }
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }

  StrategyMigrator migrator(**flix, TestModel());
  size_t swaps = 0;
  for (int round = 0; round < 6; ++round) {
    Recommendation rec;
    rec.partition = hot;
    rec.best = (round % 2 == 0) ? StrategyKind::kHopi : StrategyKind::kApex;
    const Status status = migrator.Migrate(rec);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ++swaps;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(swaps, 6u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(LiveKind(**flix, hot), StrategyKind::kApex);  // 6 swaps: back home
}

}  // namespace
}  // namespace flix::core
