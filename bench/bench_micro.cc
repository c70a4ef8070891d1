// google-benchmark microbenchmarks for the index primitives: build cost and
// query latency of each path indexing strategy, the PEE's streamed
// evaluation, and the partitioner. Complements the table/figure harnesses,
// which measure end-to-end shapes; this measures the building blocks.
//
//   $ ./bench_micro [--benchmark_filter=...]
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "flix/flix.h"
#include "graph/partition.h"
#include "index/hopi.h"
#include "index/ppo.h"
#include "index/summary_index.h"
#include "workload/dblp_generator.h"
#include "workload/synthetic_generator.h"

namespace {

using namespace flix;

// Shared corpora, built once (google-benchmark re-enters each benchmark).
const xml::Collection& DblpCorpus() {
  static const xml::Collection* corpus = [] {
    workload::DblpOptions options;
    options.num_publications = 1000;
    auto c = workload::GenerateDblp(options);
    return new xml::Collection(std::move(c).value());
  }();
  return *corpus;
}

const graph::Digraph& DblpGraph() {
  static const graph::Digraph* g =
      new graph::Digraph(DblpCorpus().BuildGraph());
  return *g;
}

graph::Digraph RandomForest(size_t n) {
  Rng rng(1);
  graph::Digraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode(static_cast<TagId>(rng.Uniform(8)));
  for (NodeId i = 1; i < n; ++i) {
    g.AddEdge(static_cast<NodeId>(rng.Uniform(i)), i);
  }
  return g;
}

void BM_ParseDblpDocument(benchmark::State& state) {
  Rng rng(3);
  workload::DblpOptions options;
  const std::string text = workload::GeneratePublicationXml(options, 500, rng);
  for (auto _ : state) {
    xml::NamePool pool;
    auto doc = xml::ParseDocument(text, "bench", pool);
    benchmark::DoNotOptimize(doc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ParseDblpDocument);

void BM_PpoBuild(benchmark::State& state) {
  const graph::Digraph g = RandomForest(state.range(0));
  for (auto _ : state) {
    auto index = index::PpoIndex::Build(g);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PpoBuild)->Arg(1000)->Arg(10000);

void BM_HopiBuild(benchmark::State& state) {
  std::vector<NodeId> nodes;
  const graph::Digraph& full = DblpGraph();
  for (NodeId v = 0; v < static_cast<NodeId>(state.range(0)); ++v) {
    nodes.push_back(v);
  }
  const graph::Digraph g = full.InducedSubgraph(nodes);
  for (auto _ : state) {
    auto index = index::HopiIndex::Build(g);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HopiBuild)->Arg(2000)->Arg(8000);

void BM_ApexBuild(benchmark::State& state) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < static_cast<NodeId>(state.range(0)); ++v) {
    nodes.push_back(v);
  }
  const graph::Digraph g = DblpGraph().InducedSubgraph(nodes);
  for (auto _ : state) {
    auto index = index::SummaryIndex::BuildApex(g);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApexBuild)->Arg(2000)->Arg(8000);

void BM_FbSummaryBuild(benchmark::State& state) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < static_cast<NodeId>(state.range(0)); ++v) {
    nodes.push_back(v);
  }
  const graph::Digraph g = DblpGraph().InducedSubgraph(nodes);
  for (auto _ : state) {
    auto index = index::SummaryIndex::BuildFb(g);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_FbSummaryBuild)->Arg(2000);

void BM_HopiDistanceQuery(benchmark::State& state) {
  static const auto index = index::HopiIndex::Build(DblpGraph());
  const size_t n = DblpGraph().NumNodes();
  Rng rng(7);
  for (auto _ : state) {
    const NodeId a = static_cast<NodeId>(rng.Uniform(n));
    const NodeId b = static_cast<NodeId>(rng.Uniform(n));
    benchmark::DoNotOptimize(index->DistanceBetween(a, b));
  }
}
BENCHMARK(BM_HopiDistanceQuery);

void BM_HopiDescendantsByTag(benchmark::State& state) {
  static const auto index = index::HopiIndex::Build(DblpGraph());
  const TagId article = DblpCorpus().pool().Lookup("article");
  Rng rng(9);
  const size_t docs = DblpCorpus().NumDocuments();
  for (auto _ : state) {
    const NodeId start = DblpCorpus().GlobalId(
        static_cast<DocId>(rng.Uniform(docs)), 0);
    benchmark::DoNotOptimize(index->DescendantsByTag(start, article));
  }
}
BENCHMARK(BM_HopiDescendantsByTag);

void BM_PartitionBySize(benchmark::State& state) {
  const std::vector<uint32_t> doc_of = DblpCorpus().DocOfNode();
  for (auto _ : state) {
    graph::PartitionOptions options;
    options.max_nodes = static_cast<size_t>(state.range(0));
    auto parts = graph::PartitionBySize(DblpGraph(), options, &doc_of);
    benchmark::DoNotOptimize(parts);
  }
}
BENCHMARK(BM_PartitionBySize)->Arg(1000)->Arg(5000);

void BM_FlixBuild(benchmark::State& state) {
  for (auto _ : state) {
    core::FlixOptions options;
    options.config = static_cast<core::MdbConfig>(state.range(0));
    options.partition_bound = 5000;
    auto flix = core::Flix::Build(DblpCorpus(), options);
    benchmark::DoNotOptimize(flix);
  }
}
BENCHMARK(BM_FlixBuild)
    ->Arg(static_cast<int>(core::MdbConfig::kNaive))
    ->Arg(static_cast<int>(core::MdbConfig::kMaximalPpo))
    ->Arg(static_cast<int>(core::MdbConfig::kUnconnectedHopi))
    ->Arg(static_cast<int>(core::MdbConfig::kHybrid));

void BM_PeeStreamedQuery(benchmark::State& state) {
  static const auto flix = [] {
    core::FlixOptions options;
    options.config = core::MdbConfig::kHybrid;
    options.partition_bound = 5000;
    return std::move(core::Flix::Build(DblpCorpus(), options)).value();
  }();
  const NodeId start =
      DblpCorpus().GlobalId(static_cast<DocId>(DblpCorpus().NumDocuments() - 1), 0);
  const TagId article = DblpCorpus().pool().Lookup("article");
  for (auto _ : state) {
    size_t count = 0;
    core::QueryOptions options;
    options.max_results = 100;
    flix->pee().FindDescendantsByTag(start, article, options,
                                     [&](const core::Result&) {
                                       ++count;
                                       return true;
                                     });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PeeStreamedQuery);

void BM_PeeConnectionTest(benchmark::State& state) {
  static const auto flix = [] {
    core::FlixOptions options;
    options.config = core::MdbConfig::kHybrid;
    return std::move(core::Flix::Build(DblpCorpus(), options)).value();
  }();
  const size_t n = DblpCorpus().NumElements();
  Rng rng(13);
  for (auto _ : state) {
    const NodeId a = static_cast<NodeId>(rng.Uniform(n));
    const NodeId b = static_cast<NodeId>(rng.Uniform(n));
    benchmark::DoNotOptimize(flix->IsConnected(a, b));
  }
}
BENCHMARK(BM_PeeConnectionTest);

}  // namespace

// Expanded BENCHMARK_MAIN() so the metrics block lands after the report:
// the FliX builds and PEE queries above feed the registry as a side effect.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  flix::bench::EmitMetricsBlock("micro");
  return 0;
}
