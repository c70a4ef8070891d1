// Ablation X3 (DESIGN.md): cost of the other expression types of Section
// 5.2 — A//B type queries (all starts enter the queue at priority 0),
// ancestors-or-self evaluation, wildcard descendants, and distance queries —
// across the FliX configurations.
//
//   $ ./bench_query_types [--pubs 2000]
#include "bench/bench_util.h"

#include <vector>

#include "workload/query_workload.h"

int main(int argc, char** argv) {
  using namespace flix;
  const size_t pubs = bench::FlagOr(argc, argv, "--pubs", 2000);

  std::printf("=== Query types across configurations (Section 5.2) ===\n");
  xml::Collection collection = bench::MakeCorpus(pubs);
  const graph::Digraph g = collection.BuildGraph();
  std::printf("corpus: %zu documents, %zu elements\n\n",
              collection.NumDocuments(), collection.NumElements());

  const TagId article = collection.pool().Lookup("article");
  const TagId inproceedings = collection.pool().Lookup("inproceedings");
  const TagId author = collection.pool().Lookup("author");

  // Starts for point-ish queries.
  std::vector<NodeId> starts;
  for (DocId d = collection.NumDocuments(); d-- > 0 && starts.size() < 10;) {
    starts.push_back(collection.GlobalId(d, 0));
  }
  const auto pairs = workload::SampleConnectionPairs(g, 20, 101);

  std::printf("%-12s %12s %12s %12s %12s %12s\n", "index", "a//B [ms]",
              "a//* [ms]", "anc [ms]", "A//B [ms]", "dist [ms]");
  // Work counters of the monolithic-HOPI A//B row: all starts share one
  // partition, so this is where the entry-point dominance test is busiest.
  core::QueryStats hopi_type;
  for (const bench::Setup& setup : bench::PaperSetups()) {
    const auto flix = bench::MustBuild(collection, setup.options);
    size_t sink_count = 0;
    const auto count_sink = [&](const core::Result&) {
      ++sink_count;
      return true;
    };

    Stopwatch watch;
    for (const NodeId start : starts) {
      flix->pee().FindDescendantsByTag(start, article, {}, count_sink);
    }
    const double desc_ms = watch.ElapsedMillis() / starts.size();

    watch.Restart();
    for (const NodeId start : starts) {
      core::QueryOptions options;
      options.max_results = 500;
      flix->pee().FindDescendants(start, options, count_sink);
    }
    const double wild_ms = watch.ElapsedMillis() / starts.size();

    // Ancestors of a deep element (an author) in each start document.
    std::vector<NodeId> deep;
    for (const NodeId start : starts) {
      const auto loc = collection.Locate(start);
      const auto& doc = collection.document(loc.doc);
      for (xml::ElementId e = 0; e < doc.NumElements(); ++e) {
        if (doc.element(e).tag == author) {
          deep.push_back(collection.GlobalId(loc.doc, e));
          break;
        }
      }
    }
    watch.Restart();
    for (const NodeId node : deep) {
      flix->pee().FindAncestorsByTag(node, inproceedings, {}, count_sink);
    }
    const double anc_ms = watch.ElapsedMillis() / std::max<size_t>(1, deep.size());

    // A//B with a bounded result count (it touches every inproceedings).
    watch.Restart();
    core::QueryStats type_stats;
    {
      core::QueryOptions options;
      options.max_results = 1000;
      flix->pee().EvaluateTypeQuery(inproceedings, article, options,
                                    count_sink, &type_stats);
    }
    const double type_ms = watch.ElapsedMillis();
    if (setup.label == "HOPI") hopi_type = type_stats;

    watch.Restart();
    for (const auto& [a, b] : pairs) flix->FindDistance(a, b);
    const double dist_ms = watch.ElapsedMillis() / pairs.size();

    std::printf("%-12s %12.3f %12.3f %12.3f %12.3f %12.3f\n",
                setup.label.c_str(), desc_ms, wild_ms, anc_ms, type_ms,
                dist_ms);
  }

  std::printf(
      "\nexpected: a//B follows Figure 5's ranking; a//* flips it (the "
      "monolithic indexes must enumerate the whole reachable set before "
      "streaming, while fine meta documents stream immediately); ancestors "
      "are cheap everywhere (reverse labels / reverse BFS); A//B puts every "
      "tag-A element into the queue at priority 0 (Section 5.2), and the "
      "starts sharing a partition open one multi-source cursor pair, so the "
      "monolithic indexes answer it with a single merge (HOPI) or BFS "
      "(APEX) — its cost grows with the partitions and the dominance "
      "checks, not with the starts; distance queries are the cheapest "
      "thanks to early termination.\n");

  // Deterministic work counts, not wall clock. Every entry point after the
  // first of its partition is checked once; HOPI's hub-union cover answers
  // each check with one lookup, where a pairwise IsReachable scan would
  // spend one probe per admitted entry (quadratic in the starts). All
  // starts sit in the one partition at distance 0, so they form a single
  // entry batch: one local and one frontier cursor, where a cursor per
  // start would open two per entry point.
  const size_t hopi_checked =
      hopi_type.entries_processed + hopi_type.entries_dominated;
  std::printf("\nHOPI A//B: %zu entries processed, %zu dominated, %zu "
              "dominance probes, %zu cursors opened, %zu cursor pulls\n",
              hopi_type.entries_processed, hopi_type.entries_dominated,
              hopi_type.dominance_probes, hopi_type.cursors_opened,
              hopi_type.cursor_pulls);
  bench::Check("HOPI A//B dominance probes <= entries checked",
               hopi_checked > 0 && hopi_type.dominance_probes <= hopi_checked);
  bench::Check("HOPI A//B opens one cursor pair (one batch, one partition)",
               hopi_type.entries_processed > 1 &&
                   hopi_type.cursors_opened <= 2);
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("bench.hopi_type.dominance_probes")
      .Set(static_cast<int64_t>(hopi_type.dominance_probes));
  reg.GetGauge("bench.hopi_type.entries_processed")
      .Set(static_cast<int64_t>(hopi_type.entries_processed));
  reg.GetGauge("bench.hopi_type.cursors_opened")
      .Set(static_cast<int64_t>(hopi_type.cursors_opened));
  reg.GetGauge("bench.hopi_type.cursor_pulls")
      .Set(static_cast<int64_t>(hopi_type.cursor_pulls));
  bench::EmitMetricsBlock("query_types", {bench::Config("pubs", pubs)});
  return bench::ExitCode();
}
