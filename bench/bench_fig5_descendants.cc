// Reproduces Figure 5 of the paper: time to return the first k results
// (k = 1..100) of an a//article descendant query, for each of the six
// indexing setups, plus the in-text error rates (fraction of results
// returned out of ascending-distance order: 8.2% HOPI-5000, 10.4%
// HOPI-20000, 13.3% MaximalPPO).
//
// Shape reported by the paper:
//   * HOPI returns all results in near-constant time and is fastest for
//     the full result set;
//   * HOPI-5000 / HOPI-20000 beat HOPI for the *first* results;
//   * MaximalPPO is fastest for the very first results but degrades;
//   * PPO-naive is constantly slower; APEX sits in between.
//
//   $ ./bench_fig5_descendants [--pubs 6210] [--repeats 3]
#include "bench/bench_util.h"

#include <algorithm>
#include <vector>

#include "graph/traversal.h"
#include "workload/query_workload.h"

namespace {

using namespace flix;

// Picks a start element with at least `want` article descendants — the
// paper queries all article descendants of one publication.
NodeId PickStart(const xml::Collection& collection, const graph::Digraph& g,
                 TagId article, size_t want) {
  NodeId best = collection.GlobalId(collection.NumDocuments() - 1, 0);
  size_t best_count = 0;
  // Late publications reach the most cited ancestors; scan a sample.
  for (DocId d = collection.NumDocuments(); d-- > 0;) {
    if ((collection.NumDocuments() - d) > 200) break;
    const NodeId start = collection.GlobalId(d, 0);
    const std::vector<Distance> dist = graph::BfsDistances(g, start);
    size_t count = 0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (v != start && dist[v] != kUnreachable && g.Tag(v) == article) {
        ++count;
      }
    }
    if (count > best_count) {
      best_count = count;
      best = start;
    }
    if (best_count >= want) break;
  }
  std::printf("query start: element %u (%zu article descendants)\n", best,
              best_count);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t pubs = bench::FlagOr(argc, argv, "--pubs", 6210);
  const size_t repeats = bench::FlagOr(argc, argv, "--repeats", 3);

  std::printf("=== Figure 5: time vs. number of results for a//article ===\n");
  xml::Collection collection = bench::MakeCorpus(pubs);
  std::printf("corpus: %zu documents, %zu elements, %zu links\n",
              collection.NumDocuments(), collection.NumElements(),
              bench::InterDocLinks(collection));

  const graph::Digraph g = collection.BuildGraph();
  const TagId article = collection.pool().Lookup("article");
  const NodeId start = PickStart(collection, g, article, 120);

  constexpr int kMaxResults = 100;
  const std::vector<int> checkpoints = {1,  10, 20, 30, 40, 50,
                                        60, 70, 80, 90, 100};

  struct SeriesResult {
    std::string label;
    std::vector<double> time_at_k_ms;  // indexed like checkpoints
    double error_rate = 0;
    size_t total_results = 0;
    double total_time_ms = 0;  // time to stream the complete result set
  };
  std::vector<SeriesResult> series;

  for (const bench::Setup& setup : bench::PaperSetups()) {
    const auto flix = bench::MustBuild(collection, setup.options);
    SeriesResult result;
    result.label = setup.label;
    result.time_at_k_ms.assign(checkpoints.size(), -1);

    for (size_t rep = 0; rep < repeats; ++rep) {
      std::vector<core::Result> results;
      std::vector<double> at_k(checkpoints.size(), -1);
      Stopwatch watch;
      core::QueryOptions options;
      // The figure reproduces the paper's per-block evaluation (and its
      // 8-13% out-of-order rates); the lazy cursor pipeline is measured by
      // bench_topk_streaming instead.
      options.materialize = true;
      options.max_results = kMaxResults;
      flix->pee().FindDescendantsByTag(
          start, article, options, [&](const core::Result& r) {
            results.push_back(r);
            for (size_t c = 0; c < checkpoints.size(); ++c) {
              if (static_cast<int>(results.size()) == checkpoints[c]) {
                at_k[c] = watch.ElapsedMillis();
              }
            }
            return true;
          });
      for (size_t c = 0; c < checkpoints.size(); ++c) {
        if (at_k[c] < 0) continue;
        if (result.time_at_k_ms[c] < 0 || at_k[c] < result.time_at_k_ms[c]) {
          result.time_at_k_ms[c] = at_k[c];  // min over repeats
        }
      }
      if (rep == 0) {
        // Error rate and completion time over the full (uncapped) stream —
        // the paper's "fastest to return all results" claim is about the
        // complete set, not the first 100.
        std::vector<core::Result> full;
        Stopwatch full_watch;
        core::QueryOptions full_options;
        full_options.materialize = true;
        flix->pee().FindDescendantsByTag(start, article, full_options,
                                         [&](const core::Result& r) {
                                           full.push_back(r);
                                           return true;
                                         });
        result.total_time_ms = full_watch.ElapsedMillis();
        result.total_results = full.size();
        result.error_rate = workload::OrderErrorRate(full);
      }
    }
    series.push_back(std::move(result));
  }

  // The figure as a table: rows = #results, columns = setups.
  std::printf("\ntime [ms] to return the first k results (min of %zu runs)\n",
              repeats);
  std::printf("%8s", "k");
  for (const SeriesResult& s : series) std::printf(" %12s", s.label.c_str());
  std::printf("\n");
  for (size_t c = 0; c < checkpoints.size(); ++c) {
    std::printf("%8d", checkpoints[c]);
    for (const SeriesResult& s : series) {
      if (s.time_at_k_ms[c] < 0) {
        std::printf(" %12s", "-");
      } else {
        std::printf(" %12.3f", s.time_at_k_ms[c]);
      }
    }
    std::printf("\n");
  }

  std::printf("\ncomplete result set (%zu results) and error rate (fraction "
              "of results out of ascending-distance order; paper: HOPI-5000 "
              "8.2%%, HOPI-20000 10.4%%, MaximalPPO 13.3%%)\n",
              series.front().total_results);
  for (const SeriesResult& s : series) {
    std::printf("  %-12s all %5zu results in %9.3f ms   error %5.1f%%\n",
                s.label.c_str(), s.total_results, s.total_time_ms,
                100 * s.error_rate);
  }

  const auto find = [&](const std::string& label) -> const SeriesResult& {
    return *std::find_if(series.begin(), series.end(),
                         [&](const SeriesResult& s) { return s.label == label; });
  };
  const size_t k1 = 0;                        // checkpoint index of k=1
  const size_t k100 = checkpoints.size() - 1; // checkpoint index of k=100
  const SeriesResult& hopi = find("HOPI");
  const SeriesResult& hopi5k = find("HOPI-5000");
  const SeriesResult& hopi20k = find("HOPI-20000");
  const SeriesResult& maxppo = find("MaximalPPO");
  const SeriesResult& naive = find("PPO-naive");

  std::printf("\npaper-reported shape:\n");
  bench::Check("HOPI ~constant: t(100) < 3x t(1)",
               hopi.time_at_k_ms[k100] < 3 * hopi.time_at_k_ms[k1] + 0.5);
  bench::Check(
      "HOPI clearly fastest to return the *complete* result set",
      hopi.total_time_ms <= hopi5k.total_time_ms &&
          hopi.total_time_ms <= hopi20k.total_time_ms &&
          hopi.total_time_ms <= maxppo.total_time_ms &&
          hopi.total_time_ms <= naive.total_time_ms);
  bench::Check("HOPI-5000 at least as fast as HOPI for the first result",
               hopi5k.time_at_k_ms[k1] <= hopi.time_at_k_ms[k1] + 0.05);
  bench::Check("HOPI-20000 at least as fast as HOPI for the first result",
               hopi20k.time_at_k_ms[k1] <= hopi.time_at_k_ms[k1] + 0.05);
  bench::Check("MaximalPPO very fast for the first result",
               maxppo.time_at_k_ms[k1] <= hopi.time_at_k_ms[k1] + 0.05);
  bench::Check("MaximalPPO degrades for later results (follows links)",
               maxppo.time_at_k_ms[k100] > maxppo.time_at_k_ms[k1]);
  // The paper's PPO-naive is constantly slowest because every per-document
  // index lookup pays a database round trip; in-memory probes have no such
  // floor. The structurally preserved part of the claim is that the
  // per-document granularity loses against the grouped trees of MaximalPPO
  // and against HOPI on the complete set.
  bench::Check("PPO-naive slower than MaximalPPO (per-document overhead)",
               naive.time_at_k_ms[k100] >= maxppo.time_at_k_ms[k100]);
  bench::Check("PPO-naive slower than HOPI on the complete result set",
               naive.total_time_ms >= hopi.total_time_ms);
  bench::Check("approximate configs have a nonzero but tolerable error rate",
               maxppo.error_rate > 0 && maxppo.error_rate < 0.4);
  bench::EmitMetricsBlock(
      "fig5_descendants",
      {bench::Config("pubs", pubs), bench::Config("repeats", repeats)});
  return bench::ExitCode();
}
