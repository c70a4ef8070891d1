// Reproduces Table 1 of the paper: index sizes of HOPI, APEX, PPO-naive,
// HOPI-5000, HOPI-20000 and Maximal PPO on the DBLP-style corpus, plus the
// transitive-closure size HOPI is compared against in the text.
//
// The published table's absolute numbers are database storage on Oracle 9.2
// and thus not comparable; the *shape* the paper reports is:
//   * HOPI is huge, but > 10x smaller than the transitive closure;
//   * HOPI-5000 needs about twice the space of APEX;
//   * PPO-naive and Maximal PPO are even smaller (Maximal PPO as compact as
//     plain PPO).
//
// Each setup's total_index_bytes is also a gauge in the metrics envelope
// (bench.table1.index_bytes.<label>), so bench_compare fails a run whose
// index grew against the committed baseline.
//
//   $ ./bench_table1_index_sizes [--pubs 6210]
#include "bench/bench_util.h"

#include <map>

#include "common/bytes.h"
#include "index/transitive_closure.h"

int main(int argc, char** argv) {
  using namespace flix;
  const size_t pubs = bench::FlagOr(argc, argv, "--pubs", 6210);

  std::printf("=== Table 1: index sizes (DBLP-style corpus) ===\n");
  xml::Collection collection = bench::MakeCorpus(pubs);
  std::printf("corpus: %zu documents, %zu elements, %zu inter-document "
              "links\n\n",
              collection.NumDocuments(), collection.NumElements(),
              bench::InterDocLinks(collection));

  std::map<std::string, size_t> sizes;
  std::printf("%-12s %14s %14s %10s %22s\n", "index", "size", "build [ms]",
              "meta docs", "strategies (P/H/A)");
  for (const bench::Setup& setup : bench::PaperSetups()) {
    const auto flix = bench::MustBuild(collection, setup.options);
    const core::FlixStats& stats = flix->stats();
    sizes[setup.label] = stats.total_index_bytes;
    obs::MetricsRegistry::Global()
        .GetGauge("bench.table1.index_bytes." + setup.label)
        .Set(static_cast<int64_t>(stats.total_index_bytes));
    char strategies[64];
    std::snprintf(strategies, sizeof(strategies), "%zu/%zu/%zu",
                  stats.num_ppo, stats.num_hopi, stats.num_apex);
    std::printf("%-12s %14s %14.0f %10zu %22s\n", setup.label.c_str(),
                FormatBytes(stats.total_index_bytes).c_str(), stats.build_ms,
                stats.num_meta_documents, strategies);
  }

  // Transitive closure reference ("HOPI an order of magnitude more compact
  // than the transitive closure", Section 6 / [18]).
  const graph::Digraph g = collection.BuildGraph();
  const size_t tc_pairs = index::CountClosurePairs(g);
  const size_t tc_bytes = tc_pairs * sizeof(index::NodeDist);
  std::printf("%-12s %14s   (%zu reachable pairs)\n", "TC",
              FormatBytes(tc_bytes).c_str(), tc_pairs);

  std::printf("\npaper-reported shape:\n");
  bench::Check("HOPI is the largest index",
               sizes["HOPI"] >= sizes["APEX"] &&
                   sizes["HOPI"] >= sizes["PPO-naive"] &&
                   sizes["HOPI"] >= sizes["HOPI-5000"] &&
                   sizes["HOPI"] >= sizes["HOPI-20000"] &&
                   sizes["HOPI"] >= sizes["MaximalPPO"]);
  bench::Check("HOPI is (much) smaller than the transitive closure",
               sizes["HOPI"] < tc_bytes);
  bench::Check("HOPI-5000 within ~2x of APEX (paper: 'about twice')",
               sizes["HOPI-5000"] < 4 * sizes["APEX"]);
  bench::Check("PPO-naive smaller than HOPI-5000",
               sizes["PPO-naive"] < sizes["HOPI-5000"]);
  bench::Check("MaximalPPO smaller than HOPI-5000",
               sizes["MaximalPPO"] < sizes["HOPI-5000"]);
  bench::Check("MaximalPPO about as compact as PPO-naive",
               sizes["MaximalPPO"] < 2 * sizes["PPO-naive"]);
  bench::EmitMetricsBlock("table1_index_sizes",
                          {bench::Config("pubs", pubs)});
  return bench::ExitCode();
}
