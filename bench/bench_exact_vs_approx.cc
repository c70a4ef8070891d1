// Ablation: the price of exact results (Section 7's "returning results
// exactly sorted instead of approximately"). Compares, per configuration,
// approximate streaming vs exact mode on the same queries: first-result
// latency, total time (per-query medians of 5 runs), and the ordering error
// the exact mode eliminates.
// Both modes run on the PEE's one streaming loop; exact mode only swaps the
// entry-point admission rule, so its first result still arrives early.
//
//   $ ./bench_exact_vs_approx [--pubs 2000]
#include "bench/bench_util.h"

#include <algorithm>
#include <vector>

#include "workload/query_workload.h"

namespace {

// Timed runs per query; the printed times are per-query medians.
constexpr int kRuns = 5;

double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flix;
  const size_t pubs = bench::FlagOr(argc, argv, "--pubs", 2000);

  std::printf("=== Exact vs. approximate evaluation ===\n");
  xml::Collection collection = bench::MakeCorpus(pubs);
  const graph::Digraph g = collection.BuildGraph();
  std::printf("corpus: %zu documents, %zu elements\n\n",
              collection.NumDocuments(), collection.NumElements());

  workload::QuerySamplerOptions sampler;
  sampler.seed = 31;
  sampler.count = 10;
  sampler.min_results = 10;
  const auto queries =
      workload::SampleDescendantQueries(collection, g, sampler);
  std::printf("%zu queries\n\n", queries.size());

  std::printf("%-12s | %12s %12s %8s | %12s %12s %8s\n", "",
              "approx first", "approx all", "error", "exact first",
              "exact all", "error");
  // Exact-mode totals over every configuration, for the checks below.
  double exact_first_sum = 0;
  double exact_all_sum = 0;
  bool exact_sorted = true;
  for (const bench::Setup& setup : bench::PaperSetups()) {
    const auto flix = bench::MustBuild(collection, setup.options);

    double first_ms[2] = {0, 0};
    double all_ms[2] = {0, 0};
    double error[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      for (const auto& q : queries) {
        core::QueryOptions options;
        options.exact = mode == 1;
        // Median of kRuns timings per query; the answer (and so its
        // ordering error) is the same on every run.
        std::vector<double> firsts;
        std::vector<double> alls;
        std::vector<core::Result> results;
        for (int run = 0; run < kRuns; ++run) {
          results.clear();
          Stopwatch watch;
          double first = 0;
          flix->pee().FindDescendantsByTag(q.start, q.tag, options,
                                           [&](const core::Result& r) {
                                             if (results.empty()) {
                                               first = watch.ElapsedMillis();
                                             }
                                             results.push_back(r);
                                             return true;
                                           });
          alls.push_back(watch.ElapsedMillis());
          firsts.push_back(first);
        }
        first_ms[mode] += Median(firsts);
        all_ms[mode] += Median(alls);
        error[mode] += workload::OrderErrorRate(results);
      }
    }
    exact_first_sum += first_ms[1];
    exact_all_sum += all_ms[1];
    exact_sorted = exact_sorted && error[1] == 0;
    const double n = queries.empty() ? 1.0 : queries.size();
    std::printf("%-12s | %12.3f %12.3f %7.1f%% | %12.3f %12.3f %7.1f%%\n",
                setup.label.c_str(), first_ms[0] / n, all_ms[0] / n,
                100 * error[0] / n, first_ms[1] / n, all_ms[1] / n,
                100 * error[1] / n);
  }

  const double first_ratio =
      exact_all_sum > 0 ? exact_first_sum / exact_all_sum : 0.0;
  std::printf("\nexact first result / exact full drain (summed): %.3f\n",
              first_ratio);
  bench::Check("exact mode: 0% ordering error in every config",
               exact_sorted);
  bench::Check("exact mode streams: first result <= 0.5x the full drain",
               first_ratio <= 0.5);
  std::printf(
      "\nexpected: exact mode always reports 0%% ordering error and still "
      "streams — every entry point is processed once at its minimum "
      "distance on the same priority-queue walk, so its first result "
      "arrives long before the drain ends. It pays for the exact distances "
      "in entry points: without entry-point domination it processes every "
      "entry it reaches, so on partitioned configurations its full drain "
      "costs more than the approximate one.\n");
  bench::EmitMetricsBlock("exact_vs_approx", {bench::Config("pubs", pubs)});
  return bench::ExitCode();
}
