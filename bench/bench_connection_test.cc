// Reproduces the in-text connection-test experiment of Section 6: "we also
// experimented with testing if two nodes are connected. Here, we found the
// same performance trend as before, only with lower absolute numbers."
// Also exercises the bidirectional variant sketched in Section 5.2.
//
//   $ ./bench_connection_test [--pubs 6210] [--pairs 50]
#include "bench/bench_util.h"

#include <vector>

#include "workload/query_workload.h"

int main(int argc, char** argv) {
  using namespace flix;
  const size_t pubs = bench::FlagOr(argc, argv, "--pubs", 6210);
  const size_t num_pairs = bench::FlagOr(argc, argv, "--pairs", 50);

  std::printf("=== Connection tests (Section 6, in-text) ===\n");
  xml::Collection collection = bench::MakeCorpus(pubs);
  const graph::Digraph g = collection.BuildGraph();
  std::printf("corpus: %zu documents, %zu elements\n",
              collection.NumDocuments(), collection.NumElements());

  const auto pairs = workload::SampleConnectionPairs(g, num_pairs, 97);
  std::printf("%zu (a, b) pairs, about half connected\n\n", pairs.size());

  std::printf("%-12s %16s %16s %12s\n", "index", "avg unidir [ms]",
              "avg bidir [ms]", "connected");
  for (const bench::Setup& setup : bench::PaperSetups()) {
    const auto flix = bench::MustBuild(collection, setup.options);

    size_t connected = 0;
    Stopwatch uni;
    for (const auto& [a, b] : pairs) {
      if (flix->IsConnected(a, b)) ++connected;
    }
    const double uni_ms = uni.ElapsedMillis() / pairs.size();

    Stopwatch bidi;
    size_t connected_bidi = 0;
    for (const auto& [a, b] : pairs) {
      if (flix->pee().IsConnectedBidirectional(a, b)) ++connected_bidi;
    }
    const double bidi_ms = bidi.ElapsedMillis() / pairs.size();

    std::printf("%-12s %16.3f %16.3f %7zu/%zu\n", setup.label.c_str(), uni_ms,
                bidi_ms, connected, pairs.size());
    if (connected != connected_bidi) {
      std::printf("  WARNING: unidirectional and bidirectional disagree "
                  "(%zu vs %zu)\n",
                  connected, connected_bidi);
    }
  }

  std::printf("\npaper-reported shape: same trend as Figure 5 with lower "
              "absolute numbers (compare the per-query times above with the "
              "k=100 column of bench_fig5_descendants).\n");

  // Guided vs blind: the landmark cache's A* must return byte-identical
  // answers while popping at most half the queue entries of the blind
  // Dijkstra. Uses a dedicated partitioned hybrid build — the monolithic
  // setups above have no cross-partition walk to guide.
  std::printf("\n=== Guided vs blind point queries (landmark A*) ===\n");
  core::FlixOptions hybrid_options;
  hybrid_options.config = core::MdbConfig::kHybrid;
  hybrid_options.partition_bound = 2000;
  const auto hybrid = bench::MustBuild(collection, hybrid_options);

  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& pop_counter = registry.GetCounter("flix.query.point_pops");
  obs::Counter& pruned_counter =
      registry.GetCounter("flix.pee.guided.pruned_entries");

  std::vector<Distance> guided_answers;
  std::vector<Distance> blind_answers;
  guided_answers.reserve(pairs.size());
  blind_answers.reserve(pairs.size());

  const uint64_t pruned_before = pruned_counter.Value();
  uint64_t pops_before = pop_counter.Value();
  Stopwatch guided_watch;
  for (const auto& [a, b] : pairs) {
    guided_answers.push_back(hybrid->FindDistance(a, b));
  }
  const double guided_ms = guided_watch.ElapsedMillis() / pairs.size();
  const uint64_t guided_pops = pop_counter.Value() - pops_before;
  const uint64_t pruned_entries = pruned_counter.Value() - pruned_before;

  hybrid->SetLandmarksEnabled(false);
  pops_before = pop_counter.Value();
  Stopwatch blind_watch;
  for (const auto& [a, b] : pairs) {
    blind_answers.push_back(hybrid->FindDistance(a, b));
  }
  const double blind_ms = blind_watch.ElapsedMillis() / pairs.size();
  const uint64_t blind_pops = pop_counter.Value() - pops_before;
  hybrid->SetLandmarksEnabled(true);

  std::printf("%-12s %16s %16s %12s\n", "mode", "avg query [ms]",
              "queue pops", "pruned");
  std::printf("%-12s %16.3f %16llu %12llu\n", "guided", guided_ms,
              static_cast<unsigned long long>(guided_pops),
              static_cast<unsigned long long>(pruned_entries));
  std::printf("%-12s %16.3f %16llu %12s\n", "blind", blind_ms,
              static_cast<unsigned long long>(blind_pops), "-");
  if (guided_pops > 0) {
    std::printf("pop ratio (blind/guided): %.2fx\n",
                static_cast<double>(blind_pops) /
                    static_cast<double>(guided_pops));
  }
  bench::Check("guided answers match blind", guided_answers == blind_answers);
  bench::Check("guided pops <= 0.5x blind", guided_pops * 2 <= blind_pops);

  bench::EmitMetricsBlock(
      "connection_test",
      {bench::Config("pubs", pubs), bench::Config("pairs", num_pairs)});
  return bench::ExitCode();
}
