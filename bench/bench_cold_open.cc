// Cold-open latency: the time from opening a saved index file to serving
// the first query result, against building the framework from scratch.
//
// Persistence exists so a process can skip the build phase: Load mmaps the
// paged file and answers out of the mapping, touching only the pages the
// query needs. The acceptance gate — mapped time-to-first-result at least
// 5x faster than Flix::Build (plus the same first result) of the same
// collection, both best-of-N — is that saving (see DESIGN.md "Paged storage
// format").
//
//   $ ./bench_cold_open [--pubs 6210] [--repeats 5]
#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  using namespace flix;
  const size_t pubs = bench::FlagOr(argc, argv, "--pubs", 6210);
  const size_t repeats = bench::FlagOr(argc, argv, "--repeats", 5);

  std::printf("=== Cold open: time to first result, build vs mapped load ===\n");
  xml::Collection collection = bench::MakeCorpus(pubs);
  std::printf("corpus: %zu documents, %zu elements\n",
              collection.NumDocuments(), collection.NumElements());

  core::FlixOptions options;
  options.config = core::MdbConfig::kHybrid;
  const std::string mapped_path =
      std::filesystem::temp_directory_path().string() +
      "/bench_cold_open_mapped.flix";
  {
    const auto built = bench::MustBuild(collection, options);
    if (!built->Save(mapped_path).ok()) {
      std::fprintf(stderr, "save failed\n");
      return 1;
    }
  }
  std::printf("file: %.2f MB\n",
              std::filesystem::file_size(mapped_path) / 1e6);

  const NodeId start = collection.GlobalId(0, 0);

  // Time to first result of a descendant query aborted at its first hit,
  // measured from the start of `open` (Build or Load).
  struct ColdOpen {
    uint64_t open_ns = 0;
    uint64_t total_ns = 0;  // open + first result
  };
  const auto time_to_first_result = [&](const auto& open) -> ColdOpen {
    Stopwatch watch;
    StatusOr<std::unique_ptr<core::Flix>> flix = open();
    if (!flix.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   flix.status().ToString().c_str());
      std::exit(1);
    }
    ColdOpen result;
    result.open_ns = watch.ElapsedNanos();
    bool got_result = false;
    (*flix)->FindDescendantsByName(start, "author", {},
                                   [&](const core::Result&) {
                                     got_result = true;
                                     return false;  // stop at the first hit
                                   });
    result.total_ns = watch.ElapsedNanos();
    if (!got_result) {
      std::fprintf(stderr, "query returned no results\n");
      std::exit(1);
    }
    return result;
  };
  // Checksum verification is off for the mapped side: the up-front sweep
  // reads the whole file, which is exactly what a cold beyond-RAM open must
  // avoid (deferred detection via flixctl check).
  const auto load = [&] {
    core::Flix::LoadOptions load_options;
    load_options.verify_checksums = false;
    return core::Flix::Load(mapped_path, collection, load_options);
  };
  const auto build = [&] { return core::Flix::Build(collection, options); };

  // Repeats are batched per side, not interleaved. Tearing down a built
  // instance frees megabytes of small chunks, and glibc makes the very next
  // allocations pay for consolidating those cold free lists — interleaving
  // would bill that cost to the mapped load. A real cold open runs in a
  // fresh process; batching keeps each measurement's allocator state shaped
  // by its own side only (best-of-N drops the one crossover repeat).
  auto& registry = obs::MetricsRegistry::Global();
  std::vector<uint64_t> mapped_ns;
  std::vector<uint64_t> build_ns;
  std::vector<uint64_t> mapped_open_ns;
  std::vector<uint64_t> build_open_ns;
  for (size_t r = 0; r < repeats; ++r) {
    const ColdOpen mapped = time_to_first_result(load);
    mapped_ns.push_back(mapped.total_ns);
    mapped_open_ns.push_back(mapped.open_ns);
    registry.GetHistogram("bench.cold_open.mapped_ns").Record(mapped.total_ns);
  }
  for (size_t r = 0; r < repeats; ++r) {
    const ColdOpen built = time_to_first_result(build);
    build_ns.push_back(built.total_ns);
    build_open_ns.push_back(built.open_ns);
    registry.GetHistogram("bench.cold_open.build_ns").Record(built.total_ns);
  }
  std::filesystem::remove(mapped_path);

  // Best-of-N for the gate: the minimum is the least noisy estimate of each
  // side's intrinsic cost on a shared machine.
  const uint64_t mapped_best =
      *std::min_element(mapped_ns.begin(), mapped_ns.end());
  const uint64_t build_best =
      *std::min_element(build_ns.begin(), build_ns.end());
  const auto avg = [](const std::vector<uint64_t>& v) {
    uint64_t sum = 0;
    for (const uint64_t x : v) sum += x;
    return static_cast<double>(sum) / v.size() / 1e6;
  };
  std::printf("\n%-8s %14s %14s %14s\n", "path", "best [ms]", "avg [ms]",
              "avg open [ms]");
  std::printf("%-8s %14.3f %14.3f %14.3f\n", "build", build_best / 1e6,
              avg(build_ns), avg(build_open_ns));
  std::printf("%-8s %14.3f %14.3f %14.3f\n", "mmap", mapped_best / 1e6,
              avg(mapped_ns), avg(mapped_open_ns));
  const double speedup =
      static_cast<double>(build_best) / static_cast<double>(mapped_best);
  std::printf("speedup: %.1fx\n\n", speedup);

  bench::Check("mmap cold open >= 5x faster than Flix::Build", speedup >= 5.0);

  bench::EmitMetricsBlock("cold_open", {bench::Config("pubs", pubs),
                                        bench::Config("repeats", repeats)});
  return bench::ExitCode();
}
