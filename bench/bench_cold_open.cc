// Cold-open latency: the time from opening a saved index file to serving
// the first query result, against building the framework from scratch.
//
// Persistence exists so a process can skip the build phase: Load mmaps the
// paged file and answers out of the mapping, touching only the pages the
// query needs. The acceptance gates — mapped time-to-first-result at least
// 5x faster than Flix::Build of the same collection, and at least 10x with
// the default checksum-verified load (the path flixctl takes), all
// best-of-N — are that saving (see DESIGN.md "Paged storage format").
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
  if (repeats == 0) {
    std::fprintf(stderr, "--repeats must be at least 1 (best-of-N)\n");
    return 2;
  }

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
  // Two mapped sides. The unverified one skips the up-front checksum sweep,
  // which reads the whole file — exactly what a cold beyond-RAM open must
  // avoid (deferred detection via flixctl check). The verified one is the
  // default LoadOptions, the path flixctl and every caller that does not
  // opt out take.
  const auto load = [&] {
    core::Flix::LoadOptions load_options;
    load_options.verify_checksums = false;
    return core::Flix::Load(mapped_path, collection, load_options);
  };
  const auto load_verified = [&] {
    return core::Flix::Load(mapped_path, collection);
  };
  const auto build = [&] { return core::Flix::Build(collection, options); };

  // Repeats are batched per side, not interleaved. Tearing down a built
  // instance frees megabytes of small chunks, and glibc makes the very next
  // allocations pay for consolidating those cold free lists — interleaving
  // would bill that cost to the mapped load. A real cold open runs in a
  // fresh process; batching keeps each measurement's allocator state shaped
  // by its own side only (best-of-N drops the one crossover repeat).
  auto& registry = obs::MetricsRegistry::Global();
  struct Side {
    std::vector<uint64_t> total_ns;
    std::vector<uint64_t> open_ns;
    // Best-of-N for the gate: the minimum is the least noisy estimate of a
    // side's intrinsic cost on a shared machine.
    double BestMs() const {
      return *std::min_element(total_ns.begin(), total_ns.end()) / 1e6;
    }
  };
  const auto run_side = [&](const auto& open, const char* histogram) {
    Side side;
    for (size_t r = 0; r < repeats; ++r) {
      const ColdOpen result = time_to_first_result(open);
      side.total_ns.push_back(result.total_ns);
      side.open_ns.push_back(result.open_ns);
      registry.GetHistogram(histogram).Record(result.total_ns);
    }
    return side;
  };
  const Side mapped = run_side(load, "bench.cold_open.mapped_ns");
  const Side verified = run_side(load_verified, "bench.cold_open.verified_ns");
  const Side built = run_side(build, "bench.cold_open.build_ns");
  std::filesystem::remove(mapped_path);

  const auto avg = [](const std::vector<uint64_t>& v) {
    uint64_t sum = 0;
    for (const uint64_t x : v) sum += x;
    return static_cast<double>(sum) / v.size() / 1e6;
  };
  std::printf("\n%-8s %14s %14s %14s\n", "path", "best [ms]", "avg [ms]",
              "avg open [ms]");
  const auto print_row = [&](const char* path, const Side& side) {
    std::printf("%-8s %14.3f %14.3f %14.3f\n", path, side.BestMs(),
                avg(side.total_ns), avg(side.open_ns));
  };
  print_row("build", built);
  print_row("mmap", mapped);
  print_row("verified", verified);
  const double speedup = built.BestMs() / mapped.BestMs();
  const double verified_speedup = built.BestMs() / verified.BestMs();
  std::printf("speedup: %.1fx (mmap), %.1fx (verified)\n\n", speedup,
              verified_speedup);

  bench::Check("mmap cold open >= 5x faster than Flix::Build", speedup >= 5.0);
  bench::Check("checksum-verified cold open >= 10x faster than Flix::Build",
               verified_speedup >= 10.0);

  bench::EmitMetricsBlock("cold_open", {bench::Config("pubs", pubs),
                                        bench::Config("repeats", repeats)});
  return bench::ExitCode();
}
