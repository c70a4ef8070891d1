// Streaming vs. materializing evaluation: time-to-first-result (TTFR) and
// time-to-k for top-k descendant queries, across three workload shapes.
//
// The lazy cursor pipeline should deliver the first result long before the
// per-block mode (QueryOptions::materialize, flixctl --legacy). Both run on
// the PEE's one evaluation loop; per-block mode drains each local probe
// into a sorted block before emitting any of it. The gap is widest on the
// monolithic-HOPI configuration over the DBLP-style corpus: one meta
// document means the per-block mode drains the *entire* result set up
// front, while the cursor merge emits as soon as the first 2-hop lists
// yield their heads.
//
//   $ ./bench_topk_streaming [--pubs 3000] [--repeats 5] [--no-profiler]
//
// --no-profiler disables per-partition workload attribution, so the bench
// doubles as the profiler-overhead measurement (compare total_ms of the
// two modes).
#include "bench/bench_util.h"

#include <string>
#include <utility>
#include <vector>

#include "flix/adapt.h"
#include "graph/traversal.h"
#include "obs/names.h"
#include "workload/inex_generator.h"
#include "workload/synthetic_generator.h"

namespace {

using namespace flix;

struct Timings {
  double ttfr_ms = -1;      // time to the first result
  double at_k10_ms = -1;    // time to the 10th result
  double at_k100_ms = -1;   // time to the 100th result
  double total_ms = -1;     // full stream
  size_t results = 0;
};

// One timed query. The sink never stops it, so every run drains the whole
// answer: the time-to-k columns are read off the stream on the way, and
// `total_ms` is the full drain time.
Timings RunOnce(const core::Flix& flix, NodeId start, TagId tag,
                bool wildcard, bool materialize) {
  Timings t;
  core::QueryOptions options;
  options.materialize = materialize;
  size_t count = 0;
  Stopwatch watch;
  const core::ResultSink sink = [&](const core::Result&) {
    ++count;
    if (count == 1) t.ttfr_ms = watch.ElapsedMillis();
    if (count == 10) t.at_k10_ms = watch.ElapsedMillis();
    if (count == 100) t.at_k100_ms = watch.ElapsedMillis();
    return true;
  };
  if (wildcard) {
    flix.pee().FindDescendants(start, options, sink);
  } else {
    flix.pee().FindDescendantsByTag(start, tag, options, sink);
  }
  t.total_ms = watch.ElapsedMillis();
  t.results = count;
  return t;
}

// Min over repeats, per field (fields are independent minima; each is a
// best-case latency like Figure 5's min-of-runs convention).
Timings RunBest(const core::Flix& flix, NodeId start, TagId tag,
                bool wildcard, bool materialize, size_t repeats) {
  Timings best;
  for (size_t rep = 0; rep < repeats; ++rep) {
    const Timings t = RunOnce(flix, start, tag, wildcard, materialize);
    const auto keep = [](double& slot, double value) {
      if (value >= 0 && (slot < 0 || value < slot)) slot = value;
    };
    keep(best.ttfr_ms, t.ttfr_ms);
    keep(best.at_k10_ms, t.at_k10_ms);
    keep(best.at_k100_ms, t.at_k100_ms);
    keep(best.total_ms, t.total_ms);
    best.results = t.results;
  }
  return best;
}

// Picks the element with the most descendants among the sampled roots, so
// every workload queries a result set comfortably past k=100.
NodeId PickRichStart(const xml::Collection& collection, size_t sample) {
  const graph::Digraph g = collection.BuildGraph();
  NodeId best = collection.GlobalId(0, 0);
  size_t best_count = 0;
  for (DocId d = collection.NumDocuments(); d-- > 0;) {
    if (collection.NumDocuments() - d > sample) break;
    const NodeId start = collection.GlobalId(d, 0);
    const std::vector<Distance> dist = graph::BfsDistances(g, start);
    size_t count = 0;
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (v != start && dist[v] != kUnreachable) ++count;
    }
    if (count > best_count) {
      best_count = count;
      best = start;
    }
  }
  std::printf("  start element %u (%zu reachable descendants)\n", best,
              best_count);
  return best;
}

struct Workload {
  std::string label;
  xml::Collection collection;
  core::FlixOptions options;
  TagId tag = kInvalidTag;  // kInvalidTag = wildcard a//*
};

void Report(const char* label, const Timings& streaming,
            const Timings& legacy) {
  const auto cell = [](double v) { return v < 0 ? 0.0 : v; };
  std::printf("  %-10s %10s %10s %10s %10s %8s\n", label, "ttfr", "k=10",
              "k=100", "total", "results");
  std::printf("  %-10s %9.3fms %9.3fms %9.3fms %9.3fms %8zu\n", "streaming",
              cell(streaming.ttfr_ms), cell(streaming.at_k10_ms),
              cell(streaming.at_k100_ms), cell(streaming.total_ms),
              streaming.results);
  std::printf("  %-10s %9.3fms %9.3fms %9.3fms %9.3fms %8zu\n", "legacy",
              cell(legacy.ttfr_ms), cell(legacy.at_k10_ms),
              cell(legacy.at_k100_ms), cell(legacy.total_ms), legacy.results);
  if (streaming.ttfr_ms > 0 && legacy.ttfr_ms > 0) {
    std::printf("  TTFR speedup: %.1fx\n", legacy.ttfr_ms / streaming.ttfr_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const size_t pubs = bench::FlagOr(argc, argv, "--pubs", 3000);
  const size_t repeats = bench::FlagOr(argc, argv, "--repeats", 5);
  const bool profiling = !bench::HasFlag(argc, argv, "--no-profiler");

  std::printf("=== top-k streaming: lazy cursors vs. materialized probes ===\n");

  std::vector<Workload> workloads;
  {
    // Headline: monolithic HOPI over DBLP — one meta document, so the
    // per-block mode drains everything before the first emit.
    Workload w;
    w.label = "dblp-hopi";
    w.collection = bench::MakeCorpus(pubs);
    w.options.config = core::MdbConfig::kUnconnectedHopi;
    w.options.partition_bound = std::numeric_limits<size_t>::max();
    w.tag = w.collection.pool().Lookup("article");
    workloads.push_back(std::move(w));
  }
  {
    // INEX shape: large documents, few links (Naive configuration).
    Workload w;
    w.label = "inex-naive";
    workload::InexOptions options;
    options.num_articles = 200;
    auto collection = workload::GenerateInex(options);
    if (!collection.ok()) {
      std::fprintf(stderr, "inex generation failed\n");
      return 1;
    }
    w.collection = std::move(collection).value();
    w.options.config = core::MdbConfig::kNaive;
    workloads.push_back(std::move(w));
  }
  {
    // Heterogeneous synthetic collection with the default FliX config.
    Workload w;
    w.label = "synthetic";
    workload::SyntheticOptions options;
    options.seed = 13;
    auto collection = workload::GenerateSynthetic(options);
    if (!collection.ok()) {
      std::fprintf(stderr, "synthetic generation failed\n");
      return 1;
    }
    w.collection = std::move(collection).value();
    workloads.push_back(std::move(w));
  }

  // HOPI merge-cursor work per result on dblp-hopi. Only ~1% of the start's
  // descendants are articles, so heads that pushed entries they cannot
  // yield (seen through another hub, or the wrong tag) would pop ~750 times
  // per result at --pubs 2000 instead of ~1.3.
  obs::Counter& hopi_pulled =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kCursorPulledHopi);
  obs::Counter& hopi_heap_pops = obs::MetricsRegistry::Global().GetCounter(
      obs::names::kCursorHeapPopsHopi);
  double hopi_pops_per_result = -1;

  double headline_speedup = 0;
  for (Workload& w : workloads) {
    w.options.workload_profiling = profiling;
    std::printf("\n--- %s: %zu documents, %zu elements, %zu links ---\n",
                w.label.c_str(), w.collection.NumDocuments(),
                w.collection.NumElements(),
                bench::InterDocLinks(w.collection));
    const auto flix = bench::MustBuild(w.collection, w.options);
    const NodeId start = PickRichStart(w.collection, 200);
    const bool wildcard = w.tag == kInvalidTag;

    const uint64_t pulled_before = hopi_pulled.Value();
    const uint64_t pops_before = hopi_heap_pops.Value();
    const Timings streaming =
        RunBest(*flix, start, w.tag, wildcard, /*materialize=*/false, repeats);
    if (w.label == "dblp-hopi") {
      const uint64_t pulled = hopi_pulled.Value() - pulled_before;
      const uint64_t pops = hopi_heap_pops.Value() - pops_before;
      if (pulled > 0) {
        hopi_pops_per_result =
            static_cast<double>(pops) / static_cast<double>(pulled);
      }
      std::printf("  HOPI merge cursors: %llu heap pops for %llu pulled "
                  "results (%.2f per result)\n",
                  static_cast<unsigned long long>(pops),
                  static_cast<unsigned long long>(pulled),
                  hopi_pops_per_result);
    }
    const Timings legacy =
        RunBest(*flix, start, w.tag, wildcard, /*materialize=*/true, repeats);
    Report(w.label.c_str(), streaming, legacy);

    if (w.label == "dblp-hopi" && streaming.ttfr_ms > 0) {
      headline_speedup = legacy.ttfr_ms / streaming.ttfr_ms;
    }
  }

  // --- adaptive phase: a partitioned DBLP index provisioned on the wrong
  // strategy (forced APEX), repaired online by the workload-adaptive ISS.
  // The reduction we gate on is *work served by the expensive strategy*:
  // probes + cursor pulls attributed by the profiler to APEX partitions,
  // before vs. after migration, under the identical replayed workload.
  uint64_t apex_work_before = 0;
  uint64_t apex_work_after = 0;
  size_t adapt_migrated = 0;
  {
    std::printf("\n--- adaptive: forced-APEX dblp, online APEX -> HOPI ---\n");
    const xml::Collection collection = bench::MakeCorpus(pubs);
    core::FlixOptions options;
    options.config = core::MdbConfig::kUnconnectedHopi;
    options.partition_bound = 5000;
    options.iss_policy = core::IssPolicy::kForceApex;
    options.workload_profiling = true;
    const auto flix = bench::MustBuild(collection, options);
    flix->SetAdaptiveIss(true);

    const auto run_workload = [&] {
      Stopwatch watch;
      for (size_t pass = 0; pass < 6; ++pass) {
        for (DocId d = 0; d < collection.NumDocuments();
             d += collection.NumDocuments() / 60 + 1) {
          flix->FindDescendantsByName(collection.GlobalId(d, 0), "article");
        }
      }
      return watch.ElapsedMillis();
    };
    const auto apex_work = [](const obs::WorkloadProfile& profile) {
      uint64_t work = 0;
      for (const obs::PartitionProfile& p : profile.partitions) {
        if (p.strategy == "APEX") work += p.index_probes + p.cursor_pulls;
      }
      return work;
    };

    const double before_ms = run_workload();
    apex_work_before = apex_work(flix->Profile());

    // A bench replays a short workload window; demand one rebuild's payback
    // instead of the production default of three (see AdaptOptions).
    core::AdaptOptions adapt;
    adapt.hysteresis = 1.0;
    core::StrategyMigrator migrator(*flix, core::CostModel::Measured(), adapt);
    const auto migrated = migrator.RunOnce();
    if (!migrated.ok()) {
      std::fprintf(stderr, "adaptive migration failed: %s\n",
                   migrated.status().ToString().c_str());
      return 1;
    }
    adapt_migrated = *migrated;

    flix->profiler().Reset();  // observe only the replayed workload
    const double after_ms = run_workload();
    apex_work_after = apex_work(flix->Profile());

    std::printf("  migrated %zu partition(s)\n", adapt_migrated);
    std::printf("  APEX-attributed work: %llu probes+pulls before, %llu "
                "after\n",
                static_cast<unsigned long long>(apex_work_before),
                static_cast<unsigned long long>(apex_work_after));
    std::printf("  workload wall time: %.1fms before, %.1fms after\n",
                before_ms, after_ms);

    auto& reg = obs::MetricsRegistry::Global();
    reg.GetGauge("bench.adapt.migrated")
        .Set(static_cast<int64_t>(adapt_migrated));
    reg.GetGauge("bench.adapt.apex_work_before")
        .Set(static_cast<int64_t>(apex_work_before));
    reg.GetGauge("bench.adapt.apex_work_after")
        .Set(static_cast<int64_t>(apex_work_after));
  }

  std::printf("\nacceptance:\n");
  bench::Check("streaming TTFR at least 2x faster on dblp-hopi",
               headline_speedup >= 2.0);
  bench::Check("HOPI heap pops per pulled result <= 1.5 on dblp-hopi",
               hopi_pops_per_result >= 0 && hopi_pops_per_result <= 1.5);
  bench::Check("adaptive ISS migrated at least one partition",
               adapt_migrated >= 1);
  bench::Check("migration reduced expensive-strategy probe count",
               apex_work_after < apex_work_before);
  bench::EmitMetricsBlock(
      "topk_streaming",
      {bench::Config("pubs", pubs), bench::Config("repeats", repeats),
       bench::Config("profiler", profiling ? "on" : "off")});
  return bench::ExitCode();
}
