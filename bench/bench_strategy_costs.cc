// Measures the per-strategy calibration constants the workload-adaptive ISS
// consumes (src/flix/adapt.h): per-probe cost, per-cursor-pull cost, index
// bytes per node, and build nanoseconds per node — for PPO, HOPI and APEX.
//
// PPO is measured on a random forest (the only shape it indexes); HOPI and
// APEX on the same forest densified with random cross edges, the shape they
// actually serve inside FliX. Absolute numbers vary with the machine; the
// adaptive cost model only relies on the *ratios* between strategies, which
// are hardware-stable unless an architecture inverts one (e.g. an APEX
// pruned-BFS probe becoming cheaper than a HOPI label join).
//
//   $ ./bench_strategy_costs [--nodes N] [--repeats R] [--probes P]
//
// Prints one table row per strategy, a paste-ready CostModel::Measured()
// snippet, and the standard BENCH_strategy_costs.json envelope with the
// constants as gauges.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/digraph.h"
#include "index/hopi.h"
#include "index/path_index.h"
#include "index/ppo.h"
#include "index/summary_index.h"

namespace {

using namespace flix;

graph::Digraph RandomForest(size_t n, uint64_t seed) {
  Rng rng(seed);
  graph::Digraph g;
  for (size_t i = 0; i < n; ++i) {
    g.AddNode(static_cast<TagId>(rng.Uniform(8)));
  }
  for (NodeId i = 1; i < n; ++i) {
    // Half the attachments go to a recent node: XML-like depth instead of
    // the shallow star shape uniform attachment converges to.
    const NodeId parent =
        rng.Uniform(2) == 0
            ? static_cast<NodeId>(rng.Uniform(i))
            : static_cast<NodeId>(i - 1 - rng.Uniform(std::min<NodeId>(i, 16)));
    g.AddEdge(parent, i);
  }
  return g;
}

// The forest plus ~n/8 extra forward edges: connected, cycle-free-ish DAG
// shape comparable to a densely linked meta document.
graph::Digraph RandomLinkedDag(size_t n, uint64_t seed) {
  graph::Digraph g = RandomForest(n, seed);
  Rng rng(seed + 1);
  for (size_t i = 0; i < n / 8; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n - 1));
    const NodeId v =
        static_cast<NodeId>(u + 1 + rng.Uniform(n - u - 1));  // forward: u < v
    g.AddEdge(u, v);
  }
  return g;
}

struct MeasuredCosts {
  double probe_ns = 0;
  double pull_ns = 0;
  double bytes_per_node = 0;
  double build_ns_per_node = 0;
};

template <typename BuildFn>
MeasuredCosts Measure(const graph::Digraph& g, BuildFn build, size_t repeats,
                      size_t probes, uint64_t seed) {
  const size_t n = g.NumNodes();
  MeasuredCosts costs;

  // Build cost: best of `repeats` full builds (min filters scheduler noise).
  uint64_t best_build_ns = ~0ull;
  std::unique_ptr<index::PathIndex> index;
  for (size_t r = 0; r < repeats; ++r) {
    Stopwatch watch;
    index = build(g);
    const uint64_t ns = watch.ElapsedNanos();
    if (ns < best_build_ns) best_build_ns = ns;
  }
  costs.build_ns_per_node =
      static_cast<double>(best_build_ns) / static_cast<double>(n);
  costs.bytes_per_node =
      static_cast<double>(index->MemoryBytes()) / static_cast<double>(n);

  // Probe cost: half random pairs (mostly unreachable — the PEE's
  // duplicate-elimination checks), half pairs with `to` sampled from the
  // source's actual descendant set (the point queries that make APEX pay
  // for its pruned BFS). Each pair is probed with IsReachable *and*
  // DistanceBetween, the two point probes the PEE issues.
  {
    Rng rng(seed);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(probes);
    while (pairs.size() < probes) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(n));
      if (pairs.size() % 2 == 0) {
        pairs.emplace_back(u, static_cast<NodeId>(rng.Uniform(n)));
        continue;
      }
      const std::vector<index::NodeDist> down = index->Descendants(u);
      if (down.empty()) continue;
      pairs.emplace_back(u, down[rng.Uniform(down.size())].node);
    }
    size_t reachable = 0;
    Stopwatch watch;
    for (const auto& [u, v] : pairs) {
      reachable += index->IsReachable(u, v) ? 1 : 0;
      reachable += index->DistanceBetween(u, v) != kUnreachable ? 1 : 0;
    }
    costs.probe_ns = static_cast<double>(watch.ElapsedNanos()) /
                     static_cast<double>(2 * probes);
    std::printf("    (%zu/%zu probes reachable)\n", reachable, 2 * probes);
  }

  // Pull cost: drain tag-filtered descendant cursors from random sources —
  // the cursor shape the PEE actually opens per entry point.
  {
    Rng rng(seed + 1);
    uint64_t pulls = 0;
    uint64_t total_ns = 0;
    for (size_t i = 0; i < 256; ++i) {
      const NodeId source = static_cast<NodeId>(rng.Uniform(n));
      const TagId tag = static_cast<TagId>(rng.Uniform(8));
      Stopwatch watch;
      auto cursor = index->DescendantsByTagCursor(source, tag);
      while (cursor->Next().has_value()) ++pulls;
      total_ns += watch.ElapsedNanos();
    }
    costs.pull_ns = pulls == 0 ? 0
                               : static_cast<double>(total_ns) /
                                     static_cast<double>(pulls);
  }
  return costs;
}

void SetGauges(const char* strategy, const MeasuredCosts& costs) {
  auto& reg = obs::MetricsRegistry::Global();
  const std::string prefix = std::string("bench.cost.") + strategy + ".";
  reg.GetGauge(prefix + "probe_ns").Set(static_cast<int64_t>(costs.probe_ns));
  reg.GetGauge(prefix + "pull_ns").Set(static_cast<int64_t>(costs.pull_ns));
  reg.GetGauge(prefix + "bytes_per_node")
      .Set(static_cast<int64_t>(costs.bytes_per_node));
  reg.GetGauge(prefix + "build_ns_per_node")
      .Set(static_cast<int64_t>(costs.build_ns_per_node));
}

void PrintRow(const char* strategy, const MeasuredCosts& costs) {
  std::printf("  %-6s  %10.1f  %10.1f  %12.1f  %16.1f\n", strategy,
              costs.probe_ns, costs.pull_ns, costs.bytes_per_node,
              costs.build_ns_per_node);
}

}  // namespace

int main(int argc, char** argv) {
  const size_t nodes = bench::FlagOr(argc, argv, "--nodes", 20000);
  const size_t repeats = bench::FlagOr(argc, argv, "--repeats", 3);
  const size_t probes = bench::FlagOr(argc, argv, "--probes", 20000);

  std::printf("strategy cost calibration: %zu nodes, best of %zu builds, "
              "%zu probes\n\n",
              nodes, repeats, probes);

  const graph::Digraph forest = RandomForest(nodes, 7);
  const graph::Digraph dag = RandomLinkedDag(nodes, 7);

  std::printf("  PPO on a random forest; HOPI/APEX on the forest + %zu "
              "cross edges\n",
              nodes / 8);
  const MeasuredCosts ppo = Measure(
      forest,
      [](const graph::Digraph& g) -> std::unique_ptr<index::PathIndex> {
        auto built = index::PpoIndex::Build(g);
        if (!built.ok()) {
          std::fprintf(stderr, "PPO build failed: %s\n",
                       built.status().ToString().c_str());
          std::exit(1);
        }
        return std::move(built).value();
      },
      repeats, probes, 11);
  const MeasuredCosts hopi = Measure(
      dag,
      [](const graph::Digraph& g) -> std::unique_ptr<index::PathIndex> {
        return index::HopiIndex::Build(g);
      },
      repeats, probes, 12);
  const MeasuredCosts apex = Measure(
      dag,
      [](const graph::Digraph& g) -> std::unique_ptr<index::PathIndex> {
        return index::SummaryIndex::BuildApex(g);
      },
      repeats, probes, 13);

  std::printf("\n  %-6s  %10s  %10s  %12s  %16s\n", "", "probe_ns", "pull_ns",
              "bytes_per_node", "build_ns_per_node");
  PrintRow("ppo", ppo);
  PrintRow("hopi", hopi);
  PrintRow("apex", apex);

  std::printf("\npaste into CostModel::Measured() (src/flix/adapt.cc):\n");
  const auto snippet = [](const char* name, const MeasuredCosts& c) {
    std::printf("  model.%s = {/*probe_ns=*/%.0f, /*pull_ns=*/%.0f, "
                "/*bytes_per_node=*/%.0f,\n"
                "              /*build_ns_per_node=*/%.0f};\n",
                name, c.probe_ns, c.pull_ns, c.bytes_per_node,
                c.build_ns_per_node);
  };
  snippet("ppo", ppo);
  snippet("hopi", hopi);
  snippet("apex", apex);

  SetGauges("ppo", ppo);
  SetGauges("hopi", hopi);
  SetGauges("apex", apex);
  bench::EmitMetricsBlock("strategy_costs", {
                                                bench::Config("nodes", nodes),
                                                bench::Config("repeats", repeats),
                                                bench::Config("probes", probes),
                                            });
  return 0;
}
