#include "flix/index_builder.h"

#include "common/stopwatch.h"
#include "flix/iss.h"
#include "index/hopi.h"
#include "index/ppo.h"
#include "index/summary_index.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace flix::core {
namespace {

// Per-strategy build-time histogram (one sample per meta document), so a
// snapshot shows where build time concentrates — e.g. HOPI's superlinear
// 2-hop construction dominating a hybrid build.
obs::Histogram& StrategyBuildHistogram(index::StrategyKind kind) {
  auto& reg = obs::MetricsRegistry::Global();
  switch (kind) {
    case index::StrategyKind::kPpo:
      return reg.GetHistogram(obs::names::kBuildIbPpoNs);
    case index::StrategyKind::kHopi:
      return reg.GetHistogram(obs::names::kBuildIbHopiNs);
    case index::StrategyKind::kApex:
      return reg.GetHistogram(obs::names::kBuildIbApexNs);
    default:
      return reg.GetHistogram(obs::names::kBuildIbOtherNs);
  }
}

}  // namespace

StatusOr<std::vector<MetaIndexStats>> BuildIndexes(
    MetaDocumentSet& set, const FlixOptions& options,
    obs::WorkloadProfiler* profiler) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram& iss_hist = reg.GetHistogram(obs::names::kBuildIssNs);
  if (profiler != nullptr) profiler->Resize(set.docs.size());
  std::vector<MetaIndexStats> stats;
  stats.reserve(set.docs.size());
  for (MetaDocument& meta : set.docs) {
    MetaIndexStats s;
    s.meta_id = meta.id;
    s.nodes = meta.graph.NumNodes();
    s.edges = meta.graph.NumEdges();

    Stopwatch select_watch;
    index::StrategyKind kind;
    {
      obs::TraceSpan iss_span(nullptr, obs::names::kSpanIss);
      iss_span.AddAttr("partition", static_cast<int64_t>(meta.id));
      kind = SelectStrategy(meta.graph, options);
      if (iss_span.Collecting()) {
        iss_span.AddAttr("strategy", index::StrategyName(kind));
      }
    }
    const uint64_t select_ns = select_watch.ElapsedNanos();
    iss_hist.Record(select_ns);
    s.select_ms = static_cast<double>(select_ns) / 1e6;
    Stopwatch watch;
    // The histogram is chosen *after* the switch: the PPO branch may fall
    // back to HOPI, and the sample belongs to the strategy actually built.
    obs::TraceSpan ib_span(nullptr, obs::names::kSpanIb);
    ib_span.AddAttr("partition", static_cast<int64_t>(meta.id));
    switch (kind) {
      case index::StrategyKind::kPpo: {
        auto built = index::PpoIndex::Build(meta.graph);
        if (built.ok()) {
          meta.index = std::move(built).value();
          break;
        }
        // Defensive fallback: index the graph as-is with HOPI.
        kind = index::StrategyKind::kHopi;
        [[fallthrough]];
      }
      case index::StrategyKind::kHopi:
        meta.index = index::HopiIndex::Build(meta.graph);
        break;
      case index::StrategyKind::kApex:
        meta.index = index::SummaryIndex::BuildApex(meta.graph);
        break;
      case index::StrategyKind::kTransitiveClosure:
      case index::StrategyKind::kSummary:
        return InvalidArgumentError(
            std::string(index::StrategyName(kind)) +
            " is a baseline/extension, not an ISS choice");
    }
    if (ib_span.Collecting()) {
      ib_span.AddAttr("strategy", index::StrategyName(kind));
    }
    ib_span.Finish();
    // Let the strategy precompute filtered structures for the per-entry
    // L(a) probes (Section 4.2's L_i lookup).
    meta.index->RegisterLinkSources(meta.link_sources);
    meta.index->RegisterEntryNodes(meta.entry_nodes);

    s.strategy = kind;
    const uint64_t build_ns = watch.ElapsedNanos();
    StrategyBuildHistogram(kind).Record(build_ns);
    s.build_ms = static_cast<double>(build_ns) / 1e6;
    s.index_bytes = meta.index->MemoryBytes();
    if (profiler != nullptr) {
      profiler->SetPartitionInfo(meta.id, index::StrategyName(kind), s.nodes,
                                 build_ns);
    }
    stats.push_back(s);
  }
  return stats;
}

}  // namespace flix::core
