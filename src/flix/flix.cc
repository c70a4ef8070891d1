#include "flix/flix.h"

#include "common/stopwatch.h"
#include "flix/landmarks.h"
#include "flix/mdb.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace flix::core {

StatusOr<std::unique_ptr<Flix>> Flix::Build(const xml::Collection& collection,
                                            const FlixOptions& options) {
  Stopwatch watch;
  auto flix = std::unique_ptr<Flix>(new Flix(collection, options));
  // Root span of the build timeline; the MDB/ISS/IB spans nest under it
  // when a TraceCollector is enabled (`flixctl trace`).
  obs::TraceSpan build_span(nullptr, obs::names::kSpanBuild);
  build_span.AddAttr("config", MdbConfigName(options.config));

  const graph::Digraph graph = collection.BuildGraph();
  const std::vector<uint32_t> doc_of = collection.DocOfNode();
  std::vector<NodeId> doc_roots(collection.NumDocuments());
  for (DocId d = 0; d < collection.NumDocuments(); ++d) {
    doc_roots[d] = collection.GlobalId(d, 0);
  }

  MdbInput input;
  input.graph = &graph;
  input.doc_of = &doc_of;
  input.doc_roots = &doc_roots;
  auto& reg = obs::MetricsRegistry::Global();
  {
    obs::TraceSpan mdb_span(&reg.GetHistogram(obs::names::kBuildMdbNs),
                            obs::names::kSpanBuildMdb);
    flix->set_ = BuildMetaDocuments(input, options);
    flix->stats_.mdb_ms = static_cast<double>(mdb_span.ElapsedNanos()) / 1e6;
  }

  StatusOr<std::vector<MetaIndexStats>> stats =
      BuildIndexes(flix->set_, options, &flix->profiler_);
  if (!stats.ok()) return stats.status();
  flix->profiler_.SetEnabled(options.workload_profiling);

  if (options.landmark_count > 0) {
    obs::TraceSpan landmark_span(&reg.GetHistogram(obs::names::kBuildLandmarksNs),
                                 obs::names::kSpanBuildLandmarks);
    flix->set_.landmarks.Replace(std::make_shared<const LandmarkCache>(
        LandmarkCache::Build(graph, flix->set_, options.landmark_count)));
  }

  flix->pee_ =
      std::make_unique<PathExpressionEvaluator>(flix->set_, &flix->profiler_);
  if (options.query_cache_capacity > 0) {
    flix->cache_ = std::make_unique<QueryCache>(options.query_cache_capacity);
    flix->cache_->AttachProfiler(&flix->profiler_);
  }

  FlixStats& out = flix->stats_;
  out.per_meta = std::move(stats).value();
  out.num_meta_documents = flix->set_.docs.size();
  out.num_cross_links = flix->set_.num_cross_links;
  for (const MetaIndexStats& m : out.per_meta) {
    out.total_index_bytes += m.index_bytes;
    out.iss_ms += m.select_ms;
    out.index_build_ms += m.build_ms;
    switch (m.strategy) {
      case index::StrategyKind::kPpo: ++out.num_ppo; break;
      case index::StrategyKind::kHopi: ++out.num_hopi; break;
      case index::StrategyKind::kApex: ++out.num_apex; break;
      case index::StrategyKind::kTransitiveClosure: break;
      case index::StrategyKind::kSummary: break;
    }
  }
  out.build_ms = watch.ElapsedMillis();
  reg.GetHistogram(obs::names::kBuildTotalNs).Record(watch.ElapsedNanos());
  reg.GetCounter(obs::names::kBuildCount).Increment();
  return flix;
}

void Flix::FinishLoadedInstance(uint64_t load_ns) {
  // Loaded indexes carry no build timings, but the partition identities
  // (strategy, node counts) still seed the profiler so query attribution
  // starts from a described baseline.
  profiler_.Resize(set_.docs.size());
  for (const MetaDocument& meta : set_.docs) {
    profiler_.SetPartitionInfo(meta.id,
                               index::StrategyName(meta.index->kind()),
                               meta.graph.NumNodes(), /*build_ns=*/0);
  }
  profiler_.SetEnabled(options_.workload_profiling);

  pee_ = std::make_unique<PathExpressionEvaluator>(set_, &profiler_);
  if (options_.query_cache_capacity > 0) {
    cache_ = std::make_unique<QueryCache>(options_.query_cache_capacity);
    cache_->AttachProfiler(&profiler_);
  }

  stats_.num_meta_documents = set_.docs.size();
  stats_.num_cross_links = set_.num_cross_links;
  for (const MetaDocument& meta : set_.docs) {
    MetaIndexStats s;
    s.meta_id = meta.id;
    s.strategy = meta.index->kind();
    s.nodes = meta.graph.NumNodes();
    s.edges = meta.graph.NumEdges();
    s.index_bytes = meta.index->MemoryBytes();
    stats_.per_meta.push_back(s);
    stats_.total_index_bytes += s.index_bytes;
    switch (s.strategy) {
      case index::StrategyKind::kPpo: ++stats_.num_ppo; break;
      case index::StrategyKind::kHopi: ++stats_.num_hopi; break;
      case index::StrategyKind::kApex: ++stats_.num_apex; break;
      case index::StrategyKind::kTransitiveClosure: break;
      case index::StrategyKind::kSummary: break;
    }
  }
  stats_.build_ms = static_cast<double>(load_ns) / 1e6;  // load, not build
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetHistogram(obs::names::kLoadTotalNs).Record(static_cast<int64_t>(load_ns));
  reg.GetCounter(obs::names::kLoadCount).Increment();
}

TagId Flix::LookupTag(std::string_view name) const {
  return collection_.pool().Lookup(name);
}

void Flix::FindDescendantsByName(NodeId start, std::string_view name,
                                 const QueryOptions& options,
                                 const ResultSink& sink) const {
  const TagId tag = LookupTag(name);
  if (tag == kInvalidTag) return;
  QueryStats stats;
  pee_->FindDescendantsByTag(start, tag, options, sink, &stats);
  AccumulateStats(stats);
}

std::vector<Result> Flix::FindDescendantsByName(
    NodeId start, std::string_view name, const QueryOptions& options) const {
  std::vector<Result> results;
  const TagId tag = LookupTag(name);
  if (tag == kInvalidTag) return results;

  // Only unconstrained queries are cacheable: limits change the result list.
  const bool cacheable = cache_ != nullptr && options.max_distance < 0 &&
                         options.max_results < 0 && !options.exact;
  // Cache traffic is attributed to the start element's partition — the meta
  // document whose queries the cache is absorbing.
  const uint32_t partition = start < set_.meta_of_node.size()
                                 ? set_.meta_of_node[start]
                                 : QueryCache::kNoPartition;
  if (cacheable && cache_->Lookup(start, tag, &results, partition)) {
    return results;
  }

  QueryStats stats;
  pee_->FindDescendantsByTag(start, tag, options,
                             [&](const Result& r) {
                               results.push_back(r);
                               return true;
                             },
                             &stats);
  AccumulateStats(stats);
  if (cacheable) cache_->Insert(start, tag, results);
  return results;
}

std::vector<Result> Flix::FindAncestorsByName(
    NodeId start, std::string_view name, const QueryOptions& options) const {
  std::vector<Result> results;
  const TagId tag = LookupTag(name);
  if (tag == kInvalidTag) return results;
  QueryStats stats;
  pee_->FindAncestorsByTag(start, tag, options,
                           [&](const Result& r) {
                             results.push_back(r);
                             return true;
                           },
                           &stats);
  AccumulateStats(stats);
  return results;
}

std::vector<Result> Flix::EvaluateTypeQuery(std::string_view start_name,
                                            std::string_view result_name,
                                            const QueryOptions& options) const {
  std::vector<Result> results;
  const TagId start_tag = LookupTag(start_name);
  const TagId result_tag = LookupTag(result_name);
  if (start_tag == kInvalidTag || result_tag == kInvalidTag) return results;
  QueryStats stats;
  pee_->EvaluateTypeQuery(start_tag, result_tag, options,
                          [&](const Result& r) {
                            results.push_back(r);
                            return true;
                          },
                          &stats);
  AccumulateStats(stats);
  return results;
}

void Flix::AccumulateStats(const QueryStats& stats) const {
  MutexLock lock(stats_mutex_);
  cumulative_stats_.entries_processed += stats.entries_processed;
  cumulative_stats_.entries_dominated += stats.entries_dominated;
  cumulative_stats_.links_followed += stats.links_followed;
  cumulative_stats_.index_probes += stats.index_probes;
  cumulative_stats_.cursors_opened += stats.cursors_opened;
  cumulative_stats_.cursor_pulls += stats.cursor_pulls;
  cumulative_stats_.cursor_saved += stats.cursor_saved;
  ++num_queries_;
}

QueryStats Flix::CumulativeQueryStats() const {
  MutexLock lock(stats_mutex_);
  return cumulative_stats_;
}

obs::MetricsSnapshot Flix::MetricsSnapshot() const {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge(obs::names::kBuildMetaDocuments)
      .Set(static_cast<int64_t>(stats_.num_meta_documents));
  reg.GetGauge(obs::names::kBuildCrossLinks)
      .Set(static_cast<int64_t>(stats_.num_cross_links));
  reg.GetGauge(obs::names::kBuildIndexBytes)
      .Set(static_cast<int64_t>(stats_.total_index_bytes));
  reg.GetGauge(obs::names::kBuildStrategyPpo)
      .Set(static_cast<int64_t>(stats_.num_ppo));
  reg.GetGauge(obs::names::kBuildStrategyHopi)
      .Set(static_cast<int64_t>(stats_.num_hopi));
  reg.GetGauge(obs::names::kBuildStrategyApex)
      .Set(static_cast<int64_t>(stats_.num_apex));
  if (cache_ != nullptr) {
    const QueryCacheStats cache = cache_->Stats();
    reg.GetGauge(obs::names::kCacheSize).Set(static_cast<int64_t>(cache.size));
    reg.GetGauge(obs::names::kCacheCapacity)
        .Set(static_cast<int64_t>(cache.capacity));
    reg.GetGauge(obs::names::kCacheHits).Set(static_cast<int64_t>(cache.hits));
    reg.GetGauge(obs::names::kCacheMisses).Set(static_cast<int64_t>(cache.misses));
    reg.GetGauge(obs::names::kCacheInsertions)
        .Set(static_cast<int64_t>(cache.insertions));
    reg.GetGauge(obs::names::kCacheOverwrites)
        .Set(static_cast<int64_t>(cache.overwrites));
    reg.GetGauge(obs::names::kCacheEvictions)
        .Set(static_cast<int64_t>(cache.evictions));
  }
  {
    MutexLock lock(stats_mutex_);
    reg.GetGauge(obs::names::kQueryFacadeCount)
        .Set(static_cast<int64_t>(num_queries_));
  }
  // Touch the streaming-cursor counters so they appear in the snapshot even
  // before the first query registers them.
  reg.GetCounter(obs::names::kQueryCursorOpened);
  reg.GetCounter(obs::names::kQueryCursorPulled);
  reg.GetCounter(obs::names::kQueryCursorSaved);
  // Likewise the correctness-tooling counters (see src/check/), so
  // `flixctl stats` shows the check totals even when no check ran yet.
  reg.GetCounter(obs::names::kCheckValidations);
  reg.GetCounter(obs::names::kCheckViolations);
  reg.GetCounter(obs::names::kCheckOracleQueries);
  // And the adaptive-ISS counters (see src/flix/adapt.h).
  reg.GetCounter(obs::names::kAdaptRecommended);
  reg.GetCounter(obs::names::kAdaptMigrated);
  reg.GetCounter(obs::names::kAdaptRejectedHysteresis);
  reg.GetCounter(obs::names::kAdaptValidationFailed);
  // Landmark / guided-search series (see src/flix/landmarks.h).
  reg.GetCounter(obs::names::kQueryPointPops);
  reg.GetCounter(obs::names::kGuidedPrunedEntries);
  reg.GetCounter(obs::names::kGuidedHeuristicHits);
  reg.GetCounter(obs::names::kGuidedStaleReads);
  {
    const std::shared_ptr<const LandmarkCache> landmarks =
        set_.landmarks.Snapshot();
    const bool present = landmarks != nullptr && !landmarks->empty();
    reg.GetGauge(obs::names::kLandmarksCount)
        .Set(present ? static_cast<int64_t>(landmarks->num_landmarks()) : 0);
    reg.GetGauge(obs::names::kLandmarksGeneration)
        .Set(present ? static_cast<int64_t>(landmarks->generation()) : 0);
  }
  return reg.Snapshot();
}

Status Flix::Validate(const index::ValidateOptions& options) const {
  const size_t n = collection_.NumElements();
  if (set_.meta_of_node.size() != n || set_.local_of_node.size() != n) {
    return InternalError("node mapping covers " +
                         std::to_string(set_.meta_of_node.size()) +
                         " nodes, the collection has " + std::to_string(n));
  }
  size_t covered = 0;
  for (uint32_t m = 0; m < set_.docs.size(); ++m) {
    const MetaDocument& doc = set_.docs[m];
    for (NodeId local = 0; local < doc.global_nodes.size(); ++local) {
      const NodeId g = doc.global_nodes[local];
      if (g >= n || set_.meta_of_node[g] != m ||
          set_.local_of_node[g] != local) {
        return InternalError("meta document " + std::to_string(m) +
                             " local node " + std::to_string(local) +
                             " claims global node " + std::to_string(g) +
                             ", whose mapping disagrees");
      }
    }
    covered += doc.global_nodes.size();
  }
  if (covered != n) {
    return InternalError("meta documents hold " + std::to_string(covered) +
                         " elements, the collection has " + std::to_string(n));
  }
  for (uint32_t m = 0; m < set_.docs.size(); ++m) {
    const MetaDocument& doc = set_.docs[m];
    const std::shared_ptr<index::PathIndex> index = doc.index.Acquire();
    if (index == nullptr) {
      return InternalError("meta document " + std::to_string(m) +
                           " has no index");
    }
    if (Status status = index->Validate(doc.graph, options); !status.ok()) {
      return InternalError("meta document " + std::to_string(m) + " [" +
                           std::string(index->name()) + "] " +
                           status.message());
    }
  }
  return Status::Ok();
}

size_t Flix::RebuildLandmarks() {
  auto& reg = obs::MetricsRegistry::Global();
  obs::TraceSpan span(&reg.GetHistogram(obs::names::kBuildLandmarksNs),
                      obs::names::kSpanLandmarksRebuild);
  const graph::Digraph graph = collection_.BuildGraph();
  LandmarkCache next = LandmarkCache::Build(graph, set_, options_.landmark_count);
  const std::shared_ptr<const LandmarkCache> old = set_.landmarks.Snapshot();
  next.set_generation((old != nullptr ? old->generation() : 0) + 1);
  const size_t stale = set_.landmarks.Replace(
      std::make_shared<const LandmarkCache>(std::move(next)));
  reg.GetCounter(obs::names::kGuidedStaleReads).Add(stale);
  return stale;
}

void Flix::ReplacePartitionIndex(uint32_t partition,
                                 std::shared_ptr<index::PathIndex> index,
                                 uint64_t build_ns) {
  MetaDocument& meta = set_.docs[partition];
  // Identity first: by the time a query attributes work to the new index,
  // the profiler already names the strategy it ran against.
  profiler_.SetPartitionInfo(partition, index::StrategyName(index->kind()),
                             meta.graph.NumNodes(), build_ns);
  meta.index.Replace(std::move(index));
}

Flix::TuningAdvice Flix::RecommendReconfiguration(
    double max_links_per_query) const {
  MutexLock lock(stats_mutex_);
  TuningAdvice advice;
  if (num_queries_ == 0) return advice;
  advice.links_per_query =
      static_cast<double>(cumulative_stats_.links_followed) /
      static_cast<double>(num_queries_);
  if (advice.links_per_query > max_links_per_query) {
    advice.rebuild_recommended = true;
    advice.reason =
        "queries follow " + std::to_string(advice.links_per_query) +
        " links on average; rebuild with coarser meta documents (larger "
        "partition_bound or a HOPI-leaning configuration)";
  }
  return advice;
}

std::string_view MdbConfigName(MdbConfig config) {
  switch (config) {
    case MdbConfig::kNaive: return "Naive";
    case MdbConfig::kMaximalPpo: return "MaximalPPO";
    case MdbConfig::kUnconnectedHopi: return "UnconnectedHOPI";
    case MdbConfig::kHybrid: return "Hybrid";
  }
  return "UNKNOWN";
}

}  // namespace flix::core
