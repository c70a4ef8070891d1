// FliX facade: build the framework over an XML collection, then query it.
//
// Usage:
//   xml::Collection collection;
//   ... AddXml(...) ...
//   collection.ResolveAllLinks();
//   FlixOptions options;
//   options.config = MdbConfig::kHybrid;
//   auto flix = Flix::Build(collection, options);
//   flix->FindDescendantsByName(start, "article", {}, sink);
#ifndef FLIX_FLIX_FLIX_H_
#define FLIX_FLIX_FLIX_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "flix/config.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "flix/index_builder.h"
#include "flix/meta_document.h"
#include "flix/pee.h"
#include "flix/query_cache.h"
#include "xml/collection.h"

namespace flix::storage {
class PagedFileReader;
}  // namespace flix::storage

namespace flix::core {

struct FlixStats {
  double build_ms = 0;
  // Phase breakdown of build_ms (Load fills them with load-phase times):
  // meta document partitioning, strategy selection, and index construction.
  double mdb_ms = 0;
  double iss_ms = 0;
  double index_build_ms = 0;
  size_t num_meta_documents = 0;
  size_t num_cross_links = 0;
  size_t total_index_bytes = 0;
  std::vector<MetaIndexStats> per_meta;

  // Count of meta documents per strategy.
  size_t num_ppo = 0;
  size_t num_hopi = 0;
  size_t num_apex = 0;
};

class Flix {
 public:
  // Builds meta documents (MDB), selects strategies (ISS) and builds all
  // indexes (IB) for `collection`, whose links must already be resolved
  // (Collection::ResolveAllLinks). The collection must outlive the Flix
  // instance.
  static StatusOr<std::unique_ptr<Flix>> Build(
      const xml::Collection& collection, const FlixOptions& options = {});

  // The only on-disk format is the paged FLIXPG01 file (storage/format.h).
  // Kept (with Save's parameter) only because flixbench/ names it.
  enum class IndexFormat { kMapped };

  struct LoadOptions {
    // Verify every segment checksum up front when opening the file. Costs
    // one sequential read of the file; turning it off defers corruption
    // detection to `flixctl check` / Validate.
    bool verify_checksums = true;
  };

  // Persists the built framework (meta documents + indexes) so a process
  // can skip the build phase. The collection itself is not stored; Load
  // must be given the same collection (validated by element count). Save
  // is atomic (temp file + rename). Load mmaps the file and serves queries
  // zero-copy out of the mapping — cold opens touch only the pages a query
  // needs — and pins the mapping for the instance's lifetime; indexes
  // replaced later (adaptive ISS) are ordinary heap indexes layered over
  // the mapped base. Files that are not FLIXPG01, including the retired
  // stream format, are rejected.
  Status Save(const std::string& path,
              IndexFormat format = IndexFormat::kMapped) const;
  static StatusOr<std::unique_ptr<Flix>> Load(const std::string& path,
                                              const xml::Collection& collection,
                                              const LoadOptions& options);
  static StatusOr<std::unique_ptr<Flix>> Load(
      const std::string& path, const xml::Collection& collection) {
    return Load(path, collection, LoadOptions());
  }

  const FlixStats& stats() const { return stats_; }
  const xml::Collection& collection() const { return collection_; }
  const MetaDocumentSet& meta_documents() const { return set_; }
  const PathExpressionEvaluator& pee() const { return *pee_; }
  const FlixOptions& options() const { return options_; }

  // Tag id for an element name, or kInvalidTag if it never occurs.
  TagId LookupTag(std::string_view name) const;

  // Queries by element name (convenience wrappers over the PEE; see pee.h
  // for semantics). Unknown names yield no results.
  void FindDescendantsByName(NodeId start, std::string_view name,
                             const QueryOptions& options,
                             const ResultSink& sink) const;
  std::vector<Result> FindDescendantsByName(NodeId start,
                                            std::string_view name,
                                            const QueryOptions& options = {}) const;
  std::vector<Result> FindAncestorsByName(NodeId start, std::string_view name,
                                          const QueryOptions& options = {}) const;
  std::vector<Result> EvaluateTypeQuery(std::string_view start_name,
                                        std::string_view result_name,
                                        const QueryOptions& options = {}) const;
  bool IsConnected(NodeId a, NodeId b, Distance max_distance = -1) const {
    return pee_->IsConnected(a, b, max_distance);
  }
  Distance FindDistance(NodeId a, NodeId b, Distance max_distance = -1) const {
    return pee_->FindDistance(a, b, max_distance);
  }

  // Result cache (enabled via FlixOptions::query_cache_capacity); consulted
  // by the vector-returning FindDescendantsByName for unconstrained queries.
  const QueryCache* query_cache() const { return cache_.get(); }

  // Atomically publishes a replacement index for one meta document and
  // updates the profiler's partition identity. Called by the adaptive ISS
  // (flix/adapt.h) after the replacement passed validation; queries holding
  // Acquire() snapshots of the displaced index drain safely and release it.
  // Single writer assumed — run one StrategyMigrator per Flix instance.
  void ReplacePartitionIndex(uint32_t partition,
                             std::shared_ptr<index::PathIndex> index,
                             uint64_t build_ns);

  // Runtime switch for workload-adaptive strategy re-selection. Not
  // persisted (like FlixOptions::workload_profiling); StrategyMigrator
  // refuses to apply migrations while it is off.
  void SetAdaptiveIss(bool enabled) { options_.adaptive_iss = enabled; }

  // Runtime switch for the ALT-guided point-query path (`flixctl
  // --no-landmarks`, differential tests): when off, the PEE ignores the
  // landmark cache and runs the blind Dijkstra. The cache stays resident,
  // so re-enabling is instant.
  void SetLandmarksEnabled(bool enabled) { set_.landmarks.SetEnabled(enabled); }

  // Changes the landmark count used by subsequent RebuildLandmarks / Save.
  void SetLandmarkCount(size_t count) { options_.landmark_count = count; }

  // Rebuilds the landmark cache from the live collection and partitioning
  // and atomically publishes it; returns the number of in-flight queries
  // that still held the displaced cache (metered as
  // flix.pee.guided.stale_reads). Queries racing the swap stay correct —
  // a stale cache is still admissible for the unchanged element graph.
  size_t RebuildLandmarks();

  // Per-meta-document workload attribution (see obs/profile.h). Owned by
  // this instance — partition ids are local to one index, so side-by-side
  // Flix instances in one process never mix their profiles. Recording is
  // gated by FlixOptions::workload_profiling (flip at runtime with
  // profiler().SetEnabled()).
  obs::WorkloadProfiler& profiler() { return profiler_; }
  const obs::WorkloadProfiler& profiler() const { return profiler_; }
  // Convenience snapshot of the profiler (serialize with ProfileToJson).
  obs::WorkloadProfile Profile() const { return profiler_.Snapshot(); }

  // Cumulative traversal counters over all facade queries — the statistics
  // feed for the paper's self-tuning idea (Section 7).
  QueryStats CumulativeQueryStats() const EXCLUDES(stats_mutex_);

  // Verifies the built framework: the global-node mapping and the meta
  // documents' global_nodes lists must be exact inverses (every element in
  // exactly one meta document), and every meta document's index must pass
  // its strategy-specific Validate(). Returns the first violation found.
  // The full collecting walk — cross-link exactness, differential query
  // oracle, metrics — lives in check::ValidateFramework (src/check/).
  Status Validate(const index::ValidateOptions& options = {}) const;

  // Publishes this instance's state (build shape, cache stats, facade query
  // totals) as gauges into the process-wide registry and returns a combined
  // snapshot of everything recorded so far — build phase timings, PEE query
  // latency histograms and traversal counters included. Export with
  // obs::ToJson / obs::ToText.
  obs::MetricsSnapshot MetricsSnapshot() const EXCLUDES(stats_mutex_);

  struct TuningAdvice {
    bool rebuild_recommended = false;
    double links_per_query = 0;
    std::string reason;
  };
  // Flags a suboptimal meta-document choice: when queries follow many links
  // at run time, the build phase should be repeated with coarser meta
  // documents (larger partition bound or a more HOPI-leaning config).
  TuningAdvice RecommendReconfiguration(double max_links_per_query = 16) const
      EXCLUDES(stats_mutex_);

 private:
  Flix(const xml::Collection& collection, FlixOptions options)
      : collection_(collection), options_(options) {}

  void AccumulateStats(const QueryStats& stats) const EXCLUDES(stats_mutex_);

  // Tail of Load: profiler seeding, PEE/cache construction, stats and
  // load metrics.
  void FinishLoadedInstance(uint64_t load_ns);

  // Writes the paged file to `path` (non-atomic; Save wraps it).
  Status SavePaged(const std::string& path) const;

  const xml::Collection& collection_;
  FlixOptions options_;
  // Pins the file mapping Load borrowed set_'s views from; declared before
  // set_ so it is destroyed after everything that aliases it. Null for
  // built instances.
  std::shared_ptr<storage::PagedFileReader> mapping_;
  MetaDocumentSet set_;
  // Declared before pee_/cache_, which hold pointers to it: destruction
  // runs in reverse order, so the consumers die first.
  obs::WorkloadProfiler profiler_;
  std::unique_ptr<PathExpressionEvaluator> pee_;
  std::unique_ptr<QueryCache> cache_;
  FlixStats stats_;

  // Engine rank: MetricsSnapshot() holds it while reading metrics-rank
  // registry gauges, which the hierarchy permits (engine precedes metrics).
  mutable Mutex stats_mutex_ ACQUIRED_AFTER(lockorder::kEngine)
      ACQUIRED_BEFORE(lockorder::kPartitionHandle);
  mutable QueryStats cumulative_stats_ GUARDED_BY(stats_mutex_);
  mutable size_t num_queries_ GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace flix::core

#endif  // FLIX_FLIX_FLIX_H_
