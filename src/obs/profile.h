// Per-partition workload attribution: which meta documents do the queries
// actually hit, and how hard?
//
// The paper's self-tuning proposal (Section 7) triggers reorganization when
// "most queries have to follow many links" — but the global counters in
// obs/metrics.h can't say *which* meta documents are hot, over-fragmented,
// or carrying a mismatched strategy. The WorkloadProfiler closes that gap:
// the PEE, the query cache and the index builder attribute every unit of
// work (index probes, cursor pulls, cross-link traversals taken, entry
// fan-out, cache hits/misses, whole-query latency) to the meta document it
// happened in. The resulting WorkloadProfile is the input the
// workload-adaptive ISS consumes, is inspectable via `flixctl profile`, and
// persists next to the index so it survives restarts.
//
// Concurrency: recording is lock-light. Queries accumulate deltas in plain
// per-query locals (see PartitionDelta) and flush once per touched
// partition at query end — a handful of relaxed atomic adds per query, no
// locks on the hot path. Partition latency histograms are allocated lazily
// with a CAS so untouched partitions cost 8 bytes. Resize happens at
// build/load time, before queries run; SetPartitionInfo is mutex-guarded so
// the adaptive ISS may also call it when a migration changes a partition's
// strategy while queries are in flight.
#ifndef FLIX_OBS_PROFILE_H_
#define FLIX_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "obs/metrics.h"

namespace flix::obs {

// Work a single query performed inside one partition, accumulated in
// non-atomic locals while the query runs and flushed to the profiler once
// at query end (WorkloadProfiler::RecordQuery).
struct PartitionDelta {
  uint64_t entries_processed = 0;  // queue pops that did work here
  uint64_t entries_dominated = 0;  // entries dropped by duplicate elimination
  uint64_t index_probes = 0;       // local index queries issued
  uint64_t cursors_opened = 0;     // probe cursors created
  uint64_t cursor_pulls = 0;       // Next() calls on this partition's cursors
  uint64_t entry_fanout = 0;       // cross-link hops enqueued out of here
  uint64_t results_emitted = 0;    // results whose element lives here
};

// partition id -> delta for one query. unordered_map value addresses are
// stable under insertion, so callers may cache `&map[p]` across the query.
using PartitionDeltaMap = std::unordered_map<uint32_t, PartitionDelta>;

// Point-in-time totals for one partition (see WorkloadProfiler::Snapshot).
struct PartitionProfile {
  uint32_t partition = 0;
  std::string strategy;  // StrategyName of the index built here ("" = unset)
  uint64_t nodes = 0;    // element count of the meta document
  uint64_t build_ns = 0; // time spent building this partition's index
  uint64_t queries = 0;  // queries that touched this partition
  uint64_t entries_processed = 0;
  uint64_t entries_dominated = 0;
  uint64_t index_probes = 0;
  uint64_t cursors_opened = 0;
  uint64_t cursor_pulls = 0;
  uint64_t entry_fanout = 0;
  uint64_t results_emitted = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // Whole-query latency, recorded once per touched partition: "how much
  // query time involves this meta document", not "time spent inside it".
  HistogramStats latency;

  // Scalar ranking key for `flixctl profile`: total units of query work
  // attributed here. Deliberately excludes latency (wall time mixes in the
  // other partitions of the same query) and cache hits (hits are work
  // *avoided*).
  uint64_t WorkScore() const {
    return entries_processed + index_probes + cursor_pulls + entry_fanout;
  }

  // Adds `other`'s observations into this profile (histograms merge via
  // MergeHistogramStats). Identity fields (strategy/nodes/build_ns) are
  // taken from whichever side has them set.
  void Accumulate(const PartitionProfile& other);
};

// A full snapshot: one PartitionProfile per meta document, indexed by
// partition id. This is the unit that serializes, merges and persists.
struct WorkloadProfile {
  static constexpr uint32_t kSchemaVersion = 1;

  std::vector<PartitionProfile> partitions;

  // Element-wise Accumulate; grows to cover the larger partition count.
  void Merge(const WorkloadProfile& other);

  // Sum over all partitions (partition/strategy fields left empty).
  PartitionProfile Totals() const;

  // Partition ids sorted by descending WorkScore (ties: ascending id).
  std::vector<uint32_t> RankByWork() const;
};

// The live accumulator, owned by a Flix instance (one per index, so
// side-by-side indexes in one process don't mix partition ids).
class WorkloadProfiler {
 public:
  WorkloadProfiler() = default;
  WorkloadProfiler(const WorkloadProfiler&) = delete;
  WorkloadProfiler& operator=(const WorkloadProfiler&) = delete;

  // Build/load-time setup; must not race with recording.
  void Resize(size_t num_partitions) EXCLUDES(info_mutex_);
  void SetPartitionInfo(uint32_t partition, std::string_view strategy,
                        uint64_t nodes, uint64_t build_ns)
      EXCLUDES(info_mutex_);

  // Master switch, checked by every attribution point. Disabled profilers
  // cost one relaxed load per query (and per cache op).
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }
  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }

  size_t NumPartitions() const { return partitions_.size(); }

  // Flushes one finished query: adds each delta to its partition's totals
  // and records `latency_ns` (the whole query's latency) into each touched
  // partition's histogram. Out-of-range partition ids are dropped.
  void RecordQuery(const PartitionDeltaMap& deltas, uint64_t latency_ns);

  void RecordCacheHit(uint32_t partition);
  void RecordCacheMiss(uint32_t partition);

  WorkloadProfile Snapshot() const EXCLUDES(info_mutex_);

  // Zeroes all observations in place; partition info and capacity survive.
  void Reset();

 private:
  // Cache-line-sized so two partitions' counters never false-share.
  struct alignas(64) Slot {
    ~Slot() { delete latency.load(std::memory_order_relaxed); }

    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> entries_processed{0};
    std::atomic<uint64_t> entries_dominated{0};
    std::atomic<uint64_t> index_probes{0};
    std::atomic<uint64_t> cursors_opened{0};
    std::atomic<uint64_t> cursor_pulls{0};
    std::atomic<uint64_t> entry_fanout{0};
    std::atomic<uint64_t> results_emitted{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> cache_misses{0};
    // Lazily allocated on first touch (CAS), freed with the slot.
    std::atomic<Histogram*> latency{nullptr};
  };

  struct Info {
    std::string strategy;
    uint64_t nodes = 0;
    uint64_t build_ns = 0;
  };

  Histogram& LatencyHistogram(Slot& slot);

  std::atomic<bool> enabled_{true};
  // unique_ptr: Slot is neither movable nor copyable (atomics), and stable
  // addresses let concurrent recorders ignore vector reallocation (Resize
  // is excluded from racing with recording by contract anyway). The slots
  // themselves are lock-free atomics, so the vector is unguarded.
  std::vector<std::unique_ptr<Slot>> partitions_;
  mutable Mutex info_mutex_ ACQUIRED_AFTER(lockorder::kMetrics);
  std::vector<Info> info_ GUARDED_BY(info_mutex_);
};

// JSON (de)serialization. Schema (stable; version-checked on read):
//   {"schema_version":1,
//    "partitions":[
//      {"partition":u,"strategy":s,"nodes":u,"build_ns":u,"queries":u,
//       "entries_processed":u,"entries_dominated":u,"index_probes":u,
//       "cursors_opened":u,"cursor_pulls":u,"entry_fanout":u,
//       "results_emitted":u,"cache_hits":u,"cache_misses":u,
//       "latency":{<histogram object, see obs/export.h>}}, ...]}
std::string ProfileToJson(const WorkloadProfile& profile);
bool ProfileFromJson(std::string_view json, WorkloadProfile* profile);

// Human-readable ranking of the hottest `top_n` partitions by WorkScore
// (0 = all), plus a totals line — the `flixctl profile` rendering.
std::string ProfileToText(const WorkloadProfile& profile, size_t top_n = 0);

// Persistence next to the index: <index_path>.profile.json.
std::string ProfileFilePath(std::string_view index_path);
bool SaveProfileFile(const std::string& path, const WorkloadProfile& profile);
// False if the file is missing, unreadable or not a valid profile document.
bool LoadProfileFile(const std::string& path, WorkloadProfile* profile);

}  // namespace flix::obs

#endif  // FLIX_OBS_PROFILE_H_
