// ALT-style landmark distance cache for goal-directed point queries.
//
// The PEE's connection tests (IsConnected / FindDistance) walk the
// cross-link graph by accumulated distance and, blind, expand every
// partition reachable within the bound. This module precomputes exact BFS
// distances between every element and a small set of landmark elements and
// derives the classic differential lower bound (Goldberg & Harrelson's ALT):
//
//   d(n, g) >= d(n, l)  - d(g, l)      (distances TO landmark l)
//   d(n, g) >= d(l, g)  - d(l, n)      (distances FROM landmark l)
//
// h(n, g) = max over landmarks of both bounds (clamped at 0) is admissible
// (never overstates d(n, g)) and consistent across any edge relaxation whose
// weight is an upper bound on nothing — i.e. whose weight w(x, y) satisfies
// d(x, g) <= w + d(y, g), which holds for the PEE's super edges because each
// is a real path in the element graph. A* keyed on distance + h therefore
// returns exactly the blind Dijkstra's answers while popping far fewer queue
// entries; the landmark rows additionally yield *proofs* of unreachability
// (n cannot reach g if some landmark is reachable from g but not from n, or
// reaches n but not g), which lets unreachable point queries return without
// expanding anything.
//
// Landmarks are chosen by farthest-point seeding on the partition quotient
// graph (one node per meta document, edges where cross links connect them),
// so they spread across the collection's link structure rather than packing
// into one partition. The per-node tables live in storage/flat.h containers:
// heap-owned after a build, zero-copy views into the file mapping after a
// paged load. A damaged or missing cache is never an error — the PEE simply
// runs blind.
#ifndef FLIX_FLIX_LANDMARKS_H_
#define FLIX_FLIX_LANDMARKS_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <thread>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "flix/meta_document.h"
#include "graph/digraph.h"
#include "storage/flat.h"
#include "storage/segment.h"

namespace flix::xml {
class Collection;
}  // namespace flix::xml

namespace flix::core {

// Immutable once built; queries share it through LandmarkHandle snapshots.
class LandmarkCache {
 public:
  // Distances are stored as uint16 (4 bytes per node per landmark for both
  // directions). kFar marks unreachable; finite distances clamp at kCap, and
  // a clamped value is treated as "no information" when bounding — the true
  // distance may be anything >= kCap, so using it could overstate h.
  static constexpr uint16_t kFar = 0xFFFF;
  static constexpr uint16_t kCap = 0xFFFE;

  LandmarkCache() = default;
  LandmarkCache(LandmarkCache&&) = default;
  LandmarkCache& operator=(LandmarkCache&&) = default;

  // Selects min(landmark_count, #partitions) landmarks and runs 2 BFS per
  // landmark over `graph` (the global element graph the set was built from).
  // Deterministic for a given (graph, set, count).
  static LandmarkCache Build(const graph::Digraph& graph,
                             const MetaDocumentSet& set,
                             size_t landmark_count);

  bool empty() const { return landmarks_.size() == 0; }
  size_t num_landmarks() const { return landmarks_.size(); }
  size_t num_nodes() const { return num_nodes_; }
  std::span<const NodeId> landmarks() const { return landmarks_.span(); }

  // Monotonic rebuild counter; the refresher bumps it on every swap so
  // `flixctl info` / stats can report cache staleness.
  uint64_t generation() const { return generation_; }
  void set_generation(uint64_t generation) { generation_ = generation; }

  bool Covers(NodeId n) const { return static_cast<size_t>(n) < num_nodes_; }

  // The goal's two landmark rows, extracted once per point query.
  struct GoalView {
    std::span<const uint16_t> to_land;    // d(goal -> l) per landmark
    std::span<const uint16_t> from_land;  // d(l -> goal) per landmark
  };
  GoalView Goal(NodeId goal) const {
    const size_t k = landmarks_.size();
    return GoalView{
        std::span<const uint16_t>(to_land_.data() + size_t{goal} * k, k),
        std::span<const uint16_t>(from_land_.data() + size_t{goal} * k, k)};
  }

  // Admissible lower bound on d(n, goal); >= 0, 0 when nothing is known.
  Distance LowerBound(NodeId n, const GoalView& goal) const {
    const size_t k = landmarks_.size();
    const uint16_t* to_n = to_land_.data() + size_t{n} * k;
    const uint16_t* from_n = from_land_.data() + size_t{n} * k;
    int32_t h = 0;
    for (size_t l = 0; l < k; ++l) {
      // Clamped rows (>= kCap) carry no usable bound; see kCap above.
      if (to_n[l] < kCap && goal.to_land[l] < kCap) {
        h = std::max(h, int32_t{to_n[l]} - int32_t{goal.to_land[l]});
      }
      if (from_n[l] < kCap && goal.from_land[l] < kCap) {
        h = std::max(h, int32_t{goal.from_land[l]} - int32_t{from_n[l]});
      }
    }
    return h;
  }

  // Exact unreachability proof: true means no path n -> goal exists in the
  // graph this cache was built from. (If goal reaches landmark l but n does
  // not, a path n -> goal would extend to n -> l; symmetrically for
  // landmarks that reach n but not goal.)
  bool ProvablyUnreachable(NodeId n, const GoalView& goal) const {
    const size_t k = landmarks_.size();
    const uint16_t* to_n = to_land_.data() + size_t{n} * k;
    const uint16_t* from_n = from_land_.data() + size_t{n} * k;
    for (size_t l = 0; l < k; ++l) {
      if (to_n[l] == kFar && goal.to_land[l] != kFar) return true;
      if (from_n[l] != kFar && goal.from_land[l] == kFar) return true;
    }
    return false;
  }

  // Persistence: arrays inside one kLandmarks segment. FromSegment
  // borrows the mapping (zero copy) and validates shape; any mismatch is an
  // error the caller downgrades to "run blind".
  void AppendArrays(storage::SegmentWriter& writer) const;
  static StatusOr<LandmarkCache> FromSegment(const storage::SegmentView& view,
                                             size_t expected_nodes);

  // Deep validation against BFS ground truth: recomputes both BFS rows for
  // every landmark and compares `sample_nodes` randomly chosen entries per
  // row. Backs `flixctl check --deep`.
  Status Validate(const graph::Digraph& graph, size_t sample_nodes,
                  uint64_t seed) const;

  size_t MemoryBytes() const {
    return landmarks_.MemoryBytes() + to_land_.MemoryBytes() +
           from_land_.MemoryBytes();
  }

 private:
  static uint16_t Pack(Distance d) {
    if (d == kUnreachable) return kFar;
    return d >= kCap ? kCap : static_cast<uint16_t>(d);
  }

  storage::FlatVec<NodeId> landmarks_;     // global element id per landmark
  storage::FlatVec<uint16_t> to_land_;     // [n * k + l] = d(n -> landmark l)
  storage::FlatVec<uint16_t> from_land_;   // [n * k + l] = d(landmark l -> n)
  size_t num_nodes_ = 0;
  uint64_t generation_ = 1;
};

// Rebuilds the landmark cache off the query path and publishes it through
// MetaDocumentSet::landmarks — the same shape as adapt.h's StrategyMigrator:
// RunOnce() for a single synchronous refresh, Start(interval)/Stop() for a
// background cadence. Queries racing a swap finish on the displaced cache
// (stale but still admissible for the unchanged graph); the swap reports how
// many such readers were in flight via flix.pee.guided.stale_reads.
class LandmarkRefresher {
 public:
  struct Options {
    size_t landmark_count = 16;
    // Test-only: runs on the freshly built cache before it is published
    // (e.g. to corrupt it and exercise the validation paths).
    std::function<void(LandmarkCache&)> replacement_hook;
  };

  // References must outlive the refresher; Stop() is implied by destruction.
  LandmarkRefresher(const xml::Collection& collection, MetaDocumentSet& set);
  LandmarkRefresher(const xml::Collection& collection, MetaDocumentSet& set,
                    Options options);
  ~LandmarkRefresher();

  LandmarkRefresher(const LandmarkRefresher&) = delete;
  LandmarkRefresher& operator=(const LandmarkRefresher&) = delete;

  // One synchronous rebuild + swap; returns the number of in-flight queries
  // that still held the displaced cache (also added to stale_reads).
  size_t RunOnce();

  // Starts/stops the background refresh thread.
  void Start(std::chrono::milliseconds interval) EXCLUDES(mutex_);
  void Stop() EXCLUDES(mutex_);

 private:
  const xml::Collection& collection_;
  MetaDocumentSet& set_;
  const Options options_;

  // Engine rank: held only around the stop flag and the wakeup wait —
  // never across RunOnce, which takes the landmark-handle lock itself.
  Mutex mutex_ ACQUIRED_AFTER(lockorder::kEngine)
      ACQUIRED_BEFORE(lockorder::kPartitionHandle);
  CondVar cv_;
  bool stop_ GUARDED_BY(mutex_) = false;
  std::thread thread_;
};

}  // namespace flix::core

#endif  // FLIX_FLIX_LANDMARKS_H_
