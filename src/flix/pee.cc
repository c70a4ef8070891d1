#include "flix/pee.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/dcheck.h"
#include "flix/bucket_queue.h"
#include "flix/landmarks.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace flix::core {
namespace {

// Priority-queue entry: accumulated distance, then insertion sequence for
// deterministic FIFO behaviour among ties.
struct QueueItem {
  Distance distance;
  uint64_t seq;
  NodeId node;

  bool operator>(const QueueItem& other) const {
    return std::tie(distance, seq) > std::tie(other.distance, other.seq);
  }
};

using MinQueue =
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>;

// Point-query entry: ordered by f = g + h(node, goal), the A* key. With no
// landmark cache f == g and the walk is the classic blind Dijkstra; either
// way ties break by insertion sequence, like QueueItem.
struct PointItem {
  Distance f;    // g plus the admissible lower bound to the goal
  Distance g;    // accumulated distance from the source
  uint64_t seq;
  NodeId node;

  bool operator>(const PointItem& other) const {
    return std::tie(f, seq) > std::tie(other.f, other.seq);
  }
};

// Run's queue entry. Three kinds share one queue so entry points, pending
// cursor results, and pending frontier hops merge into a single globally
// ascending stream:
//   kEntry    — an entry point to process (node = global element id,
//               slot = its partition's admission count when it was pushed:
//               the entries it was already tested against);
//   kResult   — the head of an active local-result cursor (node = global
//               result id, slot = owning cursor);
//   kFrontier — the head of an active frontier cursor (node = *local* link
//               source / entry node, slot = owning cursor; its queued
//               distance already includes the +1 link hop).
// Popping a kResult/kFrontier item re-arms its cursor: the next element is
// pulled and pushed back. Each cursor thus keeps at most one item queued,
// and elements past the last pop are never pulled at all. The distance and
// the tie-breaking push order are the BucketQueue's, so an item is 8 bytes.
enum class ItemKind : uint8_t { kEntry, kResult, kFrontier };

class StreamItem {
 public:
  StreamItem(ItemKind kind, NodeId node, uint32_t slot)
      : node_(node),
        kind_slot_(static_cast<uint32_t>(kind) << kSlotBits | slot) {
    FLIX_DCHECK(slot <= kSlotMask, "stream item slot overflows its field");
  }

  NodeId node() const { return node_; }
  ItemKind kind() const {
    return static_cast<ItemKind>(kind_slot_ >> kSlotBits);
  }
  uint32_t slot() const { return kind_slot_ & kSlotMask; }

 private:
  static constexpr int kSlotBits = 30;
  static constexpr uint32_t kSlotMask = (uint32_t{1} << kSlotBits) - 1;

  NodeId node_;
  uint32_t kind_slot_;  // kind in the top two bits, slot below
};
static_assert(sizeof(StreamItem) == 8);

// An open cursor merged into the stream queue.
struct ActiveCursor {
  std::unique_ptr<index::NodeDistCursor> cursor;
  // Pins the index snapshot that produced `cursor`: cursors hold raw
  // pointers into index internals, so the slot must keep its index alive
  // even if an online migration (flix/adapt.h) swaps the meta document's
  // handle mid-query. Released with the slot when the query unwinds.
  std::shared_ptr<index::PathIndex> pin;
  Distance base = 0;   // accumulated distance of the owning entry point
  uint32_t meta = 0;   // meta document the cursor probes
  // Cached per-query attribution cell for `meta` (nullptr = profiling off).
  // unordered_map values have stable addresses, so the pointer survives
  // other partitions being inserted into the delta map mid-query.
  obs::PartitionDelta* delta = nullptr;
};

// Min-heap over a borrowed vector. Same ordering as
// std::priority_queue<Item, std::vector<Item>, std::greater<>> (both defer
// to Item::operator> via std::push_heap/pop_heap), but the storage lives in
// the per-thread QueryScratch, so its capacity survives across queries.
template <typename Item>
class BorrowedMinHeap {
 public:
  explicit BorrowedMinHeap(std::vector<Item>& storage) : heap_(storage) {}

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  void reserve(size_t capacity) { heap_.reserve(capacity); }
  const Item& top() const { return heap_.front(); }
  void push(const Item& item) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    heap_.pop_back();
  }

 private:
  std::vector<Item>& heap_;
};

// The entry points admitted into one meta document during a query: the
// duplicate-elimination state of Section 5.1, shared by every walker that
// applies the rule. The first entry is kept as a bare id and tested with a
// single IsReachable call; the index's ReachCover is created when a second
// entry is admitted, so single-entry partitions never allocate one. The
// first admission pins the index snapshot that every later test and the
// cover read, so an online migration that swaps the meta document's handle
// mid-query cannot free them, and a caller without a snapshot of its own
// (Run's push-time test) can still ask.
class AdmittedEntries {
 public:
  // Entries admitted so far.
  size_t size() const { return size_; }

  // True iff an entry admitted after the first `since` reaches `le`
  // (forward), or `le` reaches one (backward), given that none of the
  // first `since` does. `probes` accumulates QueryStats::dominance_probes.
  bool CoversSince(NodeId le, size_t since, size_t& probes) {
    if (since >= size_) return false;
    if (cover_ == nullptr) {
      ++probes;
      return forward_ ? pin_->IsReachable(first_, le)
                      : pin_->IsReachable(le, first_);
    }
    const size_t before = cover_->probes();
    const bool covered = cover_->CoversSince(le, since);
    probes += cover_->probes() - before;
    return covered;
  }

  bool Covers(NodeId le, size_t& probes) { return CoversSince(le, 0, probes); }

  // Admits `le` unless an admitted entry covers it (Section 5.1: everything
  // `le` reaches was already handled through that entry); `since` as for
  // CoversSince. `index` is the caller's snapshot of this meta document.
  // Returns whether `le` was admitted.
  bool Admit(NodeId le, const std::shared_ptr<index::PathIndex>& index,
             bool forward, size_t since, size_t& probes) {
    if (CoversSince(le, since, probes)) return false;
    if (size_ == 0) {
      forward_ = forward;
      first_ = le;
      pin_ = index;
    } else {
      if (cover_ == nullptr) {
        cover_ = pin_->NewReachCover(forward_);
        cover_->Add(first_);
      }
      cover_->Add(le);
    }
    ++size_;
    return true;
  }

  void Reset() {
    size_ = 0;
    cover_.reset();  // before the pin: the cover reads the pinned index
    pin_.reset();
  }

 private:
  bool forward_ = true;
  size_t size_ = 0;
  NodeId first_ = kInvalidNode;
  std::shared_ptr<index::PathIndex> pin_;
  std::unique_ptr<index::ReachCover> cover_;
};

// A set of global element ids kept as a bitset. It is cleared through the
// list of words it set, so a query pays for the ids it touched, not for the
// size of the collection.
class DenseIdSet {
 public:
  // Makes room for ids below `n`.
  void Fit(size_t n) {
    const size_t words = (n + 63) / 64;
    if (words_.size() < words) words_.resize(words, 0);
  }

  bool contains(NodeId id) const {
    return (words_[id >> 6] >> (id & 63)) & 1;
  }

  // Adds `id`; returns whether it was absent.
  bool insert(NodeId id) {
    uint64_t& word = words_[id >> 6];
    const uint64_t bit = uint64_t{1} << (id & 63);
    if ((word & bit) != 0) return false;
    if (word == 0) touched_.push_back(id >> 6);
    word |= bit;
    return true;
  }

  void clear() {
    for (const uint32_t w : touched_) words_[w] = 0;
    touched_.clear();
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<uint32_t> touched_;  // words that may be nonzero
};

// One entry of Run's current batch: `order` is its position in pop order,
// the tie-break that keeps each partition's group in queue order.
struct BatchEntry {
  uint32_t meta;
  uint32_t order;
  StreamItem item;
};

// Per-thread reusable query state: queues, dedup sets and cursor slots are
// cleared between queries instead of reallocated, so a steady query stream
// stops paying allocation and growth after warm-up. Element sets are
// bitsets over global element ids and per-partition state is indexed by
// meta-document id; each is reset through the entries a query touched.
struct QueryScratch {
  BucketQueue<StreamItem> stream_queue;
  // Run's current entry batch and one partition's admitted seeds.
  std::vector<BatchEntry> batch;
  std::vector<NodeId> seeds;
  std::vector<PointItem> point_items;
  DenseIdSet start_set;
  DenseIdSet emitted;
  DenseIdSet processed;
  std::vector<ActiveCursor> slots;
  // Admitted entry points per meta document; `admitted_in` lists the meta
  // documents with any.
  std::vector<AdmittedEntries> entries;
  std::vector<uint32_t> admitted_in;
  // Run's profiler cell per meta document (null until first charged);
  // `charged` lists the non-null ones.
  std::vector<obs::PartitionDelta*> delta_of;
  std::vector<uint32_t> charged;
  bool in_use = false;

  // Sizes the dense state for a collection of `num_nodes` elements in
  // `num_docs` meta documents.
  void Fit(size_t num_nodes, size_t num_docs) {
    for (DenseIdSet* set : {&start_set, &emitted, &processed}) {
      set->Fit(num_nodes);
    }
    if (entries.size() < num_docs) entries.resize(num_docs);
    if (delta_of.size() < num_docs) delta_of.resize(num_docs, nullptr);
  }

  void Clear() {
    stream_queue.clear();
    batch.clear();
    seeds.clear();
    point_items.clear();
    slots.clear();
    // The reset drops each cover's pin along with the cursor slots above.
    for (const uint32_t m : admitted_in) entries[m].Reset();
    admitted_in.clear();
    for (const uint32_t m : charged) delta_of[m] = nullptr;
    charged.clear();
    for (DenseIdSet* set : {&start_set, &emitted, &processed}) set->clear();
  }
};

// Hands out the thread-local scratch, falling back to a heap-allocated one
// for re-entrant queries (a sink callback may legally issue another query
// on the same PEE — it must not clobber the outer query's state). The
// scratch is cleared once per lease, on release: the heap fallback starts
// fresh, and clearing on release drops cursor slots promptly, so index
// snapshot pins never outlive the query that took them.
//
// Locking discipline (DESIGN.md section 8): deliberately capability-free.
// The scratch is thread-confined by construction — a lease only ever hands
// out this thread's `tls` instance or a heap instance it exclusively owns —
// so there is no shared state for common/sync.h to guard; the in_use flag
// is a same-thread re-entrancy marker, not a lock.
class ScratchLease {
 public:
  ScratchLease() {
    thread_local QueryScratch tls;
    if (!tls.in_use) {
      tls.in_use = true;
      scratch_ = &tls;
      owns_tls_ = true;
    } else {
      heap_ = std::make_unique<QueryScratch>();
      scratch_ = heap_.get();
    }
  }
  ~ScratchLease() {
    if (owns_tls_) {
      scratch_->Clear();
      scratch_->in_use = false;
    }
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  QueryScratch* operator->() const { return scratch_; }

 private:
  QueryScratch* scratch_ = nullptr;
  std::unique_ptr<QueryScratch> heap_;
  bool owns_tls_ = false;
};

// Cached references into the global registry so the hot path pays one
// static-init lookup per process, then only relaxed atomic adds. Registry
// metrics never move or die (Reset() zeroes in place), so the references
// stay valid.
struct PeeMetrics {
  obs::Counter& queries;
  obs::Counter& entries_processed;
  obs::Counter& entries_dominated;
  obs::Counter& dominance_probes;
  obs::Counter& links_followed;
  obs::Counter& index_probes;
  obs::Counter& results_emitted;
  obs::Counter& results_out_of_order;
  obs::Counter& cursors_opened;
  obs::Counter& cursor_pulled;
  obs::Counter& cursor_saved;
  obs::Counter& point_queries;
  obs::Counter& point_pops;
  obs::Counter& guided_pruned;
  obs::Counter& guided_hits;
  obs::Histogram& latency_ns;
  obs::Histogram& point_latency_ns;
  obs::Histogram& results_per_query;

  static PeeMetrics& Get() {
    static PeeMetrics* metrics = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new PeeMetrics{
          reg.GetCounter(obs::names::kQueryCount),
          reg.GetCounter(obs::names::kQueryEntriesProcessed),
          reg.GetCounter(obs::names::kQueryEntriesDominated),
          reg.GetCounter(obs::names::kQueryDominanceProbes),
          reg.GetCounter(obs::names::kQueryLinksFollowed),
          reg.GetCounter(obs::names::kQueryIndexProbes),
          reg.GetCounter(obs::names::kQueryResultsEmitted),
          reg.GetCounter(obs::names::kQueryResultsOutOfOrder),
          reg.GetCounter(obs::names::kQueryCursorOpened),
          reg.GetCounter(obs::names::kQueryCursorPulled),
          reg.GetCounter(obs::names::kQueryCursorSaved),
          reg.GetCounter(obs::names::kQueryPointCount),
          reg.GetCounter(obs::names::kQueryPointPops),
          reg.GetCounter(obs::names::kGuidedPrunedEntries),
          reg.GetCounter(obs::names::kGuidedHeuristicHits),
          reg.GetHistogram(obs::names::kQueryLatencyNs),
          reg.GetHistogram(obs::names::kQueryPointLatencyNs),
          reg.GetHistogram(obs::names::kQueryResults),
      };
    }();
    return *metrics;
  }
};

// Flushes one query's accumulated counters on every exit path of Run: the
// global registry counters, the per-partition profiler deltas, and (when
// configured) the slow-query ring.
struct QueryMetricsFlush {
  PeeMetrics& metrics;
  const QueryStats& stats;
  const size_t& emitted;
  const size_t& out_of_order;
  obs::WorkloadProfiler* profiler;
  const obs::PartitionDeltaMap& deltas;
  const obs::TraceSpan& span;
  size_t num_starts;

  ~QueryMetricsFlush() {
    metrics.queries.Increment();
    metrics.entries_processed.Add(stats.entries_processed);
    metrics.entries_dominated.Add(stats.entries_dominated);
    metrics.dominance_probes.Add(stats.dominance_probes);
    metrics.links_followed.Add(stats.links_followed);
    metrics.index_probes.Add(stats.index_probes);
    metrics.results_emitted.Add(emitted);
    metrics.results_out_of_order.Add(out_of_order);
    metrics.cursors_opened.Add(stats.cursors_opened);
    metrics.cursor_pulled.Add(stats.cursor_pulls);
    metrics.cursor_saved.Add(stats.cursor_saved);
    metrics.results_per_query.Record(emitted);
    const uint64_t latency_ns = span.ElapsedNanos();
    if (profiler != nullptr) profiler->RecordQuery(deltas, latency_ns);
    obs::SlowQueryLog& slow = obs::SlowQueryLog::Global();
    if (slow.ThresholdNanos() != 0 && latency_ns >= slow.ThresholdNanos()) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "pee.query starts=%zu entries=%zu dominance_probes=%zu "
                    "pulls=%zu emitted=%zu",
                    num_starts, stats.entries_processed,
                    stats.dominance_probes, stats.cursor_pulls, emitted);
      slow.Record(buf, latency_ns);
    }
  }
};

// Credits work an early stop skipped: sums the remaining-element hints of
// every cursor still alive when the query unwinds. Declared after the slot
// vector so it runs before the cursors are destroyed, and before
// QueryMetricsFlush (declared earlier) reads the stat.
struct CursorSavingsFlush {
  const std::vector<ActiveCursor>& slots;
  QueryStats& stats;

  ~CursorSavingsFlush() {
    for (const ActiveCursor& ac : slots) {
      if (ac.cursor) stats.cursor_saved += ac.cursor->RemainingHint();
    }
  }
};

}  // namespace

void PathExpressionEvaluator::Run(const std::vector<NodeId>& starts, TagId tag,
                                  bool wildcard, Axis axis,
                                  const QueryOptions& options,
                                  const ResultSink& sink,
                                  QueryStats* stats) const {
  const bool forward = axis == Axis::kDescendants;
  QueryStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  PeeMetrics& metrics = PeeMetrics::Get();
  obs::TraceSpan span(&metrics.latency_ns, "pee.query");
  const bool collecting = span.Collecting();
  // Profiler deltas accumulate in this per-query map (plain non-atomic
  // adds) and flush to the shared profiler once, in ~QueryMetricsFlush.
  obs::WorkloadProfiler* profiler =
      profiler_ != nullptr && profiler_->Enabled() ? profiler_ : nullptr;
  obs::PartitionDeltaMap deltas;
  size_t emitted_count = 0;
  size_t out_of_order = 0;
  Distance last_emitted_distance = 0;
  QueryMetricsFlush flush{metrics,  *stats, emitted_count, out_of_order,
                          profiler, deltas, span,          starts.size()};

  // Reused per-thread state (destroyed after `savings` below, which reads
  // the slots, and before `flush` above, which reads only locals).
  ScratchLease scratch;
  scratch->Fit(set_.meta_of_node.size(), set_.docs.size());
  // Distances are small integers and no push is nearer than the last pop:
  // cursors yield ascending distances, a new cursor's first element lies
  // at least one step past its entry batch, and hop targets are queued at
  // the distance of the frontier item that found them. So one FIFO per
  // distance pops in exactly the (distance, push order) order of a heap.
  BucketQueue<StreamItem>& queue = scratch->stream_queue;
  DenseIdSet& start_set = scratch->start_set;
  for (const NodeId s : starts) {
    queue.push(0, StreamItem(ItemKind::kEntry, s, 0));
    start_set.insert(s);
  }

  std::vector<ActiveCursor>& slots = scratch->slots;
  CursorSavingsFlush savings{slots, *stats};

  // Entry-point admission. By default the duplicate elimination of
  // Section 5.1: an entry that an admitted entry of its meta document
  // dominates is skipped. Exact mode instead admits each entry node once,
  // at its first pop (PointQuery's rule): the queue ascends, so that pop
  // carries the entry's minimum distance, every node's first emission
  // carries its true distance, and results leave in ascending order.
  // `emitted` is the result-level dedup of both rules. Either rule is
  // tested when a link target is pushed and again when it pops; see
  // `dominated_at_push`.
  std::vector<AdmittedEntries>& entries = scratch->entries;
  DenseIdSet& processed = scratch->processed;
  DenseIdSet& emitted = scratch->emitted;
  int64_t num_results = 0;
  // The paper's per-block emission: each local probe is drained into one
  // ascending block and emitted whole (exact mode needs the merged order).
  const bool per_block = options.materialize && !options.exact;

  // The profiler cell of meta document `m`. Map nodes have stable
  // addresses, so after its first charge a partition's cell is an array
  // lookup. Only called with profiling on.
  const auto delta = [&](uint32_t m) -> obs::PartitionDelta& {
    obs::PartitionDelta*& cell = scratch->delta_of[m];
    if (cell == nullptr) {
      cell = &deltas[m];
      scratch->charged.push_back(m);
    }
    return *cell;
  };

  const auto emit = [&](NodeId node, Distance distance) -> bool {
    if (!emitted.insert(node)) return true;
    if (emitted_count > 0 && distance < last_emitted_distance) {
      FLIX_DCHECK(!options.exact,
                  "exact-mode results emitted out of ascending order");
      ++out_of_order;
    }
    last_emitted_distance = distance;
    ++emitted_count;
    // Results are attributed to the partition that holds the element.
    if (profiler != nullptr) {
      ++delta(set_.meta_of_node[node]).results_emitted;
    }
    if (!sink({node, distance})) return false;
    if (options.max_results >= 0 && ++num_results >= options.max_results) {
      return false;
    }
    return true;
  };

  // Pulls the next element off a local-result cursor and queues it. Start
  // nodes are filtered here (they are never results); an exhausted cursor
  // is released so its slot stops contributing to the savings sum.
  const auto arm_result = [&](uint32_t slot) {
    ActiveCursor& ac = slots[slot];
    const MetaDocument& meta = set_.docs[ac.meta];
    while (true) {
      ++stats->cursor_pulls;
      if (ac.delta != nullptr) ++ac.delta->cursor_pulls;
      const std::optional<index::NodeDist> r = ac.cursor->Next();
      if (!r.has_value()) {
        ac.cursor.reset();
        return;
      }
      const NodeId global = meta.global_nodes[r->node];
      if (start_set.contains(global)) continue;
      queue.push(ac.base + r->distance,
                 StreamItem(ItemKind::kResult, global, slot));
      return;
    }
  };

  // Same for a frontier cursor; the queued distance includes the link hop.
  const auto arm_frontier = [&](uint32_t slot) {
    ActiveCursor& ac = slots[slot];
    ++stats->cursor_pulls;
    if (ac.delta != nullptr) ++ac.delta->cursor_pulls;
    const std::optional<index::NodeDist> f = ac.cursor->Next();
    if (!f.has_value()) {
      ac.cursor.reset();
      return;
    }
    queue.push(ac.base + f->distance + 1,
               StreamItem(ItemKind::kFrontier, f->node, slot));
  };

  // Duplicate elimination at push time: a link target that its partition's
  // admitted entries already cover (exact mode: that was already processed)
  // is counted as dominated and never queued. Admitted sets only grow, so
  // it would be dominated at its pop too, and the entries processed are
  // those of a pop-time-only test. A target that is queued carries, in
  // `admitted_before`, the admission count it was tested against, so its
  // pop re-tests only the entries admitted since.
  const auto dominated_at_push = [&](NodeId target,
                                     uint32_t& admitted_before) -> bool {
    const uint32_t m = set_.meta_of_node[target];
    bool covered = false;
    if (options.exact) {
      covered = processed.contains(target);
    } else {
      AdmittedEntries& admitted = entries[m];
      admitted_before = static_cast<uint32_t>(admitted.size());
      covered = admitted.Covers(set_.local_of_node[target],
                                stats->dominance_probes);
    }
    if (!covered) return false;
    ++stats->entries_dominated;
    if (profiler != nullptr) ++delta(m).entries_dominated;
    return true;
  };

  // Processes one partition's share of an entry batch at distance `base`:
  // admission per entry point, then one local and one frontier cursor over
  // all admitted entries at once. Returns false when the sink stopped the
  // query.
  std::vector<NodeId>& seeds = scratch->seeds;
  const auto open_batch = [&](uint32_t m, Distance base,
                              std::span<const BatchEntry> group) -> bool {
    const MetaDocument& meta = set_.docs[m];
    // One snapshot per batch: every probe and cursor opened below works
    // against this index even if a migration swaps the handle. A batch
    // processed later may see the replacement — both are exact over the
    // same local graph, so mixing them mid-query stays correct.
    const std::shared_ptr<index::PathIndex> index = meta.index.Acquire();
    obs::PartitionDelta* pdelta = profiler != nullptr ? &delta(m) : nullptr;
    // Spans that record nothing are not built: each would read the clock
    // twice per partition visit.
    std::optional<obs::TraceSpan> entry_span;
    if (collecting) {
      entry_span.emplace(nullptr, "pee.entry");
      entry_span->AddAttr("partition", static_cast<int64_t>(m));
      entry_span->AddAttr("strategy", index->name());
    }
    AdmittedEntries& admitted_entries = entries[m];
    // The batch's first entry is admitted whenever none was before.
    if (!options.exact && admitted_entries.size() == 0) {
      scratch->admitted_in.push_back(m);
    }

    seeds.clear();
    for (const BatchEntry& entry : group) {
      const NodeId e = entry.item.node();
      const NodeId le = set_.local_of_node[e];
      // Only entries admitted since the push can cover `e` now.
      const bool admitted =
          options.exact
              ? processed.insert(e)
              : admitted_entries.Admit(le, index, forward, entry.item.slot(),
                                       stats->dominance_probes);
      if (!admitted) {
        ++stats->entries_dominated;
        if (pdelta != nullptr) ++pdelta->entries_dominated;
        continue;
      }
      ++stats->entries_processed;
      if (pdelta != nullptr) ++pdelta->entries_processed;
      seeds.push_back(le);
      // The entry element itself is a proper result when it was reached via
      // a link (not an original start) and matches the condition. The
      // cursors below never yield their seeds.
      if (!start_set.contains(e) && (wildcard || meta.graph.Tag(le) == tag)) {
        if (!emit(e, base)) return false;
      }
    }
    if (entry_span.has_value()) {
      entry_span->AddAttr("seeds", static_cast<int64_t>(seeds.size()));
    }
    if (seeds.empty()) return true;

    // Local probe: a lazy cursor over matches within the meta document,
    // each at its distance from the nearest seed.
    {
      std::optional<obs::TraceSpan> cursor_span;
      if (collecting) cursor_span.emplace(nullptr, "pee.cursor.local");
      ++stats->index_probes;
      ++stats->cursors_opened;
      if (pdelta != nullptr) {
        ++pdelta->index_probes;
        ++pdelta->cursors_opened;
      }
      std::unique_ptr<index::NodeDistCursor> cursor =
          index->MultiSourceCursor(seeds, tag, wildcard, forward);
      if (per_block) {
        // A block surfaces only once its probe is complete, so drain it all
        // before the first emit. Its pulls count like a merged cursor's:
        // one per element plus the final one.
        const std::vector<index::NodeDist> block = index::DrainCursor(*cursor);
        stats->cursor_pulls += block.size() + 1;
        if (pdelta != nullptr) pdelta->cursor_pulls += block.size() + 1;
        for (const index::NodeDist& r : block) {
          const Distance total = base + r.distance;
          if (options.max_distance >= 0 && total > options.max_distance) break;
          const NodeId global = meta.global_nodes[r.node];
          if (start_set.contains(global)) continue;
          if (!emit(global, total)) return false;
        }
      } else {
        slots.push_back({std::move(cursor), index, base, m, pdelta});
        arm_result(static_cast<uint32_t>(slots.size() - 1));
      }
    }

    // Frontier probe: a lazy cursor over the link sources (or entry nodes,
    // for the ancestors axis) the seeds reach.
    {
      std::optional<obs::TraceSpan> cursor_span;
      if (collecting) cursor_span.emplace(nullptr, "pee.cursor.frontier");
      ++stats->index_probes;
      ++stats->cursors_opened;
      if (pdelta != nullptr) {
        ++pdelta->index_probes;
        ++pdelta->cursors_opened;
      }
      slots.push_back(
          {index->MultiSourceAmongCursor(
               seeds, forward ? meta.link_sources : meta.entry_nodes, forward),
           index, base, m, pdelta});
      arm_frontier(static_cast<uint32_t>(slots.size() - 1));
    }
    return true;
  };

  std::vector<BatchEntry>& batch = scratch->batch;
  while (!queue.empty()) {
    const Distance distance = queue.top_distance();
    const StreamItem item = queue.top();
    queue.pop();
    // The queue is ascending, so the first item past the bound ends the
    // query — everything still queued (or unpulled) is at least as far.
    if (options.max_distance >= 0 && distance > options.max_distance) {
      break;
    }

    if (item.kind() == ItemKind::kResult) {
      if (!emit(item.node(), distance)) return;
      arm_result(item.slot());
      continue;
    }

    if (item.kind() == ItemKind::kFrontier) {
      ActiveCursor& ac = slots[item.slot()];
      const MetaDocument& meta = set_.docs[ac.meta];
      const std::span<const NodeId> hops =
          forward ? meta.link_targets.At(item.node())
                  : meta.entry_origins.At(item.node());
      for (const NodeId target : hops) {
        ++stats->links_followed;
        // Cross-link fan-out is charged to the partition being *left* —
        // the one whose meta-document choice forced the hop.
        if (ac.delta != nullptr) ++ac.delta->entry_fanout;
        uint32_t admitted_before = 0;
        if (!dominated_at_push(target, admitted_before)) {
          queue.push(distance,
                     StreamItem(ItemKind::kEntry, target, admitted_before));
        }
      }
      arm_frontier(item.slot());
      continue;
    }

    // kEntry: take every entry point queued right behind this one at the
    // same distance as one batch (all starts of an A//B query form one).
    // Nothing the batch pushes is that near (results and hops are at least
    // one step farther), so batching never moves an item ahead of a nearer
    // one.
    batch.clear();
    batch.push_back({set_.meta_of_node[item.node()], 0, item});
    while (!queue.empty() && queue.top_distance() == distance &&
           queue.top().kind() == ItemKind::kEntry) {
      const StreamItem next = queue.top();
      queue.pop();
      batch.push_back({set_.meta_of_node[next.node()],
                       static_cast<uint32_t>(batch.size()), next});
    }
    if (batch.size() > 1) {
      std::sort(batch.begin(), batch.end(),
                [](const BatchEntry& a, const BatchEntry& b) {
                  return std::tie(a.meta, a.order) < std::tie(b.meta, b.order);
                });
    }
    for (size_t first = 0; first < batch.size();) {
      const uint32_t m = batch[first].meta;
      size_t last = first + 1;
      while (last < batch.size() && batch[last].meta == m) ++last;
      if (!open_batch(m, distance,
                      std::span(batch).subspan(first, last - first))) {
        return;
      }
      first = last;
    }
  }
}

void PathExpressionEvaluator::FindDescendantsByTag(NodeId start, TagId tag,
                                                   const QueryOptions& options,
                                                   const ResultSink& sink,
                                                   QueryStats* stats) const {
  Run({start}, tag, /*wildcard=*/false, Axis::kDescendants, options, sink,
      stats);
}

void PathExpressionEvaluator::FindDescendants(NodeId start,
                                              const QueryOptions& options,
                                              const ResultSink& sink,
                                              QueryStats* stats) const {
  Run({start}, kInvalidTag, /*wildcard=*/true, Axis::kDescendants, options,
      sink, stats);
}

void PathExpressionEvaluator::FindAncestorsByTag(NodeId start, TagId tag,
                                                 const QueryOptions& options,
                                                 const ResultSink& sink,
                                                 QueryStats* stats) const {
  Run({start}, tag, /*wildcard=*/false, Axis::kAncestors, options, sink,
      stats);
}

void PathExpressionEvaluator::EvaluateTypeQuery(TagId start_tag,
                                                TagId result_tag,
                                                const QueryOptions& options,
                                                const ResultSink& sink,
                                                QueryStats* stats) const {
  std::vector<NodeId> starts;
  for (const MetaDocument& meta : set_.docs) {
    for (const NodeId local : meta.graph.NodesWithTag(start_tag)) {
      starts.push_back(meta.global_nodes[local]);
    }
  }
  std::sort(starts.begin(), starts.end());
  Run(starts, result_tag, /*wildcard=*/false, Axis::kDescendants, options,
      sink, stats);
}

Distance PathExpressionEvaluator::PointQuery(NodeId a, NodeId b,
                                             Distance max_distance) const {
  PeeMetrics& metrics = PeeMetrics::Get();
  metrics.point_queries.Increment();
  obs::TraceSpan span(&metrics.point_latency_ns, "pee.point_query");
  if (a == b) return 0;
  const uint32_t target_meta = set_.meta_of_node[b];
  const NodeId target_local = set_.local_of_node[b];

  // ALT guidance: snapshot the landmark cache once per query (null when
  // disabled or never built). A concurrent refresh may leave this snapshot
  // a generation behind — still admissible, because the element graph the
  // distances were measured on does not change; the refresher just picks
  // better landmarks for the current partitioning.
  const std::shared_ptr<const LandmarkCache> landmarks =
      set_.landmarks.Acquire();
  const bool guided = landmarks != nullptr && !landmarks->empty() &&
                      landmarks->Covers(a) && landmarks->Covers(b);
  LandmarkCache::GoalView goal;
  size_t pruned = 0;
  size_t hits = 0;
  const auto lower_bound = [&](NodeId n) -> Distance {
    const Distance h = landmarks->LowerBound(n, goal);
    if (h > 0) ++hits;
    return h;
  };
  Distance h_start = 0;
  if (guided) {
    goal = landmarks->Goal(b);
    if (landmarks->ProvablyUnreachable(a, goal)) {
      metrics.guided_pruned.Add(++pruned);
      return kUnreachable;
    }
    h_start = lower_bound(a);
    if (max_distance >= 0 && h_start > max_distance) {
      metrics.guided_pruned.Add(++pruned);
      metrics.guided_hits.Add(hits);
      return kUnreachable;
    }
  }

  ScratchLease scratch;
  scratch->Fit(set_.meta_of_node.size(), set_.docs.size());
  BorrowedMinHeap<PointItem> queue(scratch->point_items);
  uint64_t seq = 0;
  queue.push({h_start, 0, seq++, a});
  DenseIdSet& processed = scratch->processed;
  Distance best = kUnreachable;
  size_t pops = 0;

  while (!queue.empty()) {
    const PointItem item = queue.top();
    queue.pop();
    ++pops;
    // f = g + h lower-bounds every answer reachable through this entry, and
    // the queue ascends in f: the first item past the distance budget or
    // the best answer so far proves nothing better remains queued. With no
    // landmarks f == g and this is the classic Dijkstra stop.
    if (max_distance >= 0 && item.f > max_distance) break;
    if (best != kUnreachable && item.f >= best) break;
    const NodeId e = item.node;
    // Dijkstra/A* semantics: the heuristic is consistent (each landmark
    // bound obeys the triangle inequality over super-edges), so the first
    // pop of a node carries its minimal g; later pops are duplicates. Both
    // modes share this rule, which is what makes their answers identical.
    if (!processed.insert(e)) continue;
    const uint32_t m = set_.meta_of_node[e];
    const NodeId le = set_.local_of_node[e];
    const MetaDocument& meta = set_.docs[m];
    // Migration-safe snapshot for every probe of this entry point.
    const std::shared_ptr<index::PathIndex> index = meta.index.Acquire();

    if (m == target_meta) {
      const Distance d = index->DistanceBetween(le, target_local);
      if (d != kUnreachable) {
        const Distance total = item.g + d;
        if (best == kUnreachable || total < best) best = total;
      }
    }

    const std::vector<index::NodeDist> frontier =
        index->ReachableAmong(le, meta.link_sources);
    for (const index::NodeDist& f : frontier) {
      const Distance hop_distance = item.g + f.distance + 1;
      if (max_distance >= 0 && hop_distance > max_distance) continue;
      if (best != kUnreachable && hop_distance >= best) continue;
      const std::span<const NodeId> hops = meta.link_targets.At(f.node);
      queue.reserve(queue.size() + hops.size());
      for (const NodeId target : hops) {
        // The closed-set check at push time: a processed node already
        // popped at its minimal g, so queueing it again buys nothing.
        if (processed.contains(target)) continue;
        Distance h = 0;
        if (guided) {
          if (landmarks->ProvablyUnreachable(target, goal)) {
            ++pruned;
            continue;
          }
          h = lower_bound(target);
          const Distance bound = hop_distance + h;
          // The A* win over blind search: entries whose admissible lower
          // bound already exceeds the budget or the best answer never
          // enter the queue, so the frontier stays aimed at the goal.
          if ((max_distance >= 0 && bound > max_distance) ||
              (best != kUnreachable && bound >= best)) {
            ++pruned;
            continue;
          }
        }
        queue.push({hop_distance + h, hop_distance, seq++, target});
      }
    }
  }
  metrics.point_pops.Add(pops);
  if (guided) {
    metrics.guided_pruned.Add(pruned);
    metrics.guided_hits.Add(hits);
  }
  if (best != kUnreachable && max_distance >= 0 && best > max_distance) {
    return kUnreachable;
  }
  return best;
}

bool PathExpressionEvaluator::IsConnected(NodeId a, NodeId b,
                                          Distance max_distance) const {
  return PointQuery(a, b, max_distance) != kUnreachable;
}

Distance PathExpressionEvaluator::FindDistance(NodeId a, NodeId b,
                                               Distance max_distance) const {
  return PointQuery(a, b, max_distance);
}

bool PathExpressionEvaluator::IsConnectedBidirectional(
    NodeId a, NodeId b, Distance max_distance) const {
  if (a == b) return true;
  // Landmark precheck: an exact unreachability certificate (see
  // LandmarkCache::ProvablyUnreachable) settles the question before either
  // frontier expands. No heuristic steering beyond this — the bidirectional
  // walk has no single goal to aim at.
  if (const std::shared_ptr<const LandmarkCache> landmarks =
          set_.landmarks.Acquire();
      landmarks != nullptr && !landmarks->empty() && landmarks->Covers(a) &&
      landmarks->Covers(b) &&
      landmarks->ProvablyUnreachable(a, landmarks->Goal(b))) {
    PeeMetrics::Get().guided_pruned.Increment();
    return false;
  }
  // Forward frontier from a over meta-document entry points, backward
  // frontier from b; meet detection asks, per meta document seen by both
  // sides, the other side's admitted entries: a forward entry meets when it
  // reaches some backward entry, a backward entry when some forward entry
  // reaches it — exactly what each side's dominance state answers.
  struct Side {
    MinQueue queue;
    std::unordered_map<uint32_t, AdmittedEntries> entries;
    uint64_t seq = 0;
  };
  Side fwd;
  Side bwd;
  fwd.queue.push({0, fwd.seq++, a});
  bwd.queue.push({0, bwd.seq++, b});
  size_t probes = 0;

  const auto expand = [&](Side& side, bool forward) -> bool {
    const QueueItem item = side.queue.top();
    side.queue.pop();
    if (max_distance >= 0 && item.distance > max_distance) return false;
    const NodeId e = item.node;
    const uint32_t m = set_.meta_of_node[e];
    const NodeId le = set_.local_of_node[e];
    const MetaDocument& meta = set_.docs[m];
    // Migration-safe snapshot for every probe of this entry point.
    const std::shared_ptr<index::PathIndex> index = meta.index.Acquire();

    if (!side.entries[m].Admit(le, index, forward, 0, probes)) return false;

    // Meet check against the opposite side's entries in this meta document.
    Side& other = forward ? bwd : fwd;
    const auto it = other.entries.find(m);
    if (it != other.entries.end() && it->second.Covers(le, probes)) {
      return true;
    }

    const std::vector<index::NodeDist> frontier =
        forward ? index->ReachableAmong(le, meta.link_sources)
                : index->AncestorsAmong(le, meta.entry_nodes);
    for (const index::NodeDist& f : frontier) {
      const Distance hop_distance = item.distance + f.distance + 1;
      if (max_distance >= 0 && hop_distance > max_distance) continue;
      const std::span<const NodeId> hops =
          forward ? meta.link_targets.At(f.node)
                  : meta.entry_origins.At(f.node);
      for (const NodeId target : hops) {
        side.queue.push({hop_distance, side.seq++, target});
      }
    }
    return false;
  };

  const auto search = [&]() -> bool {
    while (!fwd.queue.empty() || !bwd.queue.empty()) {
      // Expand the side with the smaller frontier ("depending on the
      // structure of documents, either of them may be the best", Section
      // 5.2): on citation-shaped data the ancestors side explodes, so
      // balancing by queue size keeps the search on the cheap side.
      const bool pick_forward =
          bwd.queue.empty() ||
          (!fwd.queue.empty() && fwd.queue.size() <= bwd.queue.size());
      if (expand(pick_forward ? fwd : bwd, pick_forward)) return true;
    }
    return false;
  };
  const bool connected = search();
  PeeMetrics::Get().dominance_probes.Add(probes);
  return connected;
}

std::vector<Result> PathExpressionEvaluator::Children(NodeId node) const {
  const uint32_t m = set_.meta_of_node[node];
  const NodeId local = set_.local_of_node[node];
  const MetaDocument& meta = set_.docs[m];
  std::vector<Result> children;
  for (const graph::Digraph::Arc& arc : meta.graph.OutArcs(local)) {
    children.push_back({meta.global_nodes[arc.target], 1});
  }
  for (const NodeId target : meta.link_targets.At(local)) {
    children.push_back({target, 1});
  }
  return children;
}

std::vector<Result> PathExpressionEvaluator::Parents(NodeId node) const {
  const uint32_t m = set_.meta_of_node[node];
  const NodeId local = set_.local_of_node[node];
  const MetaDocument& meta = set_.docs[m];
  std::vector<Result> parents;
  for (const graph::Digraph::Arc& arc : meta.graph.InArcs(local)) {
    parents.push_back({meta.global_nodes[arc.target], 1});
  }
  for (const NodeId origin : meta.entry_origins.At(local)) {
    parents.push_back({origin, 1});
  }
  return parents;
}

std::vector<Result> PathExpressionEvaluator::ChildrenByTag(NodeId node,
                                                           TagId tag) const {
  std::vector<Result> filtered;
  for (const Result& child : Children(node)) {
    const uint32_t m = set_.meta_of_node[child.node];
    const NodeId local = set_.local_of_node[child.node];
    if (set_.docs[m].graph.Tag(local) == tag) filtered.push_back(child);
  }
  return filtered;
}

std::vector<Result> PathExpressionEvaluator::Siblings(NodeId node) const {
  std::vector<Result> siblings;
  std::unordered_set<NodeId> seen = {node};
  for (const Result& parent : Parents(node)) {
    for (const Result& child : Children(parent.node)) {
      if (seen.insert(child.node).second) {
        siblings.push_back({child.node, 2});
      }
    }
  }
  return siblings;
}

AsyncQuery::~AsyncQuery() {
  // Moved-from handles hold neither list nor thread.
  if (list_ != nullptr) list_->Cancel();
  if (worker_.joinable()) worker_.join();
}

AsyncQuery PathExpressionEvaluator::FindDescendantsByTagAsync(
    NodeId start, TagId tag, QueryOptions options, size_t capacity) const {
  AsyncQuery query(capacity);
  StreamedList* list = query.list_.get();  // stable across the handle's move
  query.worker_ = std::thread([this, start, tag, options, list] {
    FindDescendantsByTag(start, tag, options, [&](const Result& r) {
      return list->Push(r);
    });
    list->Close();
  });
  return query;
}

}  // namespace flix::core
