#include "index/hopi.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "common/rng.h"
#include "graph/partition.h"
#include "graph/traversal.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace flix::index {
namespace {

constexpr Distance kInfinity = std::numeric_limits<Distance>::max();

bool SameIds(std::span<const NodeId> a, const std::vector<NodeId>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// Degree-product hub priority: nodes on many paths first.
uint64_t DegreePriority(const graph::Digraph& g, NodeId v) {
  return static_cast<uint64_t>(g.InDegree(v) + 1) *
         static_cast<uint64_t>(g.OutDegree(v) + 1);
}

// Paged-segment array ids.
constexpr uint32_t kOutOffsets = 1;
constexpr uint32_t kOutFlat = 2;
constexpr uint32_t kInOffsets = 3;
constexpr uint32_t kInFlat = 4;
constexpr uint32_t kTagArray = 5;
constexpr uint32_t kRankOfNode = 6;
constexpr uint32_t kNodeOfRank = 7;
constexpr uint32_t kInvInOffsets = 8;
constexpr uint32_t kInvInFlat = 9;
constexpr uint32_t kInvOutOffsets = 10;
constexpr uint32_t kInvOutFlat = 11;
// Registered probe sets and their pre-filtered inverted lists (see
// RegisterLinkSources). Persisted so a paged load binds them as views
// instead of re-deriving them from the full label volume; absent from
// files saved before registration (the loader then leaves them empty).
constexpr uint32_t kRegSourcesArray = 12;
constexpr uint32_t kInvInSrcOffsets = 13;
constexpr uint32_t kInvInSrcFlat = 14;
constexpr uint32_t kRegEntriesArray = 15;
constexpr uint32_t kInvOutEntOffsets = 16;
constexpr uint32_t kInvOutEntFlat = 17;

// Bit-reversal of a node id. Used as the tie-break among equal-degree
// nodes: on chain-shaped regions (where every degree product ties and node
// ids follow document order) this yields a middle-first recursive
// subdivision, keeping the cover near-linear instead of quadratic —
// mirroring the "central" center selection of Cohen et al.
uint32_t BitReverse(uint32_t x) {
  x = ((x & 0x55555555u) << 1) | ((x >> 1) & 0x55555555u);
  x = ((x & 0x33333333u) << 2) | ((x >> 2) & 0x33333333u);
  x = ((x & 0x0F0F0F0Fu) << 4) | ((x >> 4) & 0x0F0F0F0Fu);
  x = ((x & 0x00FF00FFu) << 8) | ((x >> 8) & 0x00FF00FFu);
  return (x << 16) | (x >> 16);
}

}  // namespace

std::unique_ptr<HopiIndex> HopiIndex::Build(const graph::Digraph& g,
                                            const HopiOptions& options) {
  auto index = std::unique_ptr<HopiIndex>(new HopiIndex());

  std::vector<uint32_t>* priority_ptr = nullptr;
  std::vector<uint32_t> priority;
  if (options.partition_bound > 0 && g.NumNodes() > 0) {
    // Divide-and-conquer: nodes incident to partition-crossing edges become
    // global hubs first; they then cover all cross-partition paths, so the
    // per-partition covers stay local — the unified pruned build realizes
    // the "cover partitions, then repair across the cut" plan in one pass.
    graph::PartitionOptions popts;
    popts.max_nodes = options.partition_bound;
    const graph::PartitionResult parts = graph::PartitionBySize(g, popts);
    priority.assign(g.NumNodes(), 0);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      for (const graph::Digraph::Arc& arc : g.OutArcs(u)) {
        if (parts.partition_of[u] != parts.partition_of[arc.target]) {
          priority[u] = 1;
          priority[arc.target] = 1;
        }
      }
    }
    priority_ptr = &priority;
  }

  index->BuildGlobal(g, priority_ptr);
  index->BuildInverted();
  return index;
}

void HopiIndex::BuildGlobal(const graph::Digraph& g,
                            const std::vector<uint32_t>* hub_priority) {
  const size_t n = g.NumNodes();
  out_labels_.Assign(n);
  in_labels_.Assign(n);
  tag_.resize(n);
  for (NodeId v = 0; v < n; ++v) tag_[v] = g.Tag(v);

  // Hub order: (optional border flag, degree product) descending; the label
  // entries store the processing *rank* of a hub so per-node label vectors
  // stay sorted by construction.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<uint64_t> weight(n);
  for (NodeId v = 0; v < n; ++v) {
    const uint64_t border =
        hub_priority != nullptr && (*hub_priority)[v] > 0 ? 1 : 0;
    weight[v] = (border << 62) | DegreePriority(g, v);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (weight[a] != weight[b]) return weight[a] > weight[b];
    const uint32_t ra = BitReverse(a);
    const uint32_t rb = BitReverse(b);
    return ra != rb ? ra < rb : a < b;
  });

  rank_of_node_.assign(n, kInvalidNode);
  node_of_rank_.assign(n, kInvalidNode);
  for (NodeId r = 0; r < n; ++r) {
    rank_of_node_[order[r]] = r;
    node_of_rank_[r] = order[r];
  }

  // Epoch-stamped BFS scratch (cleared in O(1) between hubs).
  std::vector<Distance> dist(n, 0);
  std::vector<uint32_t> stamp(n, 0);
  uint32_t epoch = 0;
  std::deque<NodeId> queue;

  for (NodeId rank = 0; rank < n; ++rank) {
    const NodeId hub = order[rank];
    // Pass 1: forward pruned BFS, assigning (hub, d) to L_in of reached
    // nodes. Pass 2: backward, assigning to L_out.
    for (const bool forward : {true, false}) {
      ++epoch;
      queue.clear();
      queue.push_back(hub);
      dist[hub] = 0;
      stamp[hub] = epoch;
      while (!queue.empty()) {
        const NodeId v = queue.front();
        queue.pop_front();
        const Distance d = dist[v];
        // Prune if the labels built so far already certify a distance <= d
        // between hub and v (in the pass direction).
        const Distance certified =
            forward ? QueryLabels(out_labels_[hub], in_labels_[v])
                    : QueryLabels(out_labels_[v], in_labels_[hub]);
        if (certified <= d) continue;
        if (forward) {
          in_labels_.Row(v).push_back({rank, d});
        } else {
          out_labels_.Row(v).push_back({rank, d});
        }
        const auto& arcs = forward ? g.OutArcs(v) : g.InArcs(v);
        for (const graph::Digraph::Arc& arc : arcs) {
          if (stamp[arc.target] != epoch) {
            stamp[arc.target] = epoch;
            dist[arc.target] = d + 1;
            queue.push_back(arc.target);
          }
        }
      }
    }
  }

  for (auto& labels : out_labels_.OwnedRows()) labels.shrink_to_fit();
  for (auto& labels : in_labels_.OwnedRows()) labels.shrink_to_fit();
}

void HopiIndex::BuildInverted() {
  const size_t n = in_labels_.size();
  inverted_in_.Assign(n);
  inverted_out_.Assign(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const LabelEntry& e : in_labels_[v]) {
      inverted_in_.Row(e.hub).push_back({v, e.distance});
    }
    for (const LabelEntry& e : out_labels_[v]) {
      inverted_out_.Row(e.hub).push_back({v, e.distance});
    }
  }
  // Sort each hub's list by (distance, node): the enumeration cursors merge
  // the lists of a node's hubs and rely on each being ascending.
  const auto by_distance = [](const LabelEntry& a, const LabelEntry& b) {
    return std::tie(a.distance, a.hub) < std::tie(b.distance, b.hub);
  };
  for (auto& list : inverted_in_.OwnedRows()) {
    std::sort(list.begin(), list.end(), by_distance);
  }
  for (auto& list : inverted_out_.OwnedRows()) {
    std::sort(list.begin(), list.end(), by_distance);
  }
}

Distance HopiIndex::QueryLabels(std::span<const LabelEntry> out,
                                std::span<const LabelEntry> in) {
  Distance best = kInfinity;
  size_t i = 0;
  size_t j = 0;
  while (i < out.size() && j < in.size()) {
    if (out[i].hub < in[j].hub) {
      ++i;
    } else if (out[i].hub > in[j].hub) {
      ++j;
    } else {
      best = std::min(best, out[i].distance + in[j].distance);
      ++i;
      ++j;
    }
  }
  return best;
}

Distance HopiIndex::DistanceBetween(NodeId from, NodeId to) const {
  if (from == to) return 0;
  const Distance d = QueryLabels(out_labels_[from], in_labels_[to]);
  return d == kInfinity ? kUnreachable : d;
}

namespace {

// Hub-union cover: a bitset of the hub ranks in the labels of every added
// node. Forward, p reaches x iff L_out(p) and L_in(x) share a hub, and every
// label holds its own node as a hub (distance 0), which covers p == x. So
// Covers(x) scans L_in(x) for a set bit — O(|label|) however many nodes
// were added. Backward swaps the roles of the two label sets. Ranks outside
// [0, n) never match, so a damaged label cannot index past the bitset.
class HubUnionCover : public ReachCover {
 public:
  using Labels = storage::FlatRows<HopiIndex::LabelEntry>;

  HubUnionCover(const Labels& added, const Labels& probed, size_t num_ranks)
      : added_(added),
        probed_(probed),
        num_ranks_(num_ranks),
        bits_((num_ranks + 63) / 64, 0) {}

  void Add(NodeId p) override {
    for (const HopiIndex::LabelEntry& e : added_[p]) {
      if (e.hub < num_ranks_) bits_[e.hub >> 6] |= uint64_t{1} << (e.hub & 63);
    }
  }

  bool Covers(NodeId x) override {
    ++probes_;
    for (const HopiIndex::LabelEntry& e : probed_[x]) {
      if (e.hub < num_ranks_ && ((bits_[e.hub >> 6] >> (e.hub & 63)) & 1)) {
        return true;
      }
    }
    return false;
  }

 private:
  const Labels& added_;
  const Labels& probed_;
  const size_t num_ranks_;
  std::vector<uint64_t> bits_;
};

}  // namespace

std::unique_ptr<ReachCover> HopiIndex::NewReachCover(bool forward) const {
  return std::make_unique<HubUnionCover>(forward ? out_labels_ : in_labels_,
                                         forward ? in_labels_ : out_labels_,
                                         node_of_rank_.size());
}

namespace {

// Process-wide HOPI merge-cursor counters (resolved once; Counter addresses
// survive MetricsRegistry::Reset()): results yielded, heap pops, and list
// entries a head stepped over without pushing them.
obs::Counter& HopiPullCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kCursorPulledHopi);
  return counter;
}
obs::Counter& HopiHeapPopCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::names::kCursorHeapPopsHopi);
  return counter;
}
obs::Counter& HopiSkippedCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      obs::names::kCursorSkippedHopi);
  return counter;
}

// K-way merge over the inverted lists of `from`'s hubs, keyed by
// label-distance + entry-distance. Each list is ascending by (distance,
// node), so the heap pops globally ascending (distance, node) pairs and the
// *first* pop of a node carries its 2-hop distance (min over common hubs).
// A head never pushes an entry it cannot yield: whenever it advances, it
// steps over the entries of its own list whose node is already seen (yielded
// or excluded) or, on a by-tag cursor, has another tag, so nearly every pop
// is a result. Only a node that sits at the head of two lists at once pops
// twice; the seen set drops the later pop. `from_labels` may also be the
// fold of several seeds' labels (HopiIndex::FoldLabels): the merge then
// yields the distance from the nearest seed.
class HopiMergeCursor : public index::NodeDistCursor {
 public:
  // `exclude` lists nodes never to yield (the query origins).
  HopiMergeCursor(std::span<const HopiIndex::LabelEntry> from_labels,
                  const storage::FlatRows<HopiIndex::LabelEntry>& inverted,
                  std::span<const TagId> tag_of, TagId tag, bool wildcard,
                  std::span<const NodeId> exclude)
      : inverted_(inverted),
        tag_of_(tag_of),
        tag_(tag),
        wildcard_(wildcard),
        seen_(tag_of.size(), 0) {
    for (const NodeId v : exclude) seen_[v] = 1;
    heads_.reserve(from_labels.size());
    for (const HopiIndex::LabelEntry& hub_entry : from_labels) {
      const size_t size = inverted_[hub_entry.hub].size();
      if (size == 0) continue;
      remaining_ += size;
      heads_.push_back({hub_entry.distance, hub_entry.hub, 0});
      PushFrom(static_cast<uint32_t>(heads_.size() - 1));
    }
  }

  // The destructor flushes the tallies; a copy would count them twice.
  HopiMergeCursor(const HopiMergeCursor&) = delete;
  HopiMergeCursor& operator=(const HopiMergeCursor&) = delete;
  ~HopiMergeCursor() override {
    HopiHeapPopCounter().Add(heap_pops_);
    HopiSkippedCounter().Add(skipped_);
  }

  std::optional<NodeDist> Next() override {
    while (!heap_.empty()) {
      const HeapEntry top = heap_.top();
      heap_.pop();
      ++heap_pops_;
      --remaining_;
      ++heads_[top.list].pos;
      PushFrom(top.list);
      if (seen_[top.node]) continue;
      seen_[top.node] = 1;
      HopiPullCounter().Increment();
      return NodeDist{top.node, top.distance};
    }
    return std::nullopt;
  }

  Distance BoundHint() const override {
    return heap_.empty() ? kUnreachable : heap_.top().distance;
  }

  // Counts the list entries neither pulled nor skipped; an overestimate
  // when a node occurs under several hubs (best-effort, observability only).
  size_t RemainingHint() const override { return remaining_; }

 private:
  // Steps head `list` past the entries it cannot yield and pushes the first
  // one it can, if any.
  void PushFrom(uint32_t list) {
    Head& head = heads_[list];
    const std::span<const HopiIndex::LabelEntry> entries = inverted_[head.hub];
    const size_t from = head.pos;
    while (head.pos < entries.size() && !Yieldable(entries[head.pos].hub)) {
      ++head.pos;
    }
    skipped_ += head.pos - from;
    remaining_ -= head.pos - from;
    if (head.pos < entries.size()) {
      heap_.push({head.base + entries[head.pos].distance,
                  entries[head.pos].hub, list});
    }
  }

  // The tag test comes first: on a sparse tag it rejects most entries
  // without touching the seen set.
  bool Yieldable(NodeId v) const {
    return (wildcard_ || tag_of_[v] == tag_) && !seen_[v];
  }

  struct HeapEntry {
    Distance distance;
    NodeId node;
    uint32_t list;

    bool operator>(const HeapEntry& other) const {
      return std::tie(distance, node) > std::tie(other.distance, other.node);
    }
  };
  struct Head {
    Distance base;  // distance from the query node to this list's hub
    NodeId hub;
    size_t pos;
  };

  const storage::FlatRows<HopiIndex::LabelEntry>& inverted_;
  const std::span<const TagId> tag_of_;
  const TagId tag_;
  const bool wildcard_;
  std::vector<uint8_t> seen_;
  std::vector<Head> heads_;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  size_t remaining_ = 0;
  // Plain tallies, added to the process-wide counters once on destruction.
  uint64_t heap_pops_ = 0;
  uint64_t skipped_ = 0;
};

}  // namespace

std::unique_ptr<NodeDistCursor> HopiIndex::MergeCursor(
    NodeId from, TagId tag, bool wildcard, NodeId exclude,
    const storage::FlatRows<LabelEntry>& labels,
    const storage::FlatRows<LabelEntry>& inverted) const {
  return std::make_unique<HopiMergeCursor>(
      labels[from], inverted, tag_.span(), tag, wildcard,
      exclude == kInvalidNode ? std::span<const NodeId>()
                              : std::span<const NodeId>(&exclude, 1));
}

std::vector<HopiIndex::LabelEntry> HopiIndex::FoldLabels(
    std::span<const NodeId> seeds,
    const storage::FlatRows<LabelEntry>& labels) const {
  // slot_of_rank[h] is 1 + h's position in `folded`, or 0. Per thread so
  // the index stays shareable across query threads; every slot is zero
  // again on return, so one array serves every index of this thread.
  thread_local std::vector<uint32_t> slot_of_rank;
  const size_t num_ranks = node_of_rank_.size();
  if (slot_of_rank.size() < num_ranks) slot_of_rank.resize(num_ranks, 0);
  std::vector<LabelEntry> folded;
  for (const NodeId s : seeds) {
    for (const LabelEntry& e : labels[s]) {
      if (e.hub >= num_ranks) continue;  // a damaged rank never matches
      uint32_t& slot = slot_of_rank[e.hub];
      if (slot == 0) {
        folded.push_back(e);
        slot = static_cast<uint32_t>(folded.size());
      } else if (e.distance < folded[slot - 1].distance) {
        folded[slot - 1].distance = e.distance;
      }
    }
  }
  for (const LabelEntry& e : folded) slot_of_rank[e.hub] = 0;
  return folded;
}

std::unique_ptr<NodeDistCursor> HopiIndex::DescendantsByTagCursor(
    NodeId from, TagId tag) const {
  return MergeCursor(from, tag, /*wildcard=*/false, from, out_labels_,
                     inverted_in_);
}

std::unique_ptr<NodeDistCursor> HopiIndex::DescendantsCursor(
    NodeId from) const {
  return MergeCursor(from, kInvalidTag, /*wildcard=*/true, from, out_labels_,
                     inverted_in_);
}

std::unique_ptr<NodeDistCursor> HopiIndex::AncestorsByTagCursor(
    NodeId from, TagId tag) const {
  return MergeCursor(from, tag, /*wildcard=*/false, from, in_labels_,
                     inverted_out_);
}

std::unique_ptr<NodeDistCursor> HopiIndex::NewMultiSourceCursor(
    std::span<const NodeId> seeds, TagId tag, bool wildcard,
    bool forward) const {
  const std::vector<LabelEntry> folded =
      FoldLabels(seeds, forward ? out_labels_ : in_labels_);
  return std::make_unique<HopiMergeCursor>(
      folded, forward ? inverted_in_ : inverted_out_, tag_.span(), tag,
      wildcard, seeds);
}

std::unique_ptr<NodeDistCursor> HopiIndex::NewMultiSourceAmongCursor(
    std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
    bool forward) const {
  // The filtered lists of a registered probe set take the same fold; a
  // seed in the probe set streams out at distance 0 through its own
  // (self, 0) hub entry.
  if (forward && !registered_sources_.empty() &&
      SameIds(probe_set, registered_sources_)) {
    return std::make_unique<HopiMergeCursor>(
        FoldLabels(seeds, out_labels_), inverted_in_sources_, tag_.span(),
        kInvalidTag, /*wildcard=*/true, std::span<const NodeId>());
  }
  if (!forward && !registered_entries_.empty() &&
      SameIds(probe_set, registered_entries_)) {
    return std::make_unique<HopiMergeCursor>(
        FoldLabels(seeds, in_labels_), inverted_out_entries_, tag_.span(),
        kInvalidTag, /*wildcard=*/true, std::span<const NodeId>());
  }
  return PathIndex::NewMultiSourceAmongCursor(seeds, probe_set, forward);
}

std::vector<NodeDist> HopiIndex::CollectAmong(
    NodeId from, const storage::FlatRows<LabelEntry>& labels,
    const storage::FlatRows<LabelEntry>& filtered_inverted) const {
  std::unordered_map<NodeId, Distance> best;
  for (const LabelEntry& hub_entry : labels[from]) {
    for (const LabelEntry& e : filtered_inverted[hub_entry.hub]) {
      const Distance d = hub_entry.distance + e.distance;
      const auto [it, inserted] = best.emplace(e.hub, d);
      if (!inserted && d < it->second) it->second = d;
    }
  }
  std::vector<NodeDist> result;
  result.reserve(best.size());
  for (const auto& [node, d] : best) {
    // `from` itself shows up at distance 0 when it is in the probe set
    // (its own (self, 0) hub label joins the filtered list).
    result.push_back({node, d});
  }
  SortByDistance(result);
  return result;
}

std::vector<NodeDist> HopiIndex::ReachableAmong(
    NodeId from, std::span<const NodeId> targets) const {
  if (!registered_sources_.empty() && SameIds(targets, registered_sources_)) {
    return CollectAmong(from, out_labels_, inverted_in_sources_);
  }
  // Few targets: a label merge-join per target is cheaper than touching the
  // inverted lists of every hub of `from`.
  constexpr size_t kPerTargetThreshold = 32;
  if (targets.size() <= kPerTargetThreshold) {
    return PathIndex::ReachableAmong(from, targets);
  }
  const std::unordered_set<NodeId> wanted(targets.begin(), targets.end());
  std::vector<NodeDist> result;
  if (wanted.contains(from)) result.push_back({from, 0});
  for (const NodeDist& nd : Descendants(from)) {
    if (wanted.contains(nd.node)) result.push_back(nd);
  }
  SortByDistance(result);
  return result;
}

std::vector<NodeDist> HopiIndex::AncestorsAmong(
    NodeId from, std::span<const NodeId> sources) const {
  if (!registered_entries_.empty() && SameIds(sources, registered_entries_)) {
    return CollectAmong(from, in_labels_, inverted_out_entries_);
  }
  return PathIndex::AncestorsAmong(from, sources);
}

void HopiIndex::RegisterLinkSources(std::span<const NodeId> sources) {
  // Already derived for this exact probe set (typically bound as a view by
  // a paged load): the O(labels) filtering pass below would only recompute
  // what the mapping already holds.
  if (SameIds(sources, registered_sources_) &&
      (sources.empty() ||
       inverted_in_sources_.size() == inverted_in_.size())) {
    return;
  }
  registered_sources_.assign(sources.begin(), sources.end());
  if (sources.empty()) {
    // An empty probe set is never consulted (the Among fast paths require a
    // non-empty registration), so don't touch the label volume.
    inverted_in_sources_ = storage::FlatRows<LabelEntry>();
    return;
  }
  inverted_in_sources_.Assign(inverted_in_.size());
  const std::unordered_set<NodeId> wanted(sources.begin(), sources.end());
  for (NodeId hub = 0; hub < inverted_in_.size(); ++hub) {
    for (const LabelEntry& e : inverted_in_[hub]) {
      if (wanted.contains(e.hub)) inverted_in_sources_.Row(hub).push_back(e);
    }
  }
}

void HopiIndex::RegisterEntryNodes(std::span<const NodeId> targets) {
  if (SameIds(targets, registered_entries_) &&
      (targets.empty() ||
       inverted_out_entries_.size() == inverted_out_.size())) {
    return;
  }
  registered_entries_.assign(targets.begin(), targets.end());
  if (targets.empty()) {
    inverted_out_entries_ = storage::FlatRows<LabelEntry>();
    return;
  }
  inverted_out_entries_.Assign(inverted_out_.size());
  const std::unordered_set<NodeId> wanted(targets.begin(), targets.end());
  for (NodeId hub = 0; hub < inverted_out_.size(); ++hub) {
    for (const LabelEntry& e : inverted_out_[hub]) {
      if (wanted.contains(e.hub)) inverted_out_entries_.Row(hub).push_back(e);
    }
  }
}

std::unique_ptr<NodeDistCursor> HopiIndex::ReachableAmongCursor(
    NodeId from, std::span<const NodeId> targets) const {
  if (!registered_sources_.empty() && SameIds(targets, registered_sources_)) {
    // Merge over the pre-filtered inverted lists; `from` itself streams out
    // at distance 0 when it is in the probe set (its (self, 0) hub label
    // joins the filtered lists), so nothing is excluded.
    return MergeCursor(from, kInvalidTag, /*wildcard=*/true, kInvalidNode,
                       out_labels_, inverted_in_sources_);
  }
  // Few targets: a label merge-join per target is cheaper than touching the
  // inverted lists of every hub of `from`.
  constexpr size_t kPerTargetThreshold = 32;
  if (targets.size() <= kPerTargetThreshold) {
    return PathIndex::ReachableAmongCursor(from, targets);
  }
  const std::unordered_set<NodeId> wanted(targets.begin(), targets.end());
  std::vector<NodeDist> result;
  if (wanted.contains(from)) result.push_back({from, 0});
  for (const NodeDist& nd : Descendants(from)) {
    if (wanted.contains(nd.node)) result.push_back(nd);
  }
  SortByDistance(result);
  return std::make_unique<MaterializedCursor>(std::move(result));
}

std::unique_ptr<NodeDistCursor> HopiIndex::AncestorsAmongCursor(
    NodeId from, std::span<const NodeId> sources) const {
  if (!registered_entries_.empty() && SameIds(sources, registered_entries_)) {
    return MergeCursor(from, kInvalidTag, /*wildcard=*/true, kInvalidNode,
                       in_labels_, inverted_out_entries_);
  }
  return PathIndex::AncestorsAmongCursor(from, sources);
}

void HopiIndex::SaveSegment(storage::SegmentWriter& seg) const {
  std::vector<uint64_t> offsets;
  std::vector<LabelEntry> flat;
  out_labels_.Flatten(offsets, flat);
  seg.Add(kOutOffsets, offsets);
  seg.Add(kOutFlat, flat);
  in_labels_.Flatten(offsets, flat);
  seg.Add(kInOffsets, offsets);
  seg.Add(kInFlat, flat);
  seg.Add(kTagArray, tag_.span());
  seg.Add(kRankOfNode, rank_of_node_.span());
  seg.Add(kNodeOfRank, node_of_rank_.span());
  // Persist the inverted lists too: rebuilding them on load would copy the
  // whole label volume back onto the heap.
  inverted_in_.Flatten(offsets, flat);
  seg.Add(kInvInOffsets, offsets);
  seg.Add(kInvInFlat, flat);
  inverted_out_.Flatten(offsets, flat);
  seg.Add(kInvOutOffsets, offsets);
  seg.Add(kInvOutFlat, flat);
  // The registered probe sets and their filtered inverted lists: deriving
  // them at load time scans the entire label volume, which would turn the
  // zero-copy cold open back into an O(index) pass.
  if (!registered_sources_.empty()) {
    seg.Add(kRegSourcesArray, registered_sources_);
    inverted_in_sources_.Flatten(offsets, flat);
    seg.Add(kInvInSrcOffsets, offsets);
    seg.Add(kInvInSrcFlat, flat);
  }
  if (!registered_entries_.empty()) {
    seg.Add(kRegEntriesArray, registered_entries_);
    inverted_out_entries_.Flatten(offsets, flat);
    seg.Add(kInvOutEntOffsets, offsets);
    seg.Add(kInvOutEntFlat, flat);
  }
}

namespace {

StatusOr<storage::FlatRows<HopiIndex::LabelEntry>> LabelRowsFromSegment(
    const storage::SegmentView& view, uint32_t offsets_id, uint32_t flat_id) {
  auto offsets = view.GetArray<uint64_t>(offsets_id);
  if (!offsets.ok()) return offsets.status();
  auto flat = view.GetArray<HopiIndex::LabelEntry>(flat_id);
  if (!flat.ok()) return flat.status();
  return storage::FlatRows<HopiIndex::LabelEntry>::FromView(offsets.value(),
                                                            flat.value());
}

}  // namespace

StatusOr<std::unique_ptr<HopiIndex>> HopiIndex::LoadSegment(
    const storage::SegmentView& view) {
  auto out_labels = LabelRowsFromSegment(view, kOutOffsets, kOutFlat);
  if (!out_labels.ok()) return out_labels.status();
  auto in_labels = LabelRowsFromSegment(view, kInOffsets, kInFlat);
  if (!in_labels.ok()) return in_labels.status();
  auto inv_in = LabelRowsFromSegment(view, kInvInOffsets, kInvInFlat);
  if (!inv_in.ok()) return inv_in.status();
  auto inv_out = LabelRowsFromSegment(view, kInvOutOffsets, kInvOutFlat);
  if (!inv_out.ok()) return inv_out.status();
  auto tag = view.GetArray<TagId>(kTagArray);
  if (!tag.ok()) return tag.status();
  auto rank_of_node = view.GetArray<NodeId>(kRankOfNode);
  if (!rank_of_node.ok()) return rank_of_node.status();
  auto node_of_rank = view.GetArray<NodeId>(kNodeOfRank);
  if (!node_of_rank.ok()) return node_of_rank.status();
  const size_t n = tag.value().size();
  if (out_labels.value().size() != n || in_labels.value().size() != n ||
      inv_in.value().size() != n || inv_out.value().size() != n ||
      rank_of_node.value().size() != n || node_of_rank.value().size() != n) {
    return InvalidArgumentError("hopi segment: array size mismatch");
  }
  auto index = std::unique_ptr<HopiIndex>(new HopiIndex());
  index->out_labels_ = std::move(out_labels).value();
  index->in_labels_ = std::move(in_labels).value();
  index->inverted_in_ = std::move(inv_in).value();
  index->inverted_out_ = std::move(inv_out).value();
  index->tag_ = storage::FlatVec<TagId>::FromView(tag.value());
  index->rank_of_node_ = storage::FlatVec<NodeId>::FromView(rank_of_node.value());
  index->node_of_rank_ = storage::FlatVec<NodeId>::FromView(node_of_rank.value());
  // Pre-filtered probe-set lists, when the writer had them registered; the
  // later RegisterLinkSources/RegisterEntryNodes call with the same ids then
  // short-circuits instead of re-scanning the labels.
  if (view.HasArray(kRegSourcesArray)) {
    auto reg = view.GetArray<NodeId>(kRegSourcesArray);
    if (!reg.ok()) return reg.status();
    auto rows = LabelRowsFromSegment(view, kInvInSrcOffsets, kInvInSrcFlat);
    if (!rows.ok()) return rows.status();
    if (rows.value().size() != n) {
      return InvalidArgumentError("hopi segment: filtered source rows "
                                  "mismatch");
    }
    index->registered_sources_.assign(reg.value().begin(), reg.value().end());
    index->inverted_in_sources_ = std::move(rows).value();
  }
  if (view.HasArray(kRegEntriesArray)) {
    auto reg = view.GetArray<NodeId>(kRegEntriesArray);
    if (!reg.ok()) return reg.status();
    auto rows = LabelRowsFromSegment(view, kInvOutEntOffsets, kInvOutEntFlat);
    if (!rows.ok()) return rows.status();
    if (rows.value().size() != n) {
      return InvalidArgumentError("hopi segment: filtered entry rows "
                                  "mismatch");
    }
    index->registered_entries_.assign(reg.value().begin(), reg.value().end());
    index->inverted_out_entries_ = std::move(rows).value();
  }
  return index;
}

size_t HopiIndex::NumLabelEntries() const {
  return out_labels_.TotalEntries() + in_labels_.TotalEntries();
}

size_t HopiIndex::LabelBytes() const {
  return out_labels_.MemoryBytes() + in_labels_.MemoryBytes();
}

size_t HopiIndex::MemoryBytes() const {
  return LabelBytes() + inverted_in_.MemoryBytes() +
         inverted_out_.MemoryBytes() + inverted_in_sources_.MemoryBytes() +
         inverted_out_entries_.MemoryBytes() +
         VectorBytes(registered_sources_) + VectorBytes(registered_entries_) +
         tag_.MemoryBytes() + rank_of_node_.MemoryBytes() +
         node_of_rank_.MemoryBytes();
}

namespace {

// Rebuilds the inverted lists a label table implies and diffs them against
// the stored ones; `what` names the side ("in"/"out") for the report.
Status DiffInverted(const storage::FlatRows<HopiIndex::LabelEntry>& labels,
                    const storage::FlatRows<HopiIndex::LabelEntry>& inverted,
                    const std::string& what) {
  const size_t n = labels.size();
  if (inverted.size() != n) {
    return InternalError("hopi: inverted_" + what + " has " +
                         std::to_string(inverted.size()) +
                         " hub lists, expected " + std::to_string(n));
  }
  std::vector<std::vector<HopiIndex::LabelEntry>> expected(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const HopiIndex::LabelEntry& e : labels[v]) {
      expected[e.hub].push_back({v, e.distance});
    }
  }
  for (size_t r = 0; r < n; ++r) {
    std::sort(expected[r].begin(), expected[r].end(),
              [](const HopiIndex::LabelEntry& a, const HopiIndex::LabelEntry& b) {
                return std::tie(a.distance, a.hub) < std::tie(b.distance, b.hub);
              });
    if (expected[r].size() != inverted[r].size()) {
      return InternalError("hopi: inverted_" + what + " list of hub rank " +
                           std::to_string(r) + " has " +
                           std::to_string(inverted[r].size()) +
                           " entries, labels imply " +
                           std::to_string(expected[r].size()));
    }
    for (size_t i = 0; i < expected[r].size(); ++i) {
      if (expected[r][i].hub != inverted[r][i].hub ||
          expected[r][i].distance != inverted[r][i].distance) {
        return InternalError(
            "hopi: inverted_" + what + " list of hub rank " +
            std::to_string(r) + " diverges from labels at position " +
            std::to_string(i) + " (stored node " +
            std::to_string(inverted[r][i].hub) + " dist " +
            std::to_string(inverted[r][i].distance) + ", labels imply node " +
            std::to_string(expected[r][i].hub) + " dist " +
            std::to_string(expected[r][i].distance) + ")");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status HopiIndex::Validate(const graph::Digraph& g,
                           const ValidateOptions& options) const {
  const size_t n = g.NumNodes();
  if (out_labels_.size() != n || in_labels_.size() != n ||
      tag_.size() != n || rank_of_node_.size() != n ||
      node_of_rank_.size() != n) {
    return InternalError("hopi: label tables cover " +
                         std::to_string(out_labels_.size()) +
                         " nodes, graph has " + std::to_string(n));
  }
  for (NodeId r = 0; r < n; ++r) {
    if (node_of_rank_[r] >= n || rank_of_node_[node_of_rank_[r]] != r) {
      return InternalError("hopi: rank maps are not inverse at rank " +
                           std::to_string(r) + " (node_of_rank=" +
                           std::to_string(node_of_rank_[r]) + ")");
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (tag_[v] != g.Tag(v)) {
      return InternalError("hopi: stored tag " + std::to_string(tag_[v]) +
                           " at node " + std::to_string(v) +
                           " differs from graph tag " +
                           std::to_string(g.Tag(v)));
    }
    for (const std::span<const LabelEntry> labels :
         {out_labels_[v], in_labels_[v]}) {
      NodeId prev_hub = kInvalidNode;
      for (const LabelEntry& e : labels) {
        if (e.hub >= n || e.distance < 0) {
          return InternalError("hopi: label of node " + std::to_string(v) +
                               " has invalid entry (hub rank " +
                               std::to_string(e.hub) + ", dist " +
                               std::to_string(e.distance) + ")");
        }
        if (prev_hub != kInvalidNode && e.hub <= prev_hub) {
          return InternalError("hopi: label of node " + std::to_string(v) +
                               " is not strictly ascending by hub rank (" +
                               std::to_string(prev_hub) + " then " +
                               std::to_string(e.hub) + ")");
        }
        prev_hub = e.hub;
      }
    }
  }

  // Inverted lists must be exactly the labels regrouped by hub, sorted by
  // (distance, node) — the enumeration cursors merge them assuming this.
  if (Status s = DiffInverted(in_labels_, inverted_in_, "in"); !s.ok()) {
    return s;
  }
  if (Status s = DiffInverted(out_labels_, inverted_out_, "out"); !s.ok()) {
    return s;
  }

  // Label soundness: every stored (hub, dist) must be the exact BFS distance
  // between the node and the hub. Sampled (or all nodes in deep mode); cover
  // *completeness* is checked by the base differential probes, which compare
  // QueryLabels answers against the BFS oracle.
  Rng rng(options.seed ^ 0x484f5049u);  // "HOPI"
  std::vector<NodeId> sample;
  if ((options.deep && n <= options.exhaustive_limit) ||
      n <= options.sample_sources) {
    sample.resize(n);
    for (NodeId v = 0; v < n; ++v) sample[v] = v;
  } else {
    std::unordered_set<NodeId> seen;
    while (sample.size() < options.sample_sources) {
      const NodeId v = static_cast<NodeId>(rng.Uniform(n));
      if (seen.insert(v).second) sample.push_back(v);
    }
  }
  for (const NodeId v : sample) {
    const std::vector<Distance> fwd =
        graph::BfsDistances(g, v, graph::Direction::kForward);
    for (const LabelEntry& e : out_labels_[v]) {
      const NodeId hub = node_of_rank_[e.hub];
      if (fwd[hub] != e.distance) {
        return InternalError("hopi: out-label of node " + std::to_string(v) +
                             " claims distance " + std::to_string(e.distance) +
                             " to hub node " + std::to_string(hub) +
                             ", BFS says " + std::to_string(fwd[hub]));
      }
    }
    const std::vector<Distance> bwd =
        graph::BfsDistances(g, v, graph::Direction::kBackward);
    for (const LabelEntry& e : in_labels_[v]) {
      const NodeId hub = node_of_rank_[e.hub];
      if (bwd[hub] != e.distance) {
        return InternalError("hopi: in-label of node " + std::to_string(v) +
                             " claims distance " + std::to_string(e.distance) +
                             " from hub node " + std::to_string(hub) +
                             ", BFS says " + std::to_string(bwd[hub]));
      }
    }
  }
  return PathIndex::Validate(g, options);
}

}  // namespace flix::index
