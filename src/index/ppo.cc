#include "index/ppo.h"

#include <algorithm>
#include <iterator>

#include "common/bytes.h"
#include "graph/tree_utils.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace flix::index {
namespace {

// Paged-segment array ids.
constexpr uint32_t kPreArray = 1;
constexpr uint32_t kPostArray = 2;
constexpr uint32_t kDepthArray = 3;
constexpr uint32_t kParentArray = 4;
constexpr uint32_t kSubtreeSizeArray = 5;
constexpr uint32_t kOrderArray = 6;
constexpr uint32_t kTagArray = 7;

// Process-wide count of results yielded by PPO cursors. The reference is
// resolved once (registry lookups take a lock); Counter addresses are
// stable for the process lifetime, surviving MetricsRegistry::Reset().
obs::Counter& PpoPullCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kCursorPulledPpo);
  return counter;
}

// Lazy descendant cursor over the preorder intervals of the seeds'
// subtrees. The intervals are bucketed by distance on the first pull (one
// linear scan, tag filter applied); each distance bucket is sorted by node
// id only when the cursor reaches it. Early-closed cursors skip the
// remaining sorts entirely.
//
// With several seeds the scan keeps a stack of the seeds enclosing the
// current position (nested seeds push on top of their ancestors, so the
// top is the nearest), and a node's distance is its depth minus the depth
// of that nearest seed ancestor — exact in a forest, where the parent
// chain is the only path. Seeds are never yielded.
class PpoSubtreeCursor : public NodeDistCursor {
 public:
  // `seeds` must be distinct and sorted by preorder rank. It is copied only
  // when it holds more than one seed, so a single-source cursor allocates
  // nothing before its first pull.
  PpoSubtreeCursor(std::span<const uint32_t> pre,
                   std::span<const uint32_t> depth,
                   std::span<const uint32_t> subtree_size,
                   std::span<const NodeId> order,
                   std::span<const TagId> tag_of,
                   std::span<const NodeId> seeds, TagId tag, bool wildcard)
      : pre_(pre),
        depth_(depth),
        subtree_size_(subtree_size),
        order_(order),
        tag_of_(tag_of),
        single_seed_(seeds.size() == 1 ? seeds.front() : kInvalidNode),
        tag_(tag),
        wildcard_(wildcard) {
    if (seeds.size() > 1) more_seeds_.assign(seeds.begin(), seeds.end());
    for (const NodeId s : seeds) unscanned_ += subtree_size_[s] - 1;
  }

  std::optional<NodeDist> Next() override {
    if (!initialized_) Initialize();
    while (bucket_ < buckets_.size()) {
      std::vector<NodeId>& level = buckets_[bucket_];
      if (pos_ == 0) std::sort(level.begin(), level.end());
      if (pos_ < level.size()) {
        --remaining_;
        PpoPullCounter().Increment();
        return NodeDist{level[pos_++],
                        static_cast<Distance>(bucket_ + 1)};
      }
      ++bucket_;
      pos_ = 0;
    }
    return std::nullopt;
  }

  Distance BoundHint() const override {
    if (!initialized_) return unscanned_ > 0 ? 1 : kUnreachable;
    for (size_t b = bucket_; b < buckets_.size(); ++b) {
      if ((b == bucket_ ? pos_ : 0) < buckets_[b].size()) {
        return static_cast<Distance>(b + 1);
      }
    }
    return kUnreachable;
  }

  size_t RemainingHint() const override {
    // Before the first pull the un-scanned intervals are the best estimate
    // (an overestimate when seeds nest).
    return initialized_ ? remaining_ : unscanned_;
  }

 private:
  struct Enclosing {
    uint32_t end;    // preorder rank one past the seed's subtree
    uint32_t depth;  // the seed's depth
  };

  void Initialize() {
    initialized_ = true;
    const std::span<const NodeId> seeds =
        more_seeds_.empty() ? std::span<const NodeId>(&single_seed_, 1)
                            : std::span<const NodeId>(more_seeds_);
    std::vector<Enclosing> nested;  // seeds inside the current root's subtree
    size_t next = 0;                // next seed to reach, in preorder
    while (next < seeds.size()) {
      // A seed outside every scanned interval starts a new one. Between
      // two seed boundaries the nearest seed stays the same, so each run
      // of positions is one plain scan.
      const NodeId root = seeds[next++];
      const uint32_t end = pre_[root] + subtree_size_[root];
      nested.clear();
      uint32_t p = pre_[root] + 1;
      while (p < end) {
        while (!nested.empty() && nested.back().end <= p) nested.pop_back();
        uint32_t stop = nested.empty() ? end : nested.back().end;
        const bool seed_next =
            next < seeds.size() && pre_[seeds[next]] < stop;
        if (seed_next) stop = pre_[seeds[next]];
        Scan(p, stop, nested.empty() ? depth_[root] : nested.back().depth);
        p = stop;
        if (seed_next) {
          const NodeId seed = seeds[next++];
          nested.push_back({p + subtree_size_[seed], depth_[seed]});
          ++p;  // the seed itself is never yielded
        }
      }
    }
  }

  // Buckets the preorder positions [begin, end), whose nearest seed
  // ancestor sits at `seed_depth`.
  void Scan(uint32_t begin, uint32_t end, uint32_t seed_depth) {
    for (uint32_t p = begin; p < end; ++p) {
      const NodeId v = order_[p];
      if (!wildcard_ && tag_of_[v] != tag_) continue;
      const size_t bucket = depth_[v] - seed_depth - 1;
      if (bucket >= buckets_.size()) buckets_.resize(bucket + 1);
      buckets_[bucket].push_back(v);
      ++remaining_;
    }
  }

  const std::span<const uint32_t> pre_;
  const std::span<const uint32_t> depth_;
  const std::span<const uint32_t> subtree_size_;
  const std::span<const NodeId> order_;
  const std::span<const TagId> tag_of_;
  const NodeId single_seed_;
  std::vector<NodeId> more_seeds_;
  const TagId tag_;
  const bool wildcard_;
  size_t unscanned_ = 0;

  bool initialized_ = false;
  std::vector<std::vector<NodeId>> buckets_;
  size_t bucket_ = 0;
  size_t pos_ = 0;
  size_t remaining_ = 0;
};

// Ancestors: one parent pointer per pull, with a single-element lookahead
// so BoundHint is exact.
class PpoAncestorCursor : public NodeDistCursor {
 public:
  PpoAncestorCursor(std::span<const NodeId> parent,
                    std::span<const TagId> tag_of, NodeId from, TagId tag)
      : parent_(parent), tag_of_(tag_of), walk_(from), tag_(tag) {
    Advance();
  }

  std::optional<NodeDist> Next() override {
    if (!pending_.has_value()) return std::nullopt;
    const NodeDist result = *pending_;
    Advance();
    PpoPullCounter().Increment();
    return result;
  }

  Distance BoundHint() const override {
    return pending_.has_value() ? pending_->distance : kUnreachable;
  }

  size_t RemainingHint() const override { return pending_.has_value() ? 1 : 0; }

 private:
  void Advance() {
    pending_.reset();
    NodeId v = parent_[walk_];
    while (v != kInvalidNode) {
      ++walk_distance_;
      walk_ = v;
      if (tag_of_[v] == tag_) {
        pending_ = NodeDist{v, walk_distance_};
        return;
      }
      v = parent_[v];
    }
  }

  const std::span<const NodeId> parent_;
  const std::span<const TagId> tag_of_;
  NodeId walk_;
  const TagId tag_;
  Distance walk_distance_ = 0;
  std::optional<NodeDist> pending_;
};

}  // namespace

StatusOr<std::unique_ptr<PpoIndex>> PpoIndex::Build(const graph::Digraph& g) {
  if (!graph::IsForest(g)) {
    return FailedPreconditionError(
        "PPO requires a forest; the graph has a node with two parents or a "
        "cycle");
  }
  const size_t n = g.NumNodes();
  auto index = std::unique_ptr<PpoIndex>(new PpoIndex());
  index->pre_.assign(n, 0);
  index->post_.assign(n, 0);
  index->depth_.assign(n, 0);
  index->parent_.assign(n, kInvalidNode);
  index->subtree_size_.assign(n, 1);
  index->order_.assign(n, kInvalidNode);
  index->tag_.assign(n, kInvalidTag);
  for (NodeId v = 0; v < n; ++v) index->tag_[v] = g.Tag(v);

  uint32_t next_pre = 0;
  uint32_t next_post = 0;

  // Iterative DFS; frame tracks the next child arc to visit.
  struct Frame {
    NodeId node;
    size_t arc_pos;
  };
  std::vector<Frame> stack;
  for (NodeId root = 0; root < n; ++root) {
    if (g.InDegree(root) != 0) continue;
    index->pre_[root] = next_pre;
    index->order_[next_pre] = root;
    ++next_pre;
    index->depth_[root] = 0;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const NodeId u = frame.node;
      if (frame.arc_pos < g.OutArcs(u).size()) {
        const NodeId child = g.OutArcs(u)[frame.arc_pos++].target;
        index->parent_[child] = u;
        index->depth_[child] = index->depth_[u] + 1;
        index->pre_[child] = next_pre;
        index->order_[next_pre] = child;
        ++next_pre;
        stack.push_back({child, 0});
      } else {
        index->post_[u] = next_post++;
        stack.pop_back();
        if (!stack.empty()) {
          index->subtree_size_[stack.back().node] += index->subtree_size_[u];
        }
      }
    }
  }
  return index;
}

bool PpoIndex::IsReachable(NodeId from, NodeId to) const {
  if (from == to) return true;
  return pre_[from] < pre_[to] && post_[from] > post_[to];
}

Distance PpoIndex::DistanceBetween(NodeId from, NodeId to) const {
  if (!IsReachable(from, to)) return kUnreachable;
  return static_cast<Distance>(depth_[to] - depth_[from]);
}

std::unique_ptr<NodeDistCursor> PpoIndex::SubtreeCursor(
    std::span<const NodeId> seeds, TagId tag, bool wildcard) const {
  return std::make_unique<PpoSubtreeCursor>(
      pre_.span(), depth_.span(), subtree_size_.span(), order_.span(),
      tag_.span(), seeds, tag, wildcard);
}

std::unique_ptr<NodeDistCursor> PpoIndex::DescendantsByTagCursor(
    NodeId from, TagId tag) const {
  return SubtreeCursor({&from, 1}, tag, /*wildcard=*/false);
}

std::unique_ptr<NodeDistCursor> PpoIndex::DescendantsCursor(
    NodeId from) const {
  return SubtreeCursor({&from, 1}, kInvalidTag, /*wildcard=*/true);
}

std::unique_ptr<NodeDistCursor> PpoIndex::AncestorsByTagCursor(
    NodeId from, TagId tag) const {
  return std::make_unique<PpoAncestorCursor>(parent_.span(), tag_.span(),
                                             from, tag);
}

std::unique_ptr<NodeDistCursor> PpoIndex::ReachableAmongCursor(
    NodeId from, std::span<const NodeId> targets) const {
  return std::make_unique<MaterializedCursor>(ReachableAmong(from, targets));
}

std::vector<NodeDist> PpoIndex::ReachableAmong(
    NodeId from, std::span<const NodeId> targets) const {
  std::vector<NodeDist> result;
  const uint32_t lo = pre_[from];
  const uint32_t end = pre_[from] + subtree_size_[from];  // exclusive
  for (const NodeId t : targets) {
    if (t == from) {
      result.push_back({t, 0});
    } else if (pre_[t] > lo && pre_[t] < end) {
      result.push_back({t, static_cast<Distance>(depth_[t] - depth_[from])});
    }
  }
  SortByDistance(result);
  return result;
}

std::unique_ptr<NodeDistCursor> PpoIndex::NewMultiSourceCursor(
    std::span<const NodeId> seeds, TagId tag, bool wildcard,
    bool forward) const {
  // Ancestors: parent-chain walks are cheap; the base union merges them.
  if (!forward) {
    return PathIndex::NewMultiSourceCursor(seeds, tag, wildcard, forward);
  }
  std::vector<NodeId> sorted(seeds.begin(), seeds.end());
  std::sort(sorted.begin(), sorted.end(),
            [&](NodeId a, NodeId b) { return pre_[a] < pre_[b]; });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return SubtreeCursor(sorted, tag, wildcard);
}

std::unique_ptr<NodeDistCursor> PpoIndex::NewMultiSourceAmongCursor(
    std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
    bool forward) const {
  if (!forward) {
    return PathIndex::NewMultiSourceAmongCursor(seeds, probe_set, forward);
  }
  // A probe's nearest seed ancestor(-or-self) is the last seed starting at
  // or before it in preorder, when that seed's interval holds it; if not,
  // it is one of the seeds enclosing that seed. So: seeds by preorder rank,
  // each with its nearest enclosing seed (one stack pass), then one binary
  // search per probe.
  const auto contains = [this](NodeId s, NodeId t) {
    return pre_[s] <= pre_[t] && pre_[t] < pre_[s] + subtree_size_[s];
  };
  std::vector<NodeId> sorted(seeds.begin(), seeds.end());
  std::sort(sorted.begin(), sorted.end(),
            [&](NodeId a, NodeId b) { return pre_[a] < pre_[b]; });
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  constexpr uint32_t kNone = ~uint32_t{0};
  std::vector<uint32_t> enclosing(sorted.size(), kNone);
  for (uint32_t i = 1; i < sorted.size(); ++i) {
    uint32_t up = i - 1;
    while (up != kNone && !contains(sorted[up], sorted[i])) {
      up = enclosing[up];
    }
    enclosing[i] = up;
  }
  std::vector<NodeDist> result;
  for (const NodeId t : probe_set) {
    const auto after = std::upper_bound(
        sorted.begin(), sorted.end(), pre_[t],
        [this](uint32_t rank, NodeId s) { return rank < pre_[s]; });
    uint32_t i = static_cast<uint32_t>(after - sorted.begin()) - 1;
    while (i != kNone && !contains(sorted[i], t)) i = enclosing[i];
    if (i != kNone) {
      result.push_back(
          {t, static_cast<Distance>(depth_[t] - depth_[sorted[i]])});
    }
  }
  SortByDistance(result);
  return std::make_unique<MaterializedCursor>(std::move(result));
}

namespace {

// Interval dominance cover over sorted vectors. Forward: some added p
// reaches x iff x's preorder rank lies in p's subtree interval. Subtree
// intervals nest or are disjoint, so the cover keeps only the outermost
// added intervals, disjoint and sorted; the one candidate for x is the last
// interval starting at or before pre(x) — one binary search. Backward: x
// reaches some added p iff p's preorder rank lies in x's interval
// [pre(x), pre(x) + size(x)), one lower_bound over the added ranks.
class PpoReachCover : public ReachCover {
 public:
  PpoReachCover(std::span<const uint32_t> pre,
                std::span<const uint32_t> subtree_size, bool forward)
      : pre_(pre), subtree_size_(subtree_size), forward_(forward) {}

  void Add(NodeId p) override {
    const uint32_t begin = pre_[p];
    if (!forward_) {
      ranks_.insert(std::lower_bound(ranks_.begin(), ranks_.end(), begin),
                    begin);
      return;
    }
    const auto next = Following(begin);
    if (Inside(next, begin)) return;  // an outer interval already has it
    // The new interval replaces the ones nested in it.
    const uint32_t end = begin + subtree_size_[p];
    auto nested_end = next;
    while (nested_end != intervals_.end() && nested_end->begin < end) {
      ++nested_end;
    }
    intervals_.insert(intervals_.erase(next, nested_end), {begin, end});
  }

  bool Covers(NodeId x) override {
    ++probes_;
    const uint32_t rank = pre_[x];
    if (!forward_) {
      const auto it = std::lower_bound(ranks_.begin(), ranks_.end(), rank);
      return it != ranks_.end() && *it < rank + subtree_size_[x];
    }
    return Inside(Following(rank), rank);
  }

 private:
  struct Interval {
    uint32_t begin;
    uint32_t end;  // exclusive
  };
  using Iterator = std::vector<Interval>::iterator;

  // The first interval that starts after `rank`.
  Iterator Following(uint32_t rank) {
    return std::upper_bound(
        intervals_.begin(), intervals_.end(), rank,
        [](uint32_t r, const Interval& i) { return r < i.begin; });
  }

  // Whether the interval before `next` contains `rank`.
  bool Inside(Iterator next, uint32_t rank) const {
    return next != intervals_.begin() && std::prev(next)->end > rank;
  }

  const std::span<const uint32_t> pre_;
  const std::span<const uint32_t> subtree_size_;
  const bool forward_;
  std::vector<Interval> intervals_;  // forward: outermost, sorted, disjoint
  std::vector<uint32_t> ranks_;      // backward: sorted preorder ranks
};

}  // namespace

std::unique_ptr<ReachCover> PpoIndex::NewReachCover(bool forward) const {
  return std::make_unique<PpoReachCover>(pre_.span(), subtree_size_.span(),
                                         forward);
}

void PpoIndex::SaveSegment(storage::SegmentWriter& seg) const {
  seg.Add(kPreArray, pre_.span());
  seg.Add(kPostArray, post_.span());
  seg.Add(kDepthArray, depth_.span());
  seg.Add(kParentArray, parent_.span());
  seg.Add(kSubtreeSizeArray, subtree_size_.span());
  seg.Add(kOrderArray, order_.span());
  seg.Add(kTagArray, tag_.span());
}

StatusOr<std::unique_ptr<PpoIndex>> PpoIndex::LoadSegment(
    const storage::SegmentView& view) {
  auto pre = view.GetArray<uint32_t>(kPreArray);
  if (!pre.ok()) return pre.status();
  auto post = view.GetArray<uint32_t>(kPostArray);
  if (!post.ok()) return post.status();
  auto depth = view.GetArray<uint32_t>(kDepthArray);
  if (!depth.ok()) return depth.status();
  auto parent = view.GetArray<NodeId>(kParentArray);
  if (!parent.ok()) return parent.status();
  auto subtree = view.GetArray<uint32_t>(kSubtreeSizeArray);
  if (!subtree.ok()) return subtree.status();
  auto order = view.GetArray<NodeId>(kOrderArray);
  if (!order.ok()) return order.status();
  auto tag = view.GetArray<TagId>(kTagArray);
  if (!tag.ok()) return tag.status();
  const size_t n = pre.value().size();
  if (post.value().size() != n || depth.value().size() != n ||
      parent.value().size() != n || subtree.value().size() != n ||
      order.value().size() != n || tag.value().size() != n) {
    return InvalidArgumentError("ppo segment: array size mismatch");
  }
  // Deeper semantic validation is intentionally skipped here: the segment
  // checksum already proves these are the writer's bytes, and touching
  // every page would defeat the lazy zero-copy open. `check --deep` covers
  // semantics.
  auto index = std::unique_ptr<PpoIndex>(new PpoIndex());
  index->pre_ = storage::FlatVec<uint32_t>::FromView(pre.value());
  index->post_ = storage::FlatVec<uint32_t>::FromView(post.value());
  index->depth_ = storage::FlatVec<uint32_t>::FromView(depth.value());
  index->parent_ = storage::FlatVec<NodeId>::FromView(parent.value());
  index->subtree_size_ = storage::FlatVec<uint32_t>::FromView(subtree.value());
  index->order_ = storage::FlatVec<NodeId>::FromView(order.value());
  index->tag_ = storage::FlatVec<TagId>::FromView(tag.value());
  return index;
}

size_t PpoIndex::MemoryBytes() const {
  return pre_.MemoryBytes() + post_.MemoryBytes() + depth_.MemoryBytes() +
         parent_.MemoryBytes() + subtree_size_.MemoryBytes() +
         order_.MemoryBytes() + tag_.MemoryBytes();
}

Status PpoIndex::Validate(const graph::Digraph& g,
                          const ValidateOptions& options) const {
  const size_t n = g.NumNodes();
  if (pre_.size() != n || post_.size() != n || depth_.size() != n ||
      parent_.size() != n || subtree_size_.size() != n ||
      order_.size() != n || tag_.size() != n) {
    return InternalError("ppo: numbering covers " +
                         std::to_string(pre_.size()) + " nodes, graph has " +
                         std::to_string(n));
  }

  // Pre and post must be permutations of [0, n), with order_ the inverse of
  // pre (the interval scans walk order_[pre+1 .. pre+size)).
  std::vector<uint8_t> post_seen(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (pre_[v] >= n || order_[pre_[v]] != v) {
      return InternalError("ppo: pre/order inversion broken at node " +
                           std::to_string(v) + " (pre=" +
                           std::to_string(pre_[v]) + ", order[pre]=" +
                           std::to_string(pre_[v] < n
                                              ? order_[pre_[v]]
                                              : kInvalidNode) + ")");
    }
    if (post_[v] >= n || post_seen[post_[v]]++ != 0) {
      return InternalError("ppo: postorder is not a permutation at node " +
                           std::to_string(v) + " (post=" +
                           std::to_string(post_[v]) + ")");
    }
    if (tag_[v] != g.Tag(v)) {
      return InternalError("ppo: stored tag " + std::to_string(tag_[v]) +
                           " at node " + std::to_string(v) +
                           " differs from graph tag " +
                           std::to_string(g.Tag(v)));
    }
    if (subtree_size_[v] == 0 || pre_[v] + subtree_size_[v] > n) {
      return InternalError("ppo: subtree interval of node " +
                           std::to_string(v) + " out of range (pre=" +
                           std::to_string(pre_[v]) + ", size=" +
                           std::to_string(subtree_size_[v]) + ")");
    }
  }

  // Per-edge window invariants: each child's interval nests strictly inside
  // its parent's, with depth +1 and descending post — the exact conditions
  // IsReachable/DistanceBetween rely on.
  for (NodeId p = 0; p < n; ++p) {
    uint32_t children_size = 0;
    for (const graph::Digraph::Arc& arc : g.OutArcs(p)) {
      const NodeId c = arc.target;
      if (parent_[c] != p) {
        return InternalError("ppo: parent pointer of node " +
                             std::to_string(c) + " is " +
                             std::to_string(parent_[c]) +
                             ", graph edge says " + std::to_string(p));
      }
      if (depth_[c] != depth_[p] + 1) {
        return InternalError("ppo: depth of node " + std::to_string(c) +
                             " is " + std::to_string(depth_[c]) +
                             ", parent " + std::to_string(p) + " has depth " +
                             std::to_string(depth_[p]));
      }
      if (pre_[c] <= pre_[p] ||
          pre_[c] >= pre_[p] + subtree_size_[p] || post_[c] >= post_[p]) {
        return InternalError(
            "ppo: interval nesting violated on edge " + std::to_string(p) +
            " -> " + std::to_string(c) + " (parent pre=" +
            std::to_string(pre_[p]) + " size=" +
            std::to_string(subtree_size_[p]) + " post=" +
            std::to_string(post_[p]) + ", child pre=" +
            std::to_string(pre_[c]) + " post=" + std::to_string(post_[c]) +
            ")");
      }
      children_size += subtree_size_[c];
    }
    if (subtree_size_[p] != children_size + 1) {
      return InternalError("ppo: subtree size of node " + std::to_string(p) +
                           " is " + std::to_string(subtree_size_[p]) +
                           ", children sum to " +
                           std::to_string(children_size));
    }
    if (g.InDegree(p) == 0 &&
        (parent_[p] != kInvalidNode || depth_[p] != 0)) {
      return InternalError("ppo: root node " + std::to_string(p) +
                           " has parent/depth bookkeeping");
    }
  }
  return PathIndex::Validate(g, options);
}

}  // namespace flix::index
