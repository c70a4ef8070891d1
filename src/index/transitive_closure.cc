#include "index/transitive_closure.h"

#include <algorithm>
#include <deque>
#include <span>
#include <string>
#include <tuple>
#include <unordered_set>

#include "common/bytes.h"
#include "common/rng.h"
#include "graph/traversal.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace flix::index {
namespace {

// Process-wide count of results yielded by TC row cursors (resolved once;
// Counter addresses survive MetricsRegistry::Reset()).
obs::Counter& TcPullCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kCursorPulledTc);
  return counter;
}

// Segment array ids (kIndex segment, strategy = kTransitiveClosure).
constexpr uint32_t kClosureOffsets = 1;
constexpr uint32_t kClosureFlat = 2;
constexpr uint32_t kReverseOffsets = 3;
constexpr uint32_t kReverseFlat = 4;
constexpr uint32_t kTagArray = 5;

// Scans one pre-sorted closure row, filtering by tag or by a wanted set.
// With a wanted set that contains the row's owner, the owner is emitted
// first at distance 0 (all row entries are proper pairs at distance >= 1),
// preserving the "includes `from` if listed" contract of ReachableAmong.
class TcRowCursor : public NodeDistCursor {
 public:
  TcRowCursor(std::span<const NodeDist> row, std::span<const TagId> tag_of,
              TagId tag, bool wildcard)
      : row_(row), tag_of_(tag_of), tag_(tag), wildcard_(wildcard) {
    Advance();
  }

  TcRowCursor(std::span<const NodeDist> row, std::span<const TagId> tag_of,
              NodeId self, std::unordered_set<NodeId> wanted)
      : row_(row),
        tag_of_(tag_of),
        tag_(kInvalidTag),
        wildcard_(true),
        wanted_(std::move(wanted)) {
    if (wanted_->contains(self)) {
      pending_ = NodeDist{self, 0};
    } else {
      Advance();
    }
  }

  std::optional<NodeDist> Next() override {
    if (!pending_.has_value()) return std::nullopt;
    const NodeDist result = *pending_;
    Advance();
    TcPullCounter().Increment();
    return result;
  }

  Distance BoundHint() const override {
    return pending_.has_value() ? pending_->distance : kUnreachable;
  }

  size_t RemainingHint() const override {
    return (pending_.has_value() ? 1 : 0) + (row_.size() - pos_);
  }

 private:
  void Advance() {
    pending_.reset();
    while (pos_ < row_.size()) {
      const NodeDist& nd = row_[pos_++];
      if (!wildcard_ && tag_of_[nd.node] != tag_) continue;
      if (wanted_.has_value() && !wanted_->contains(nd.node)) continue;
      pending_ = nd;
      return;
    }
  }

  const std::span<const NodeDist> row_;
  const std::span<const TagId> tag_of_;
  const TagId tag_;
  const bool wildcard_;
  std::optional<std::unordered_set<NodeId>> wanted_;
  size_t pos_ = 0;
  std::optional<NodeDist> pending_;
};

}  // namespace

StatusOr<std::unique_ptr<TransitiveClosureIndex>> TransitiveClosureIndex::Build(
    const graph::Digraph& g, const TcOptions& options) {
  auto index =
      std::unique_ptr<TransitiveClosureIndex>(new TransitiveClosureIndex());
  const size_t n = g.NumNodes();
  index->closure_.Assign(n);
  index->reverse_.Assign(n);
  index->tag_.resize(n);
  for (NodeId v = 0; v < n; ++v) index->tag_[v] = g.Tag(v);

  size_t pairs = 0;
  std::vector<Distance> dist(n, kUnreachable);
  std::vector<NodeId> touched;
  for (NodeId source = 0; source < n; ++source) {
    touched.clear();
    dist[source] = 0;
    touched.push_back(source);
    std::deque<NodeId> queue = {source};
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const graph::Digraph::Arc& arc : g.OutArcs(u)) {
        if (dist[arc.target] == kUnreachable) {
          dist[arc.target] = dist[u] + 1;
          touched.push_back(arc.target);
          queue.push_back(arc.target);
        }
      }
    }
    for (const NodeId v : touched) {
      if (v != source) {
        index->closure_.Row(source).push_back({v, dist[v]});
        ++pairs;
      }
      dist[v] = kUnreachable;
    }
    if (pairs > options.max_pairs) {
      return OutOfRangeError("transitive closure exceeds max_pairs");
    }
    SortByDistance(index->closure_.Row(source));
  }

  for (NodeId u = 0; u < n; ++u) {
    for (const NodeDist& nd : index->closure_[u]) {
      index->reverse_.Row(nd.node).push_back({u, nd.distance});
    }
  }
  for (auto& row : index->reverse_.OwnedRows()) SortByDistance(row);
  return index;
}

Distance TransitiveClosureIndex::DistanceBetween(NodeId from, NodeId to) const {
  if (from == to) return 0;
  for (const NodeDist& nd : closure_[from]) {
    if (nd.node == to) return nd.distance;
  }
  return kUnreachable;
}

std::unique_ptr<NodeDistCursor> TransitiveClosureIndex::DescendantsByTagCursor(
    NodeId from, TagId tag) const {
  return std::make_unique<TcRowCursor>(closure_[from], tag_.span(), tag,
                                       /*wildcard=*/false);
}

std::unique_ptr<NodeDistCursor> TransitiveClosureIndex::DescendantsCursor(
    NodeId from) const {
  return std::make_unique<TcRowCursor>(closure_[from], tag_.span(),
                                       kInvalidTag,
                                       /*wildcard=*/true);
}

std::unique_ptr<NodeDistCursor> TransitiveClosureIndex::AncestorsByTagCursor(
    NodeId from, TagId tag) const {
  return std::make_unique<TcRowCursor>(reverse_[from], tag_.span(), tag,
                                       /*wildcard=*/false);
}

std::unique_ptr<NodeDistCursor> TransitiveClosureIndex::ReachableAmongCursor(
    NodeId from, std::span<const NodeId> targets) const {
  return std::make_unique<TcRowCursor>(
      closure_[from], tag_.span(), from,
      std::unordered_set<NodeId>(targets.begin(), targets.end()));
}

std::unique_ptr<NodeDistCursor> TransitiveClosureIndex::AncestorsAmongCursor(
    NodeId from, std::span<const NodeId> sources) const {
  return std::make_unique<TcRowCursor>(
      reverse_[from], tag_.span(), from,
      std::unordered_set<NodeId>(sources.begin(), sources.end()));
}

size_t TransitiveClosureIndex::MemoryBytes() const {
  return tag_.MemoryBytes() + closure_.MemoryBytes() + reverse_.MemoryBytes();
}

Status TransitiveClosureIndex::Validate(const graph::Digraph& g,
                                        const ValidateOptions& options) const {
  const size_t n = g.NumNodes();
  if (closure_.size() != n || reverse_.size() != n || tag_.size() != n) {
    return InternalError("tc: closure has " + std::to_string(closure_.size()) +
                         " rows, graph has " + std::to_string(n) + " nodes");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (tag_[v] != g.Tag(v)) {
      return InternalError("tc: stored tag " + std::to_string(tag_[v]) +
                           " at node " + std::to_string(v) +
                           " differs from graph tag " +
                           std::to_string(g.Tag(v)));
    }
  }

  // reverse_ must be the exact transpose of closure_ (same pairs, same
  // distances), and both sides sorted ascending by (distance, node).
  size_t forward_pairs = 0;
  size_t reverse_pairs = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const auto* side : {&closure_, &reverse_}) {
      const std::span<const NodeDist> row = (*side)[v];
      const bool is_forward = side == &closure_;
      for (size_t i = 0; i < row.size(); ++i) {
        if (row[i].node >= n || row[i].distance < 1 || row[i].node == v) {
          return InternalError("tc: " +
                               std::string(is_forward ? "closure" : "reverse") +
                               " row of node " + std::to_string(v) +
                               " has invalid entry (node " +
                               std::to_string(row[i].node) + ", dist " +
                               std::to_string(row[i].distance) + ")");
        }
        if (i > 0 && std::tie(row[i - 1].distance, row[i - 1].node) >=
                         std::tie(row[i].distance, row[i].node)) {
          return InternalError("tc: " +
                               std::string(is_forward ? "closure" : "reverse") +
                               " row of node " + std::to_string(v) +
                               " is not ascending by (distance, node) at "
                               "position " +
                               std::to_string(i));
        }
      }
    }
    forward_pairs += closure_[v].size();
    reverse_pairs += reverse_[v].size();
  }
  if (forward_pairs != reverse_pairs) {
    return InternalError("tc: closure holds " + std::to_string(forward_pairs) +
                         " pairs but reverse holds " +
                         std::to_string(reverse_pairs));
  }
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeDist& nd : closure_[u]) {
      const std::span<const NodeDist> row = reverse_[nd.node];
      const auto it = std::lower_bound(
          row.begin(), row.end(), NodeDist{u, nd.distance},
          [](const NodeDist& a, const NodeDist& b) {
            return std::tie(a.distance, a.node) < std::tie(b.distance, b.node);
          });
      if (it == row.end() || it->node != u || it->distance != nd.distance) {
        return InternalError("tc: closure pair " + std::to_string(u) + " -> " +
                             std::to_string(nd.node) + " (dist " +
                             std::to_string(nd.distance) +
                             ") is missing from the reverse row of node " +
                             std::to_string(nd.node));
      }
    }
  }

  // Row = BFS closure: each checked row must be exactly the node's BFS level
  // sets (a truncated or padded row shows up as a size or entry mismatch).
  Rng rng(options.seed ^ 0x54435643u);  // "TCVC"
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
  for (const NodeId source : sample) {
    const std::vector<Distance> dist =
        graph::BfsDistances(g, source, graph::Direction::kForward);
    std::vector<NodeDist> expected;
    for (NodeId v = 0; v < n; ++v) {
      if (v != source && dist[v] != kUnreachable) {
        expected.push_back({v, dist[v]});
      }
    }
    SortByDistance(expected);
    const std::span<const NodeDist> row = closure_[source];
    if (row.size() != expected.size()) {
      return InternalError("tc: closure row of node " + std::to_string(source) +
                           " holds " + std::to_string(row.size()) +
                           " entries, BFS reaches " +
                           std::to_string(expected.size()) + " nodes");
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (row[i] != expected[i]) {
        return InternalError(
            "tc: closure row of node " + std::to_string(source) +
            " diverges from BFS at position " + std::to_string(i) +
            " (stored node " + std::to_string(row[i].node) + " dist " +
            std::to_string(row[i].distance) + ", BFS has node " +
            std::to_string(expected[i].node) + " dist " +
            std::to_string(expected[i].distance) + ")");
      }
    }
  }
  return PathIndex::Validate(g, options);
}

void TransitiveClosureIndex::SaveSegment(storage::SegmentWriter& seg) const {
  std::vector<uint64_t> offsets;
  std::vector<NodeDist> flat;
  closure_.Flatten(offsets, flat);
  seg.Add(kClosureOffsets, offsets);
  seg.Add(kClosureFlat, flat);
  reverse_.Flatten(offsets, flat);
  seg.Add(kReverseOffsets, offsets);
  seg.Add(kReverseFlat, flat);
  seg.Add(kTagArray, tag_.span());
}

StatusOr<std::unique_ptr<TransitiveClosureIndex>>
TransitiveClosureIndex::LoadSegment(const storage::SegmentView& view) {
  auto closure_offsets = view.GetArray<uint64_t>(kClosureOffsets);
  if (!closure_offsets.ok()) return closure_offsets.status();
  auto closure_flat = view.GetArray<NodeDist>(kClosureFlat);
  if (!closure_flat.ok()) return closure_flat.status();
  auto reverse_offsets = view.GetArray<uint64_t>(kReverseOffsets);
  if (!reverse_offsets.ok()) return reverse_offsets.status();
  auto reverse_flat = view.GetArray<NodeDist>(kReverseFlat);
  if (!reverse_flat.ok()) return reverse_flat.status();
  auto tag = view.GetArray<TagId>(kTagArray);
  if (!tag.ok()) return tag.status();
  auto closure = storage::FlatRows<NodeDist>::FromView(closure_offsets.value(),
                                                       closure_flat.value());
  if (!closure.ok()) return closure.status();
  auto reverse = storage::FlatRows<NodeDist>::FromView(reverse_offsets.value(),
                                                       reverse_flat.value());
  if (!reverse.ok()) return reverse.status();
  const size_t n = tag.value().size();
  if (closure.value().size() != n || reverse.value().size() != n) {
    return InvalidArgumentError("tc segment: array size mismatch");
  }
  // Semantic row validation is intentionally skipped here: the segment
  // checksum already proves the bytes are exactly what the writer produced,
  // and `check --deep` / Validate() covers semantics.
  auto index =
      std::unique_ptr<TransitiveClosureIndex>(new TransitiveClosureIndex());
  index->closure_ = std::move(closure).value();
  index->reverse_ = std::move(reverse).value();
  index->tag_ = storage::FlatVec<TagId>::FromView(tag.value());
  return index;
}

size_t TransitiveClosureIndex::NumPairs() const {
  return closure_.TotalEntries();
}

size_t CountClosurePairs(const graph::Digraph& g) {
  const size_t n = g.NumNodes();
  size_t pairs = 0;
  std::vector<uint32_t> stamp(n, UINT32_MAX);
  std::deque<NodeId> queue;
  for (NodeId source = 0; source < n; ++source) {
    stamp[source] = source;
    queue.clear();
    queue.push_back(source);
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      for (const graph::Digraph::Arc& arc : g.OutArcs(u)) {
        if (stamp[arc.target] != source) {
          stamp[arc.target] = source;
          ++pairs;
          queue.push_back(arc.target);
        }
      }
    }
  }
  return pairs;
}

}  // namespace flix::index
