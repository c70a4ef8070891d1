#include "index/path_index.h"

#include <algorithm>
#include <queue>
#include <string>
#include <tuple>

#include "common/dcheck.h"
#include "common/rng.h"
#include "index/hopi.h"
#include "index/ppo.h"
#include "index/summary_index.h"
#include "index/transitive_closure.h"

namespace flix::index {

std::string_view StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kPpo: return "PPO";
    case StrategyKind::kHopi: return "HOPI";
    case StrategyKind::kApex: return "APEX";
    case StrategyKind::kTransitiveClosure: return "TC";
    case StrategyKind::kSummary: return "SUMMARY";
  }
  return "UNKNOWN";
}

FrontierCursor::FrontierCursor(const graph::Digraph& g,
                               std::span<const NodeId> sources,
                               graph::Direction dir,
                               graph::BfsFrontier::ExpandFilter filter,
                               TagId tag, bool wildcard, bool include_source,
                               std::optional<std::unordered_set<NodeId>> wanted,
                               obs::Counter* pull_counter)
    : g_(g),
      frontier_(g, sources, dir, std::move(filter)),
      tag_(tag),
      wildcard_(wildcard),
      include_source_(include_source),
      wanted_(std::move(wanted)),
      pull_counter_(pull_counter) {}

std::optional<NodeDist> FrontierCursor::Next() {
  while (pos_ >= buffer_.size()) {
    if (frontier_.Done()) return std::nullopt;
    const std::vector<NodeId>& level = frontier_.NextLevel();
    if (level.empty()) return std::nullopt;
    depth_ = frontier_.depth();
    buffer_.clear();
    pos_ = 0;
    // Depth 0 is exactly the sources.
    if (depth_ == 0 && !include_source_) continue;
    for (const NodeId v : level) {
      if (!wildcard_ && g_.Tag(v) != tag_) continue;
      if (wanted_.has_value() && !wanted_->contains(v)) continue;
      buffer_.push_back(v);
    }
  }
  if (pull_counter_ != nullptr) pull_counter_->Increment();
  return NodeDist{buffer_[pos_++], depth_};
}

Distance FrontierCursor::BoundHint() const {
  if (pos_ < buffer_.size()) return depth_;
  if (frontier_.Done()) return kUnreachable;
  return depth_ + 1;  // anything still to come is at least one level deeper
}

size_t FrontierCursor::RemainingHint() const {
  // Matches still buffered plus the queued next level — a lower bound on
  // the traversal work an early close skips.
  return (buffer_.size() - pos_) + frontier_.PendingSize();
}

std::vector<NodeDist> DrainCursor(NodeDistCursor& cursor) {
  std::vector<NodeDist> result;
  while (std::optional<NodeDist> nd = cursor.Next()) result.push_back(*nd);
  return result;
}

std::unique_ptr<NodeDistCursor> PathIndex::ReachableAmongCursor(
    NodeId from, std::span<const NodeId> targets) const {
  std::vector<NodeDist> result;
  for (const NodeId t : targets) {
    const Distance d = DistanceBetween(from, t);
    if (d != kUnreachable) result.push_back({t, d});
  }
  SortByDistance(result);
  return std::make_unique<MaterializedCursor>(std::move(result));
}

std::unique_ptr<NodeDistCursor> PathIndex::AncestorsAmongCursor(
    NodeId from, std::span<const NodeId> sources) const {
  std::vector<NodeDist> result;
  for (const NodeId s : sources) {
    const Distance d = DistanceBetween(s, from);
    if (d != kUnreachable) result.push_back({s, d});
  }
  SortByDistance(result);
  return std::make_unique<MaterializedCursor>(std::move(result));
}

std::unique_ptr<NodeDistCursor> PathIndex::MultiSourceCursor(
    std::span<const NodeId> seeds, TagId tag, bool wildcard,
    bool forward) const {
  FLIX_DCHECK(forward || !wildcard, "no wildcard ancestors axis");
  if (seeds.empty()) {
    return std::make_unique<MaterializedCursor>(std::vector<NodeDist>{});
  }
  if (seeds.size() == 1) {
    const NodeId from = seeds.front();
    if (!forward) return AncestorsByTagCursor(from, tag);
    return wildcard ? DescendantsCursor(from)
                    : DescendantsByTagCursor(from, tag);
  }
  return NewMultiSourceCursor(seeds, tag, wildcard, forward);
}

std::unique_ptr<NodeDistCursor> PathIndex::MultiSourceAmongCursor(
    std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
    bool forward) const {
  if (seeds.empty()) {
    return std::make_unique<MaterializedCursor>(std::vector<NodeDist>{});
  }
  if (seeds.size() == 1) {
    return forward ? ReachableAmongCursor(seeds.front(), probe_set)
                   : AncestorsAmongCursor(seeds.front(), probe_set);
  }
  return NewMultiSourceAmongCursor(seeds, probe_set, forward);
}

namespace {

// K-way merge of single-source cursors (one per distinct seed), keyed by
// (distance, node): the first pop of a node carries its minimum distance
// over the seeds, later pops are dropped, and so are the `excluded` nodes.
class UnionCursor : public NodeDistCursor {
 public:
  UnionCursor(std::vector<std::unique_ptr<NodeDistCursor>> parts,
              std::vector<NodeId> excluded)
      : parts_(std::move(parts)),
        seen_(excluded.begin(), excluded.end()) {
    for (uint32_t i = 0; i < parts_.size(); ++i) Refill(i);
  }

  std::optional<NodeDist> Next() override {
    while (!heap_.empty()) {
      const Head top = heap_.top();
      heap_.pop();
      Refill(top.part);
      if (seen_.insert(top.node).second) return NodeDist{top.node, top.distance};
    }
    return std::nullopt;
  }

  Distance BoundHint() const override {
    return heap_.empty() ? kUnreachable : heap_.top().distance;
  }

  // Counts a node once per seed that reaches it (best-effort).
  size_t RemainingHint() const override {
    size_t remaining = heap_.size();
    for (const auto& part : parts_) remaining += part->RemainingHint();
    return remaining;
  }

 private:
  struct Head {
    Distance distance;
    NodeId node;
    uint32_t part;

    bool operator>(const Head& other) const {
      return std::tie(distance, node) > std::tie(other.distance, other.node);
    }
  };

  void Refill(uint32_t part) {
    if (const std::optional<NodeDist> nd = parts_[part]->Next()) {
      heap_.push({nd->distance, nd->node, part});
    }
  }

  std::vector<std::unique_ptr<NodeDistCursor>> parts_;
  std::unordered_set<NodeId> seen_;
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heap_;
};

std::vector<NodeId> DistinctSeeds(std::span<const NodeId> seeds) {
  std::vector<NodeId> distinct(seeds.begin(), seeds.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  return distinct;
}

}  // namespace

std::unique_ptr<NodeDistCursor> PathIndex::NewMultiSourceCursor(
    std::span<const NodeId> seeds, TagId tag, bool wildcard,
    bool forward) const {
  std::vector<NodeId> distinct = DistinctSeeds(seeds);
  std::vector<std::unique_ptr<NodeDistCursor>> parts;
  parts.reserve(distinct.size());
  for (const NodeId s : distinct) {
    parts.push_back(MultiSourceCursor({&s, 1}, tag, wildcard, forward));
  }
  return std::make_unique<UnionCursor>(std::move(parts), std::move(distinct));
}

std::unique_ptr<NodeDistCursor> PathIndex::NewMultiSourceAmongCursor(
    std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
    bool forward) const {
  std::vector<std::unique_ptr<NodeDistCursor>> parts;
  for (const NodeId s : DistinctSeeds(seeds)) {
    parts.push_back(MultiSourceAmongCursor({&s, 1}, probe_set, forward));
  }
  return std::make_unique<UnionCursor>(std::move(parts),
                                       std::vector<NodeId>{});
}

std::vector<NodeDist> PathIndex::DescendantsByTag(NodeId from, TagId tag) const {
  return DrainCursor(*DescendantsByTagCursor(from, tag));
}

std::vector<NodeDist> PathIndex::Descendants(NodeId from) const {
  return DrainCursor(*DescendantsCursor(from));
}

std::vector<NodeDist> PathIndex::AncestorsByTag(NodeId from, TagId tag) const {
  return DrainCursor(*AncestorsByTagCursor(from, tag));
}

std::vector<NodeDist> PathIndex::ReachableAmong(
    NodeId from, std::span<const NodeId> targets) const {
  return DrainCursor(*ReachableAmongCursor(from, targets));
}

std::vector<NodeDist> PathIndex::AncestorsAmong(
    NodeId from, std::span<const NodeId> sources) const {
  return DrainCursor(*AncestorsAmongCursor(from, sources));
}

namespace {

// The fallback cover: one IsReachable call per added node, in insertion
// order, stopping at the first hit.
class PairwiseReachCover : public ReachCover {
 public:
  PairwiseReachCover(const PathIndex& index, bool forward)
      : index_(index), forward_(forward) {}

  void Add(NodeId p) override { added_.push_back(p); }

  bool Covers(NodeId x) override { return CoversSince(x, 0); }

  bool CoversSince(NodeId x, size_t since) override {
    for (size_t i = since; i < added_.size(); ++i) {
      const NodeId p = added_[i];
      ++probes_;
      if (forward_ ? index_.IsReachable(p, x) : index_.IsReachable(x, p)) {
        return true;
      }
    }
    return false;
  }

 private:
  const PathIndex& index_;
  const bool forward_;
  std::vector<NodeId> added_;
};

}  // namespace

std::unique_ptr<ReachCover> PathIndex::NewReachCover(bool forward) const {
  return std::make_unique<PairwiseReachCover>(*this, forward);
}

void PathIndex::RegisterLinkSources(std::span<const NodeId> sources) {
  (void)sources;
}

void PathIndex::RegisterEntryNodes(std::span<const NodeId> targets) {
  (void)targets;
}

void SaveIndexSegment(const PathIndex& index, storage::SegmentWriter& seg) {
  switch (index.kind()) {
    case StrategyKind::kPpo:
      static_cast<const PpoIndex&>(index).SaveSegment(seg);
      break;
    case StrategyKind::kHopi:
      static_cast<const HopiIndex&>(index).SaveSegment(seg);
      break;
    case StrategyKind::kApex:
    case StrategyKind::kSummary:
      static_cast<const SummaryIndex&>(index).SaveSegment(seg);
      break;
    case StrategyKind::kTransitiveClosure:
      static_cast<const TransitiveClosureIndex&>(index).SaveSegment(seg);
      break;
  }
}

StatusOr<std::unique_ptr<PathIndex>> LoadIndexSegment(
    const storage::SegmentView& view, StrategyKind kind,
    const graph::Digraph& graph) {
  switch (kind) {
    case StrategyKind::kPpo: {
      auto loaded = PpoIndex::LoadSegment(view);
      if (!loaded.ok()) return loaded.status();
      return StatusOr<std::unique_ptr<PathIndex>>(std::move(loaded).value());
    }
    case StrategyKind::kHopi: {
      auto loaded = HopiIndex::LoadSegment(view);
      if (!loaded.ok()) return loaded.status();
      return StatusOr<std::unique_ptr<PathIndex>>(std::move(loaded).value());
    }
    case StrategyKind::kApex:
    case StrategyKind::kSummary: {
      auto loaded = SummaryIndex::LoadSegment(view, graph, kind);
      if (!loaded.ok()) return loaded.status();
      return StatusOr<std::unique_ptr<PathIndex>>(std::move(loaded).value());
    }
    case StrategyKind::kTransitiveClosure: {
      auto loaded = TransitiveClosureIndex::LoadSegment(view);
      if (!loaded.ok()) return loaded.status();
      return StatusOr<std::unique_ptr<PathIndex>>(std::move(loaded).value());
    }
  }
  return InvalidArgumentError("unknown index strategy kind " +
                              std::to_string(static_cast<uint32_t>(kind)));
}

namespace {

// Sampled node set for the differential checks: deterministic, deduplicated,
// covering the whole graph in deep mode when it is small enough.
std::vector<NodeId> SampleNodes(size_t num_nodes, size_t want, Rng& rng,
                                bool exhaustive) {
  std::vector<NodeId> nodes;
  if (num_nodes == 0) return nodes;
  if (exhaustive || want >= num_nodes) {
    nodes.resize(num_nodes);
    for (NodeId v = 0; v < num_nodes; ++v) nodes[v] = v;
    return nodes;
  }
  std::unordered_set<NodeId> seen;
  while (seen.size() < want) {
    seen.insert(static_cast<NodeId>(rng.Uniform(num_nodes)));
  }
  nodes.assign(seen.begin(), seen.end());
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

std::string DescribeDiff(std::string_view what, NodeId from,
                         const std::vector<NodeDist>& got,
                         const std::vector<NodeDist>& want) {
  std::string msg = std::string(what) + " mismatch at source node " +
                    std::to_string(from) + ": index returned " +
                    std::to_string(got.size()) + " results, oracle " +
                    std::to_string(want.size());
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) {
      msg += "; first divergence at rank " + std::to_string(i) + ": index (" +
             std::to_string(got[i].node) + ", d=" +
             std::to_string(got[i].distance) + ") vs oracle (" +
             std::to_string(want[i].node) + ", d=" +
             std::to_string(want[i].distance) + ")";
      return msg;
    }
  }
  if (got.size() != want.size()) {
    const std::vector<NodeDist>& longer = got.size() > want.size() ? got : want;
    msg += "; first extra entry (" + std::to_string(longer[n].node) + ", d=" +
           std::to_string(longer[n].distance) + ") on the " +
           (got.size() > want.size() ? "index" : "oracle") + " side";
  }
  return msg;
}

}  // namespace

Status PathIndex::Validate(const graph::Digraph& g,
                           const ValidateOptions& options) const {
  const size_t n = g.NumNodes();
  if (n == 0) return Status::Ok();
  const std::string who = std::string(name());
  Rng rng(options.seed);
  const bool exhaustive = options.deep && n <= options.exhaustive_limit;

  // Distance probes: DistanceBetween must equal the BFS distance for every
  // sampled pair (exhaustive on small graphs in deep mode). This is the
  // 2-hop cover completeness check for HOPI (a missing hub shows up as
  // kUnreachable or an inflated distance) and a window-test check for PPO.
  if (exhaustive) {
    for (NodeId from = 0; from < n; ++from) {
      const std::vector<Distance> truth = graph::BfsDistances(g, from);
      for (NodeId to = 0; to < n; ++to) {
        const Distance got = DistanceBetween(from, to);
        if (got != truth[to]) {
          return InternalError(
              who + ": distance(" + std::to_string(from) + ", " +
              std::to_string(to) + ") = " + std::to_string(got) +
              ", BFS oracle says " + std::to_string(truth[to]));
        }
      }
    }
  } else {
    for (size_t i = 0; i < options.sample_pairs; ++i) {
      const NodeId from = static_cast<NodeId>(rng.Uniform(n));
      const NodeId to = static_cast<NodeId>(rng.Uniform(n));
      const Distance got = DistanceBetween(from, to);
      const Distance want = graph::BfsDistance(g, from, to);
      if (got != want) {
        return InternalError(who + ": distance(" + std::to_string(from) +
                             ", " + std::to_string(to) + ") = " +
                             std::to_string(got) + ", BFS oracle says " +
                             std::to_string(want));
      }
    }
  }

  // Enumeration diffs: for sampled sources, a full cursor drain and the
  // BFS oracle must agree element-for-element (set, distance and
  // (distance, node) order). Covers the wildcard, tag-filtered and
  // ancestor axes — the three probes the PEE issues.
  const graph::ReachabilityOracle oracle(g);
  const std::vector<NodeId> sources =
      SampleNodes(n, options.sample_sources, rng, exhaustive);
  for (const NodeId from : sources) {
    {
      const std::vector<NodeDist> want = oracle.Descendants(from);
      const std::vector<NodeDist> drained = Descendants(from);
      if (drained != want) {
        return InternalError(
            who + ": " + DescribeDiff("descendants", from, drained, want));
      }
    }
    const TagId tag = g.Tag(from);
    if (tag != kInvalidTag) {
      const std::vector<NodeDist> want = oracle.DescendantsByTag(from, tag);
      const std::vector<NodeDist> drained = DescendantsByTag(from, tag);
      if (drained != want) {
        return InternalError(who + ": " + DescribeDiff("descendants-by-tag",
                                                       from, drained, want));
      }
      const std::vector<NodeDist> want_up = oracle.AncestorsByTag(from, tag);
      const std::vector<NodeDist> up = AncestorsByTag(from, tag);
      if (up != want_up) {
        return InternalError(
            who + ": " + DescribeDiff("ancestors-by-tag", from, up, want_up));
      }
    }
  }
  return Status::Ok();
}

void SortByDistance(std::vector<NodeDist>& v) {
  std::sort(v.begin(), v.end(), [](const NodeDist& a, const NodeDist& b) {
    return std::tie(a.distance, a.node) < std::tie(b.distance, b.node);
  });
}

}  // namespace flix::index
