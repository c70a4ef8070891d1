#include "index/summary_index.h"

#include <algorithm>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.h"
#include "graph/scc.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace flix::index {
namespace {

// Process-wide count of results yielded by summary-pruned frontier cursors
// (resolved once; Counter addresses survive MetricsRegistry::Reset()).
obs::Counter& SummaryPullCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kCursorPulledSummary);
  return counter;
}

size_t TagUniverse(const graph::Digraph& g) {
  TagId max_tag = 0;
  bool any = false;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (g.Tag(v) != kInvalidTag) {
      max_tag = std::max(max_tag, g.Tag(v));
      any = true;
    }
  }
  return any ? static_cast<size_t>(max_tag) + 1 : 0;
}

int DepthLimit(const SummaryOptions& options, TagId tag) {
  if (options.depth_of_tag.empty()) return INT32_MAX;
  if (tag == kInvalidTag || tag >= options.depth_of_tag.size()) return 0;
  return options.depth_of_tag[tag];
}

// Segment array ids (kIndex segment, strategy = kSummary). The quotient
// graph's arrays start at kSummaryBase (graph::Digraph::AppendArrays).
constexpr uint32_t kBlockOfArray = 1;
constexpr uint32_t kExtentOffsets = 2;
constexpr uint32_t kExtentFlat = 3;
constexpr uint32_t kFwdTagsOffsets = 4;
constexpr uint32_t kFwdTagsFlat = 5;
constexpr uint32_t kBwdTagsOffsets = 6;
constexpr uint32_t kBwdTagsFlat = 7;
constexpr uint32_t kSummaryParams = 8;  // [tag_words]
constexpr uint32_t kSummaryBase = 10;

}  // namespace

std::unique_ptr<SummaryIndex> SummaryIndex::Build(
    const graph::Digraph& g, const SummaryOptions& options) {
  auto index = std::unique_ptr<SummaryIndex>(new SummaryIndex(g));
  index->BuildSummary(options);
  index->BuildPruning();
  return index;
}

std::unique_ptr<SummaryIndex> SummaryIndex::BuildFb(const graph::Digraph& g) {
  SummaryOptions options;
  options.forward_refinement = true;
  return Build(g, options);
}

std::unique_ptr<SummaryIndex> SummaryIndex::BuildDk(
    const graph::Digraph& g,
    const std::vector<std::vector<TagId>>& workload_paths) {
  SummaryOptions options;
  options.depth_of_tag.assign(TagUniverse(g), 0);
  int max_depth = 0;
  for (const auto& path : workload_paths) {
    for (size_t i = 0; i < path.size(); ++i) {
      if (path[i] < options.depth_of_tag.size()) {
        options.depth_of_tag[path[i]] =
            std::max(options.depth_of_tag[path[i]], static_cast<int>(i));
        max_depth = std::max(max_depth, static_cast<int>(i));
      }
    }
  }
  options.max_rounds = max_depth;
  return Build(g, options);
}

void SummaryIndex::BuildSummary(const SummaryOptions& options) {
  const size_t n = g_.NumNodes();
  block_of_.assign(n, 0);

  // Round 0: partition by tag.
  {
    std::unordered_map<TagId, uint32_t> block_of_tag;
    for (NodeId v = 0; v < n; ++v) {
      const auto [it, inserted] = block_of_tag.emplace(
          g_.Tag(v), static_cast<uint32_t>(block_of_tag.size()));
      block_of_[v] = it->second;
    }
  }

  // Iterated refinement. Signature of a live node: (old block, predecessor
  // blocks, successor blocks if F&B). Frozen nodes (their per-tag depth is
  // exhausted) keep their block — the D(k) locality rule.
  size_t num_blocks = 0;
  for (int round = 1;
       options.max_rounds < 0 || round <= options.max_rounds; ++round) {
    using Signature = std::tuple<uint32_t, std::vector<uint32_t>,
                                 std::vector<uint32_t>>;
    std::map<Signature, uint32_t> blocks;
    std::vector<uint32_t> next(n);
    std::vector<uint32_t> preds;
    std::vector<uint32_t> succs;
    // Frozen nodes first so their block numbering is stable per old block.
    std::unordered_map<uint32_t, uint32_t> frozen_blocks;
    for (NodeId v = 0; v < n; ++v) {
      if (DepthLimit(options, g_.Tag(v)) >= round) continue;
      const auto [it, inserted] = frozen_blocks.emplace(
          block_of_[v], static_cast<uint32_t>(frozen_blocks.size()));
      next[v] = it->second;
    }
    uint32_t next_id = static_cast<uint32_t>(frozen_blocks.size());
    for (NodeId v = 0; v < n; ++v) {
      if (DepthLimit(options, g_.Tag(v)) < round) continue;
      preds.clear();
      for (const graph::Digraph::Arc& arc : g_.InArcs(v)) {
        preds.push_back(block_of_[arc.target]);
      }
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
      succs.clear();
      if (options.forward_refinement) {
        for (const graph::Digraph::Arc& arc : g_.OutArcs(v)) {
          succs.push_back(block_of_[arc.target]);
        }
        std::sort(succs.begin(), succs.end());
        succs.erase(std::unique(succs.begin(), succs.end()), succs.end());
      }
      const auto [it, inserted] =
          blocks.emplace(Signature{block_of_[v], preds, succs}, next_id);
      if (inserted) ++next_id;
      next[v] = it->second;
    }
    const bool stable =
        next_id == num_blocks &&
        std::equal(next.begin(), next.end(), block_of_.begin());
    block_of_ = std::move(next);
    num_blocks = next_id;
    if (stable) break;
  }

  // Renumber densely and build extents + summary graph.
  std::unordered_map<uint32_t, uint32_t> remap;
  for (NodeId v = 0; v < n; ++v) {
    const auto [it, inserted] =
        remap.emplace(block_of_[v], static_cast<uint32_t>(remap.size()));
    block_of_[v] = it->second;
  }
  extents_.Assign(remap.size());
  for (NodeId v = 0; v < n; ++v) extents_.Row(block_of_[v]).push_back(v);

  summary_ = graph::Digraph(extents_.size());
  std::vector<uint32_t> last_seen(extents_.size(), UINT32_MAX);
  for (uint32_t b = 0; b < extents_.size(); ++b) {
    for (const NodeId v : extents_[b]) {
      for (const graph::Digraph::Arc& arc : g_.OutArcs(v)) {
        const uint32_t target = block_of_[arc.target];
        if (last_seen[target] == b) continue;
        last_seen[target] = b;
        summary_.AddEdge(b, target, arc.kind);
      }
    }
  }
}

void SummaryIndex::BuildPruning() {
  const size_t num_blocks = extents_.size();
  const size_t num_tags = TagUniverse(g_);
  tag_words_ = (num_tags + 63) / 64;

  forward_tags_.Assign(num_blocks);
  backward_tags_.Assign(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    forward_tags_.Row(b).assign(tag_words_, 0);
    backward_tags_.Row(b).assign(tag_words_, 0);
    const TagId tag =
        extents_[b].empty() ? kInvalidTag : g_.Tag(extents_[b].front());
    if (tag != kInvalidTag) {
      forward_tags_.Row(b)[tag / 64] |= uint64_t{1} << (tag % 64);
      backward_tags_.Row(b)[tag / 64] |= uint64_t{1} << (tag % 64);
    }
  }

  const graph::SccResult scc = graph::StronglyConnectedComponents(summary_);
  const graph::Digraph condensed = graph::Condense(summary_, scc);

  // Forward sets: pull from successors, ascending component ids (Tarjan
  // numbers sinks first, so successors are complete when visited).
  std::vector<std::vector<uint64_t>> comp_fwd(
      scc.num_components, std::vector<uint64_t>(tag_words_, 0));
  for (uint32_t c = 0; c < scc.num_components; ++c) {
    for (const NodeId b : scc.members[c]) {
      for (size_t w = 0; w < tag_words_; ++w) {
        comp_fwd[c][w] |= forward_tags_[b][w];
      }
    }
    for (const graph::Digraph::Arc& arc : condensed.OutArcs(c)) {
      for (size_t w = 0; w < tag_words_; ++w) {
        comp_fwd[c][w] |= comp_fwd[arc.target][w];
      }
    }
  }
  // Backward sets: push into successors, descending ids (ancestors carry
  // higher component numbers, so every contribution to c lands before c is
  // processed).
  std::vector<std::vector<uint64_t>> comp_bwd(
      scc.num_components, std::vector<uint64_t>(tag_words_, 0));
  for (uint32_t c = scc.num_components; c-- > 0;) {
    for (const NodeId b : scc.members[c]) {
      for (size_t w = 0; w < tag_words_; ++w) {
        comp_bwd[c][w] |= backward_tags_[b][w];
      }
    }
    for (const graph::Digraph::Arc& arc : condensed.OutArcs(c)) {
      for (size_t w = 0; w < tag_words_; ++w) {
        comp_bwd[arc.target][w] |= comp_bwd[c][w];
      }
    }
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    forward_tags_.Row(b) = comp_fwd[scc.component_of[b]];
    backward_tags_.Row(b) = comp_bwd[scc.component_of[b]];
  }
}

bool SummaryIndex::CanReachTag(uint32_t block, TagId tag) const {
  if (tag == kInvalidTag) return true;
  const size_t word = tag / 64;
  if (word >= tag_words_) return false;
  return (forward_tags_[block][word] >> (tag % 64)) & 1;
}

bool SummaryIndex::ReachedFromTag(uint32_t block, TagId tag) const {
  if (tag == kInvalidTag) return true;
  const size_t word = tag / 64;
  if (word >= tag_words_) return false;
  return (backward_tags_[block][word] >> (tag % 64)) & 1;
}

Distance SummaryIndex::PointSearch(NodeId from, NodeId stop_at) const {
  const TagId stop_tag = g_.Tag(stop_at);
  std::vector<Distance> dist(g_.NumNodes(), kUnreachable);
  dist[from] = 0;
  std::deque<NodeId> queue = {from};
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    if (v == stop_at && v != from) return dist[v];
    for (const graph::Digraph::Arc& arc : g_.OutArcs(v)) {
      const NodeId w = arc.target;
      if (dist[w] != kUnreachable) continue;
      // Prune branches that cannot even reach the target's tag.
      if (!CanReachTag(block_of_[w], stop_tag)) continue;
      dist[w] = dist[v] + 1;
      queue.push_back(w);
    }
  }
  return kUnreachable;
}

bool SummaryIndex::IsReachable(NodeId from, NodeId to) const {
  return DistanceBetween(from, to) != kUnreachable;
}

Distance SummaryIndex::DistanceBetween(NodeId from, NodeId to) const {
  if (from == to) return 0;
  return PointSearch(from, to);
}

std::unique_ptr<NodeDistCursor> SummaryIndex::BfsCursor(
    std::span<const NodeId> sources, TagId tag, bool wildcard,
    bool forward) const {
  graph::BfsFrontier::ExpandFilter filter;
  if (!forward) {
    filter = [this, tag](NodeId w) {
      return ReachedFromTag(block_of_[w], tag);
    };
  } else if (!wildcard) {
    filter = [this, tag](NodeId w) { return CanReachTag(block_of_[w], tag); };
  }
  return std::make_unique<FrontierCursor>(
      g_, sources,
      forward ? graph::Direction::kForward : graph::Direction::kBackward,
      std::move(filter), tag, wildcard, /*include_source=*/false,
      std::nullopt, &SummaryPullCounter());
}

std::unique_ptr<NodeDistCursor> SummaryIndex::BfsAmongCursor(
    std::span<const NodeId> sources, std::span<const NodeId> probe_set,
    bool forward) const {
  return std::make_unique<FrontierCursor>(
      g_, sources,
      forward ? graph::Direction::kForward : graph::Direction::kBackward,
      graph::BfsFrontier::ExpandFilter{}, kInvalidTag, /*wildcard=*/true,
      /*include_source=*/true,
      std::unordered_set<NodeId>(probe_set.begin(), probe_set.end()),
      &SummaryPullCounter());
}

std::unique_ptr<NodeDistCursor> SummaryIndex::DescendantsByTagCursor(
    NodeId from, TagId tag) const {
  return BfsCursor({&from, 1}, tag, /*wildcard=*/false, /*forward=*/true);
}

std::unique_ptr<NodeDistCursor> SummaryIndex::DescendantsCursor(
    NodeId from) const {
  return BfsCursor({&from, 1}, kInvalidTag, /*wildcard=*/true,
                   /*forward=*/true);
}

std::unique_ptr<NodeDistCursor> SummaryIndex::AncestorsByTagCursor(
    NodeId from, TagId tag) const {
  return BfsCursor({&from, 1}, tag, /*wildcard=*/false, /*forward=*/false);
}

std::unique_ptr<NodeDistCursor> SummaryIndex::ReachableAmongCursor(
    NodeId from, std::span<const NodeId> targets) const {
  return BfsAmongCursor({&from, 1}, targets, /*forward=*/true);
}

std::unique_ptr<NodeDistCursor> SummaryIndex::AncestorsAmongCursor(
    NodeId from, std::span<const NodeId> sources) const {
  return BfsAmongCursor({&from, 1}, sources, /*forward=*/false);
}

std::unique_ptr<NodeDistCursor> SummaryIndex::NewMultiSourceCursor(
    std::span<const NodeId> seeds, TagId tag, bool wildcard,
    bool forward) const {
  return BfsCursor(seeds, tag, wildcard, forward);
}

std::unique_ptr<NodeDistCursor> SummaryIndex::NewMultiSourceAmongCursor(
    std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
    bool forward) const {
  return BfsAmongCursor(seeds, probe_set, forward);
}

Status SummaryIndex::Validate(const graph::Digraph& g,
                              const ValidateOptions& options) const {
  if (&g != &g_) {
    return InternalError("summary: validated against a graph other than the "
                         "one the index is bound to");
  }
  const size_t n = g.NumNodes();
  const size_t num_blocks = extents_.size();
  if (block_of_.size() != n) {
    return InternalError("summary: block map covers " +
                         std::to_string(block_of_.size()) +
                         " nodes, graph has " + std::to_string(n));
  }
  size_t extent_members = 0;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    if (extents_[b].empty()) {
      return InternalError("summary: block " + std::to_string(b) +
                           " has an empty extent");
    }
    const TagId block_tag = g.Tag(extents_[b].front());
    for (const NodeId v : extents_[b]) {
      if (v >= n || block_of_[v] != b) {
        return InternalError("summary: extent of block " + std::to_string(b) +
                             " lists node " + std::to_string(v) +
                             ", whose block id is " +
                             std::to_string(v < n ? block_of_[v]
                                                  : kInvalidNode));
      }
      if (g.Tag(v) != block_tag) {
        return InternalError("summary: block " + std::to_string(b) +
                             " is not tag-homogeneous (node " +
                             std::to_string(v) + " has tag " +
                             std::to_string(g.Tag(v)) + ", block tag is " +
                             std::to_string(block_tag) + ")");
      }
    }
    extent_members += extents_[b].size();
  }
  if (extent_members != n) {
    return InternalError("summary: extents hold " +
                         std::to_string(extent_members) +
                         " members, graph has " + std::to_string(n) +
                         " nodes — some node is missing or duplicated");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (block_of_[v] >= num_blocks) {
      return InternalError("summary: node " + std::to_string(v) +
                           " maps to block " + std::to_string(block_of_[v]) +
                           ", only " + std::to_string(num_blocks) + " exist");
    }
  }

  if (summary_.NumNodes() != num_blocks) {
    return InternalError("summary: quotient graph has " +
                         std::to_string(summary_.NumNodes()) +
                         " nodes, partition has " +
                         std::to_string(num_blocks) + " blocks");
  }
  if (forward_tags_.size() != num_blocks ||
      backward_tags_.size() != num_blocks) {
    return InternalError("summary: pruning tables cover " +
                         std::to_string(forward_tags_.size()) + "/" +
                         std::to_string(backward_tags_.size()) +
                         " blocks, partition has " +
                         std::to_string(num_blocks));
  }
  for (const auto* table : {&forward_tags_, &backward_tags_}) {
    for (size_t b = 0; b < table->size(); ++b) {
      if ((*table)[b].size() != tag_words_) {
        return InternalError("summary: pruning row width " +
                             std::to_string((*table)[b].size()) +
                             " != tag_words " + std::to_string(tag_words_));
      }
    }
  }
  std::vector<std::unordered_set<uint32_t>> projected(num_blocks);
  for (NodeId u = 0; u < n; ++u) {
    for (const graph::Digraph::Arc& arc : g.OutArcs(u)) {
      projected[block_of_[u]].insert(block_of_[arc.target]);
    }
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    std::unordered_set<uint32_t> stored;
    for (const graph::Digraph::Arc& arc : summary_.OutArcs(b)) {
      stored.insert(static_cast<uint32_t>(arc.target));
    }
    if (stored != projected[b]) {
      return InternalError("summary: block edges of block " +
                           std::to_string(b) +
                           " are not the exact projection of the element "
                           "graph (" +
                           std::to_string(stored.size()) + " stored vs " +
                           std::to_string(projected[b].size()) +
                           " projected)");
    }
  }

  // Both pruning tables must equal recomputed summary reachability — a
  // missing bit silently cuts real results from the pruned traversals.
  std::vector<uint8_t> reached(num_blocks);
  for (const bool forward : {true, false}) {
    for (uint32_t b = 0; b < num_blocks; ++b) {
      std::fill(reached.begin(), reached.end(), 0);
      std::deque<uint32_t> queue = {b};
      reached[b] = 1;
      while (!queue.empty()) {
        const uint32_t c = queue.front();
        queue.pop_front();
        const auto arcs = forward ? summary_.OutArcs(c) : summary_.InArcs(c);
        for (const graph::Digraph::Arc& arc : arcs) {
          if (!reached[arc.target]) {
            reached[arc.target] = 1;
            queue.push_back(static_cast<uint32_t>(arc.target));
          }
        }
      }
      std::vector<uint64_t> want(tag_words_, 0);
      for (uint32_t c = 0; c < num_blocks; ++c) {
        if (!reached[c]) continue;
        const TagId tag = g.Tag(extents_[c].front());
        if (tag != kInvalidTag) want[tag / 64] |= uint64_t{1} << (tag % 64);
      }
      const std::span<const uint64_t> got =
          forward ? forward_tags_[b] : backward_tags_[b];
      if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
        return InternalError("summary: " +
                             std::string(forward ? "forward" : "backward") +
                             "-tag bitset of block " + std::to_string(b) +
                             " differs from recomputed summary reachability");
      }
    }
  }
  return PathIndex::Validate(g, options);
}

size_t SummaryIndex::MemoryBytes() const {
  return block_of_.MemoryBytes() + extents_.MemoryBytes() +
         summary_.MemoryBytes() + forward_tags_.MemoryBytes() +
         backward_tags_.MemoryBytes();
}

void SummaryIndex::SaveSegment(storage::SegmentWriter& seg) const {
  seg.Add(kBlockOfArray, block_of_.span());
  std::vector<uint64_t> offsets;
  std::vector<NodeId> extent_flat;
  extents_.Flatten(offsets, extent_flat);
  seg.Add(kExtentOffsets, offsets);
  seg.Add(kExtentFlat, extent_flat);
  std::vector<uint64_t> bit_flat;
  forward_tags_.Flatten(offsets, bit_flat);
  seg.Add(kFwdTagsOffsets, offsets);
  seg.Add(kFwdTagsFlat, bit_flat);
  backward_tags_.Flatten(offsets, bit_flat);
  seg.Add(kBwdTagsOffsets, offsets);
  seg.Add(kBwdTagsFlat, bit_flat);
  const std::vector<uint64_t> params = {static_cast<uint64_t>(tag_words_)};
  seg.Add(kSummaryParams, params);
  summary_.AppendArrays(seg, kSummaryBase);
}

StatusOr<std::unique_ptr<SummaryIndex>> SummaryIndex::LoadSegment(
    const storage::SegmentView& view, const graph::Digraph& g) {
  auto params = view.GetArray<uint64_t>(kSummaryParams);
  if (!params.ok()) return params.status();
  if (params.value().size() != 1) {
    return InvalidArgumentError("summary segment: bad parameter array");
  }
  auto block_of = view.GetArray<uint32_t>(kBlockOfArray);
  if (!block_of.ok()) return block_of.status();
  auto extent_offsets = view.GetArray<uint64_t>(kExtentOffsets);
  if (!extent_offsets.ok()) return extent_offsets.status();
  auto extent_flat = view.GetArray<NodeId>(kExtentFlat);
  if (!extent_flat.ok()) return extent_flat.status();
  auto extents = storage::FlatRows<NodeId>::FromView(extent_offsets.value(),
                                                     extent_flat.value());
  if (!extents.ok()) return extents.status();
  auto fwd_offsets = view.GetArray<uint64_t>(kFwdTagsOffsets);
  if (!fwd_offsets.ok()) return fwd_offsets.status();
  auto fwd_flat = view.GetArray<uint64_t>(kFwdTagsFlat);
  if (!fwd_flat.ok()) return fwd_flat.status();
  auto forward = storage::FlatRows<uint64_t>::FromView(fwd_offsets.value(),
                                                       fwd_flat.value());
  if (!forward.ok()) return forward.status();
  auto bwd_offsets = view.GetArray<uint64_t>(kBwdTagsOffsets);
  if (!bwd_offsets.ok()) return bwd_offsets.status();
  auto bwd_flat = view.GetArray<uint64_t>(kBwdTagsFlat);
  if (!bwd_flat.ok()) return bwd_flat.status();
  auto backward = storage::FlatRows<uint64_t>::FromView(bwd_offsets.value(),
                                                        bwd_flat.value());
  if (!backward.ok()) return backward.status();
  auto summary = graph::Digraph::FromSegment(view, kSummaryBase);
  if (!summary.ok()) return summary.status();

  auto index = std::unique_ptr<SummaryIndex>(new SummaryIndex(g));
  index->tag_words_ = static_cast<size_t>(params.value()[0]);
  index->block_of_ = storage::FlatVec<uint32_t>::FromView(block_of.value());
  index->extents_ = std::move(extents).value();
  index->forward_tags_ = std::move(forward).value();
  index->backward_tags_ = std::move(backward).value();
  index->summary_ = std::move(summary).value();
  // Shape checks only; segment checksums prove the bytes, `check --deep`
  // covers the semantics.
  if (index->block_of_.size() != g.NumNodes() ||
      index->extents_.size() != index->summary_.NumNodes() ||
      index->forward_tags_.size() != index->extents_.size() ||
      index->backward_tags_.size() != index->extents_.size()) {
    return InvalidArgumentError("summary segment: array size mismatch");
  }
  return index;
}

}  // namespace flix::index
