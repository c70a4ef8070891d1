#include "index/apex.h"

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

// Process-wide count of results yielded by APEX frontier cursors (resolved
// once; Counter addresses survive MetricsRegistry::Reset()).
obs::Counter& ApexPullCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kCursorPulledApex);
  return counter;
}

// Maximum tag id occurring in g, plus one (0 if untagged).
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

// Segment array ids (kIndex segment, strategy = kApex). The summary graph's
// arrays start at kSummaryBase (graph::Digraph::AppendArrays convention).
constexpr uint32_t kBlockOfArray = 1;
constexpr uint32_t kExtentOffsets = 2;
constexpr uint32_t kExtentFlat = 3;
constexpr uint32_t kReachTagsOffsets = 4;
constexpr uint32_t kReachTagsFlat = 5;
constexpr uint32_t kBlockClosureOffsets = 6;
constexpr uint32_t kBlockClosureFlat = 7;
constexpr uint32_t kApexParams = 8;  // [tag_words, have_block_closure]
constexpr uint32_t kSummaryBase = 10;

}  // namespace

std::unique_ptr<ApexIndex> ApexIndex::Build(const graph::Digraph& g,
                                            const ApexOptions& options) {
  auto index = std::unique_ptr<ApexIndex>(new ApexIndex(g));
  index->BuildSummary(options);
  index->BuildReachability(options);
  return index;
}

void ApexIndex::BuildSummary(const ApexOptions& options) {
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

  // Iterate: signature(v) = (old block, sorted set of predecessor blocks);
  // nodes with equal signatures share a block. Fixpoint = backward
  // bisimulation (incoming-path equivalence).
  size_t num_blocks = 0;
  for (int round = 0;
       options.max_refinement_rounds < 0 || round < options.max_refinement_rounds;
       ++round) {
    std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint32_t> blocks;
    std::vector<uint32_t> next(n);
    std::vector<uint32_t> preds;
    for (NodeId v = 0; v < n; ++v) {
      preds.clear();
      for (const graph::Digraph::Arc& arc : g_.InArcs(v)) {
        preds.push_back(block_of_[arc.target]);
      }
      std::sort(preds.begin(), preds.end());
      preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
      const auto [it, inserted] = blocks.emplace(
          std::make_pair(block_of_[v], preds),
          static_cast<uint32_t>(blocks.size()));
      next[v] = it->second;
    }
    const bool stable =
        blocks.size() == num_blocks &&
        std::equal(next.begin(), next.end(), block_of_.begin());
    block_of_ = std::move(next);
    num_blocks = blocks.size();
    if (stable) break;
    // A partition refined to the size of the previous round's partition is
    // the fixpoint (refinement never merges blocks).
  }

  // Renumber blocks densely in first-occurrence order and build extents.
  std::unordered_map<uint32_t, uint32_t> remap;
  for (NodeId v = 0; v < n; ++v) {
    const auto [it, inserted] =
        remap.emplace(block_of_[v], static_cast<uint32_t>(remap.size()));
    block_of_[v] = it->second;
  }
  extents_.Assign(remap.size());
  for (NodeId v = 0; v < n; ++v) extents_.Row(block_of_[v]).push_back(v);

  // Summary graph: deduplicated block edges.
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
    // Self-edges are permitted in the summary (block reaching itself).
  }
}

void ApexIndex::BuildReachability(const ApexOptions& options) {
  const size_t num_blocks = extents_.size();
  const size_t num_tags = TagUniverse(g_);
  tag_words_ = (num_tags + 63) / 64;

  // reachable_tags_ via reverse-topological accumulation over the summary's
  // SCC condensation (the summary may be cyclic when the data graph is).
  reachable_tags_.Assign(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    reachable_tags_.Row(b).assign(tag_words_, 0);
    const TagId tag = extents_[b].empty() ? kInvalidTag
                                          : g_.Tag(extents_[b].front());
    if (tag != kInvalidTag) {
      reachable_tags_.Row(b)[tag / 64] |= uint64_t{1} << (tag % 64);
    }
  }
  const graph::SccResult scc = graph::StronglyConnectedComponents(summary_);
  const graph::Digraph condensed = graph::Condense(summary_, scc);
  // Tarjan numbers components in reverse topological order, so ascending
  // component id = sinks first: accumulate successors into predecessors by
  // walking components in ascending order.
  std::vector<std::vector<uint64_t>> comp_tags(
      scc.num_components, std::vector<uint64_t>(tag_words_, 0));
  for (uint32_t c = 0; c < scc.num_components; ++c) {
    for (const NodeId b : scc.members[c]) {
      for (size_t w = 0; w < tag_words_; ++w) {
        comp_tags[c][w] |= reachable_tags_[b][w];
      }
    }
    for (const graph::Digraph::Arc& arc : condensed.OutArcs(c)) {
      for (size_t w = 0; w < tag_words_; ++w) {
        comp_tags[c][w] |= comp_tags[arc.target][w];
      }
    }
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    reachable_tags_.Row(b) = comp_tags[scc.component_of[b]];
  }

  // Optional block-level closure for fast IsReachable pruning.
  if (num_blocks <= options.max_blocks_for_closure) {
    const size_t block_words = (num_blocks + 63) / 64;
    std::vector<std::vector<uint64_t>> comp_reach(
        scc.num_components, std::vector<uint64_t>(block_words, 0));
    for (uint32_t c = 0; c < scc.num_components; ++c) {
      for (const NodeId b : scc.members[c]) {
        comp_reach[c][b / 64] |= uint64_t{1} << (b % 64);
      }
      for (const graph::Digraph::Arc& arc : condensed.OutArcs(c)) {
        for (size_t w = 0; w < block_words; ++w) {
          comp_reach[c][w] |= comp_reach[arc.target][w];
        }
      }
    }
    block_closure_.Assign(num_blocks);
    for (uint32_t b = 0; b < num_blocks; ++b) {
      block_closure_.Row(b) = comp_reach[scc.component_of[b]];
    }
    have_block_closure_ = true;
  }
}

bool ApexIndex::BlockCanReachTag(uint32_t block, TagId tag) const {
  if (tag == kInvalidTag) return true;
  const size_t word = tag / 64;
  if (word >= tag_words_) return false;
  return (reachable_tags_[block][word] >> (tag % 64)) & 1;
}

bool ApexIndex::BlockCanReachBlock(uint32_t from, uint32_t to) const {
  if (!have_block_closure_) return true;  // unknown: cannot prune
  return (block_closure_[from][to / 64] >> (to % 64)) & 1;
}

Distance ApexIndex::PointSearch(NodeId from, NodeId stop_at) const {
  const uint32_t target_block = block_of_[stop_at];
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
      // Summary pruning: skip branches that cannot reach the target block.
      if (w != stop_at && !BlockCanReachBlock(block_of_[w], target_block)) {
        continue;
      }
      dist[w] = dist[v] + 1;
      queue.push_back(w);
    }
  }
  return kUnreachable;
}

bool ApexIndex::IsReachable(NodeId from, NodeId to) const {
  return DistanceBetween(from, to) != kUnreachable;
}

Distance ApexIndex::DistanceBetween(NodeId from, NodeId to) const {
  if (from == to) return 0;
  if (!BlockCanReachBlock(block_of_[from], block_of_[to])) return kUnreachable;
  return PointSearch(from, to);
}

std::unique_ptr<NodeDistCursor> ApexIndex::BfsCursor(
    std::span<const NodeId> sources, TagId tag, bool wildcard,
    bool forward) const {
  if (!forward) {
    // Backward traversal; summary pruning does not apply (reachable_tags_
    // is forward-only), so this is a plain lazy reverse BFS with tag
    // filtering.
    return std::make_unique<FrontierCursor>(
        g_, sources, graph::Direction::kBackward,
        graph::BfsFrontier::ExpandFilter{}, tag, /*wildcard=*/false,
        /*include_source=*/false, std::nullopt, &ApexPullCounter());
  }
  graph::BfsFrontier::ExpandFilter filter;
  if (!wildcard) {
    filter = [this, tag](NodeId w) {
      return BlockCanReachTag(block_of_[w], tag);
    };
  }
  return std::make_unique<FrontierCursor>(
      g_, sources, graph::Direction::kForward, std::move(filter), tag,
      wildcard, /*include_source=*/false, std::nullopt, &ApexPullCounter());
}

std::unique_ptr<NodeDistCursor> ApexIndex::BfsAmongCursor(
    std::span<const NodeId> sources, std::span<const NodeId> probe_set,
    bool forward) const {
  return std::make_unique<FrontierCursor>(
      g_, sources,
      forward ? graph::Direction::kForward : graph::Direction::kBackward,
      graph::BfsFrontier::ExpandFilter{}, kInvalidTag, /*wildcard=*/true,
      /*include_source=*/true,
      std::unordered_set<NodeId>(probe_set.begin(), probe_set.end()),
      &ApexPullCounter());
}

std::unique_ptr<NodeDistCursor> ApexIndex::DescendantsByTagCursor(
    NodeId from, TagId tag) const {
  return BfsCursor({&from, 1}, tag, /*wildcard=*/false, /*forward=*/true);
}

std::unique_ptr<NodeDistCursor> ApexIndex::DescendantsCursor(
    NodeId from) const {
  return BfsCursor({&from, 1}, kInvalidTag, /*wildcard=*/true,
                   /*forward=*/true);
}

std::unique_ptr<NodeDistCursor> ApexIndex::AncestorsByTagCursor(
    NodeId from, TagId tag) const {
  return BfsCursor({&from, 1}, tag, /*wildcard=*/false, /*forward=*/false);
}

std::unique_ptr<NodeDistCursor> ApexIndex::ReachableAmongCursor(
    NodeId from, std::span<const NodeId> targets) const {
  return BfsAmongCursor({&from, 1}, targets, /*forward=*/true);
}

std::unique_ptr<NodeDistCursor> ApexIndex::AncestorsAmongCursor(
    NodeId from, std::span<const NodeId> sources) const {
  return BfsAmongCursor({&from, 1}, sources, /*forward=*/false);
}

std::unique_ptr<NodeDistCursor> ApexIndex::NewMultiSourceCursor(
    std::span<const NodeId> seeds, TagId tag, bool wildcard,
    bool forward) const {
  return BfsCursor(seeds, tag, wildcard, forward);
}

std::unique_ptr<NodeDistCursor> ApexIndex::NewMultiSourceAmongCursor(
    std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
    bool forward) const {
  return BfsAmongCursor(seeds, probe_set, forward);
}

void ApexIndex::SaveSegment(storage::SegmentWriter& seg) const {
  seg.Add(kBlockOfArray, block_of_.span());
  std::vector<uint64_t> offsets;
  std::vector<NodeId> extent_flat;
  extents_.Flatten(offsets, extent_flat);
  seg.Add(kExtentOffsets, offsets);
  seg.Add(kExtentFlat, extent_flat);
  std::vector<uint64_t> bit_flat;
  reachable_tags_.Flatten(offsets, bit_flat);
  seg.Add(kReachTagsOffsets, offsets);
  seg.Add(kReachTagsFlat, bit_flat);
  if (have_block_closure_) {
    block_closure_.Flatten(offsets, bit_flat);
    seg.Add(kBlockClosureOffsets, offsets);
    seg.Add(kBlockClosureFlat, bit_flat);
  }
  const std::vector<uint64_t> params = {
      static_cast<uint64_t>(tag_words_),
      have_block_closure_ ? uint64_t{1} : uint64_t{0}};
  seg.Add(kApexParams, params);
  summary_.AppendArrays(seg, kSummaryBase);
}

StatusOr<std::unique_ptr<ApexIndex>> ApexIndex::LoadSegment(
    const storage::SegmentView& view, const graph::Digraph& g) {
  auto params = view.GetArray<uint64_t>(kApexParams);
  if (!params.ok()) return params.status();
  if (params.value().size() != 2) {
    return InvalidArgumentError("apex segment: bad parameter array");
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
  auto tags_offsets = view.GetArray<uint64_t>(kReachTagsOffsets);
  if (!tags_offsets.ok()) return tags_offsets.status();
  auto tags_flat = view.GetArray<uint64_t>(kReachTagsFlat);
  if (!tags_flat.ok()) return tags_flat.status();
  auto reach_tags = storage::FlatRows<uint64_t>::FromView(tags_offsets.value(),
                                                          tags_flat.value());
  if (!reach_tags.ok()) return reach_tags.status();
  auto summary = graph::Digraph::FromSegment(view, kSummaryBase);
  if (!summary.ok()) return summary.status();

  auto index = std::unique_ptr<ApexIndex>(new ApexIndex(g));
  index->tag_words_ = static_cast<size_t>(params.value()[0]);
  index->have_block_closure_ = params.value()[1] != 0;
  index->block_of_ = storage::FlatVec<uint32_t>::FromView(block_of.value());
  index->extents_ = std::move(extents).value();
  index->reachable_tags_ = std::move(reach_tags).value();
  index->summary_ = std::move(summary).value();
  if (index->have_block_closure_) {
    auto closure_offsets = view.GetArray<uint64_t>(kBlockClosureOffsets);
    if (!closure_offsets.ok()) return closure_offsets.status();
    auto closure_flat = view.GetArray<uint64_t>(kBlockClosureFlat);
    if (!closure_flat.ok()) return closure_flat.status();
    auto closure = storage::FlatRows<uint64_t>::FromView(
        closure_offsets.value(), closure_flat.value());
    if (!closure.ok()) return closure.status();
    index->block_closure_ = std::move(closure).value();
    if (index->block_closure_.size() != index->extents_.size()) {
      return InvalidArgumentError("apex segment: array size mismatch");
    }
  }
  // Shape checks only; segment checksums prove the bytes, `check --deep`
  // covers the semantics.
  if (index->block_of_.size() != g.NumNodes() ||
      index->extents_.size() != index->summary_.NumNodes() ||
      index->reachable_tags_.size() != index->extents_.size()) {
    return InvalidArgumentError("apex segment: array size mismatch");
  }
  return index;
}

Status ApexIndex::Validate(const graph::Digraph& g,
                           const ValidateOptions& options) const {
  if (&g != &g_) {
    return InternalError("apex: validated against a graph other than the one "
                         "the index is bound to");
  }
  const size_t n = g.NumNodes();
  const size_t num_blocks = extents_.size();
  if (block_of_.size() != n) {
    return InternalError("apex: block map covers " +
                         std::to_string(block_of_.size()) +
                         " nodes, graph has " + std::to_string(n));
  }

  // Exact partition: every node sits in precisely the extent its block id
  // names, and extents contain nothing else.
  size_t extent_members = 0;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    if (extents_[b].empty()) {
      return InternalError("apex: block " + std::to_string(b) +
                           " has an empty extent");
    }
    const TagId block_tag = g.Tag(extents_[b].front());
    for (const NodeId v : extents_[b]) {
      if (v >= n || block_of_[v] != b) {
        return InternalError("apex: extent of block " + std::to_string(b) +
                             " lists node " + std::to_string(v) +
                             ", whose block id is " +
                             std::to_string(v < n ? block_of_[v]
                                                  : kInvalidNode));
      }
      if (g.Tag(v) != block_tag) {
        return InternalError("apex: block " + std::to_string(b) +
                             " is not tag-homogeneous (node " +
                             std::to_string(v) + " has tag " +
                             std::to_string(g.Tag(v)) + ", block tag is " +
                             std::to_string(block_tag) + ")");
      }
    }
    extent_members += extents_[b].size();
  }
  if (extent_members != n) {
    return InternalError("apex: extents hold " +
                         std::to_string(extent_members) +
                         " members, graph has " + std::to_string(n) +
                         " nodes — some node is missing or duplicated");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (block_of_[v] >= num_blocks) {
      return InternalError("apex: node " + std::to_string(v) +
                           " maps to block " + std::to_string(block_of_[v]) +
                           ", only " + std::to_string(num_blocks) + " exist");
    }
  }

  // Summary = exact quotient graph: block edges are precisely the projected
  // element edges. Soundness of every pruning decision hangs on this.
  if (summary_.NumNodes() != num_blocks) {
    return InternalError("apex: summary graph has " +
                         std::to_string(summary_.NumNodes()) +
                         " nodes, partition has " + std::to_string(num_blocks) +
                         " blocks");
  }
  if (reachable_tags_.size() != num_blocks ||
      (have_block_closure_ && block_closure_.size() != num_blocks)) {
    return InternalError("apex: pruning tables cover " +
                         std::to_string(reachable_tags_.size()) +
                         " blocks, partition has " +
                         std::to_string(num_blocks));
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    if (reachable_tags_[b].size() != tag_words_) {
      return InternalError("apex: reachable-tag row width " +
                           std::to_string(reachable_tags_[b].size()) +
                           " != tag_words " + std::to_string(tag_words_));
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
      for (const uint32_t c : projected[b]) {
        if (!stored.contains(c)) {
          return InternalError("apex: summary is missing block edge " +
                               std::to_string(b) + " -> " + std::to_string(c) +
                               " implied by the element graph");
        }
      }
      for (const uint32_t c : stored) {
        if (!projected[b].contains(c)) {
          return InternalError("apex: summary block edge " + std::to_string(b) +
                               " -> " + std::to_string(c) +
                               " has no witness in the element graph");
        }
      }
    }
  }

  // Pruning tables must equal recomputed summary reachability: a missing
  // bit makes the traversal cursors drop real results silently.
  std::vector<uint8_t> reached(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    std::fill(reached.begin(), reached.end(), 0);
    std::deque<uint32_t> queue = {b};
    reached[b] = 1;
    while (!queue.empty()) {
      const uint32_t c = queue.front();
      queue.pop_front();
      for (const graph::Digraph::Arc& arc : summary_.OutArcs(c)) {
        if (!reached[arc.target]) {
          reached[arc.target] = 1;
          queue.push_back(static_cast<uint32_t>(arc.target));
        }
      }
    }
    std::vector<uint64_t> want_tags(tag_words_, 0);
    for (uint32_t c = 0; c < num_blocks; ++c) {
      if (!reached[c]) continue;
      const TagId tag = g.Tag(extents_[c].front());
      if (tag != kInvalidTag) {
        want_tags[tag / 64] |= uint64_t{1} << (tag % 64);
      }
    }
    const std::span<const uint64_t> have_tags = reachable_tags_[b];
    if (!std::equal(have_tags.begin(), have_tags.end(), want_tags.begin(),
                    want_tags.end())) {
      return InternalError("apex: reachable-tag bitset of block " +
                           std::to_string(b) +
                           " differs from recomputed summary reachability");
    }
    if (have_block_closure_) {
      std::vector<uint64_t> want_blocks((num_blocks + 63) / 64, 0);
      for (uint32_t c = 0; c < num_blocks; ++c) {
        if (reached[c]) want_blocks[c / 64] |= uint64_t{1} << (c % 64);
      }
      const std::span<const uint64_t> have_blocks = block_closure_[b];
      if (!std::equal(have_blocks.begin(), have_blocks.end(),
                      want_blocks.begin(), want_blocks.end())) {
        return InternalError("apex: block-closure row of block " +
                             std::to_string(b) +
                             " differs from recomputed summary reachability");
      }
    }
  }
  return PathIndex::Validate(g, options);
}

size_t ApexIndex::MemoryBytes() const {
  return block_of_.MemoryBytes() + extents_.MemoryBytes() +
         summary_.MemoryBytes() + reachable_tags_.MemoryBytes() +
         block_closure_.MemoryBytes();
}

}  // namespace flix::index
