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

// Process-wide counts of results yielded by summary-pruned frontier cursors,
// one counter per preset kind (resolved once; Counter addresses survive
// MetricsRegistry::Reset()).
obs::Counter& PullCounter(StrategyKind kind) {
  static obs::Counter& apex =
      obs::MetricsRegistry::Global().GetCounter(obs::names::kCursorPulledApex);
  static obs::Counter& summary = obs::MetricsRegistry::Global().GetCounter(
      obs::names::kCursorPulledSummary);
  return kind == StrategyKind::kApex ? apex : summary;
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

int DepthLimit(const SummaryOptions& options, TagId tag) {
  if (options.depth_of_tag.empty()) return INT32_MAX;
  if (tag == kInvalidTag || tag >= options.depth_of_tag.size()) return 0;
  return options.depth_of_tag[tag];
}

// Segment array ids (kIndex segment, strategy = kApex or kSummary). Ids 1-8
// are the APEX layout; the kSummary presets add the backward tag sets at 20
// and 21. The quotient graph's arrays start at kSummaryBase
// (graph::Digraph::AppendArrays convention).
constexpr uint32_t kBlockOfArray = 1;
constexpr uint32_t kExtentOffsets = 2;
constexpr uint32_t kExtentFlat = 3;
constexpr uint32_t kFwdTagsOffsets = 4;
constexpr uint32_t kFwdTagsFlat = 5;
constexpr uint32_t kBlockClosureOffsets = 6;
constexpr uint32_t kBlockClosureFlat = 7;
constexpr uint32_t kParams = 8;  // [tag_words, have_block_closure]
constexpr uint32_t kSummaryBase = 10;
constexpr uint32_t kBwdTagsOffsets = 20;
constexpr uint32_t kBwdTagsFlat = 21;

// Reads one CSR pair of bitset rows, each exactly `width` words wide.
StatusOr<storage::FlatRows<uint64_t>> LoadBitRows(
    const storage::SegmentView& view, uint32_t offsets_id, uint32_t flat_id,
    size_t rows, size_t width, const char* what) {
  auto offsets = view.GetArray<uint64_t>(offsets_id);
  if (!offsets.ok()) return offsets.status();
  auto flat = view.GetArray<uint64_t>(flat_id);
  if (!flat.ok()) return flat.status();
  auto table =
      storage::FlatRows<uint64_t>::FromView(offsets.value(), flat.value());
  if (!table.ok()) return table.status();
  bool shaped = table.value().size() == rows;
  for (size_t b = 0; shaped && b < rows; ++b) {
    shaped = table.value()[b].size() == width;
  }
  if (!shaped) {
    return InvalidArgumentError(std::string("summary segment: ") + what +
                                " is not " + std::to_string(rows) +
                                " rows of " + std::to_string(width) +
                                " words");
  }
  return table;
}

}  // namespace

std::unique_ptr<SummaryIndex> SummaryIndex::Make(
    const graph::Digraph& g, StrategyKind kind, const SummaryOptions& options) {
  auto index = std::unique_ptr<SummaryIndex>(new SummaryIndex(g, kind));
  index->BuildSummary(options);
  index->BuildPruning();
  return index;
}

std::unique_ptr<SummaryIndex> SummaryIndex::Build(
    const graph::Digraph& g, const SummaryOptions& options) {
  return Make(g, StrategyKind::kSummary, options);
}

std::unique_ptr<SummaryIndex> SummaryIndex::BuildApex(const graph::Digraph& g) {
  return Make(g, StrategyKind::kApex, {});
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

  // Iterated refinement: nodes with equal signatures share a block,
  // numbered in insertion order. Frozen nodes (their per-tag depth is
  // exhausted) keep their block — the D(k) locality rule. A round that
  // leaves the partition unchanged is the fixpoint (refinement never merges
  // blocks).
  size_t num_blocks = 0;
  for (int round = 1;
       options.max_rounds < 0 || round <= options.max_rounds; ++round) {
    // Signature of a live node: (old block, its sorted predecessor blocks
    // and, for F&B, a UINT32_MAX separator and its sorted successor blocks).
    std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint32_t> blocks;
    std::vector<uint32_t> next(n);
    std::vector<uint32_t> signature;
    const auto append_blocks = [&](std::span<const graph::Digraph::Arc> arcs) {
      const auto begin = static_cast<std::ptrdiff_t>(signature.size());
      for (const graph::Digraph::Arc& arc : arcs) {
        signature.push_back(block_of_[arc.target]);
      }
      std::sort(signature.begin() + begin, signature.end());
      signature.erase(std::unique(signature.begin() + begin, signature.end()),
                      signature.end());
    };
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
      signature.clear();
      append_blocks(g_.InArcs(v));
      if (options.forward_refinement) {
        signature.push_back(UINT32_MAX);
        append_blocks(g_.OutArcs(v));
      }
      const auto [it, inserted] =
          blocks.emplace(std::make_pair(block_of_[v], signature), next_id);
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

  // Renumber blocks densely in first-occurrence order and build extents.
  std::unordered_map<uint32_t, uint32_t> remap;
  for (NodeId v = 0; v < n; ++v) {
    const auto [it, inserted] =
        remap.emplace(block_of_[v], static_cast<uint32_t>(remap.size()));
    block_of_[v] = it->second;
  }
  extents_.Assign(remap.size());
  for (NodeId v = 0; v < n; ++v) extents_.Row(block_of_[v]).push_back(v);

  // Quotient graph: deduplicated block edges, self-edges included.
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
  const bool backward = HasBackwardTags();

  forward_tags_.Assign(num_blocks);
  if (backward) backward_tags_.Assign(num_blocks);
  for (uint32_t b = 0; b < num_blocks; ++b) {
    forward_tags_.Row(b).assign(tag_words_, 0);
    if (backward) backward_tags_.Row(b).assign(tag_words_, 0);
    const TagId tag =
        extents_[b].empty() ? kInvalidTag : g_.Tag(extents_[b].front());
    if (tag != kInvalidTag) {
      const uint64_t bit = uint64_t{1} << (tag % 64);
      forward_tags_.Row(b)[tag / 64] |= bit;
      if (backward) backward_tags_.Row(b)[tag / 64] |= bit;
    }
  }

  // Accumulate over the quotient graph's SCC condensation (the summary may
  // be cyclic when the data graph is).
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
  for (uint32_t b = 0; b < num_blocks; ++b) {
    forward_tags_.Row(b) = comp_fwd[scc.component_of[b]];
  }

  if (backward) {
    // Backward sets: push into successors, descending ids (ancestors carry
    // higher component numbers, so every contribution to c lands before c
    // is processed).
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
      backward_tags_.Row(b) = comp_bwd[scc.component_of[b]];
    }
  }

  // APEX: block-level closure for fast IsReachable pruning.
  if (kind_ == StrategyKind::kApex && num_blocks <= kMaxBlocksForClosure) {
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

bool SummaryIndex::CanReachTag(uint32_t block, TagId tag) const {
  if (tag == kInvalidTag) return true;
  const size_t word = tag / 64;
  if (word >= tag_words_) return false;
  return (forward_tags_[block][word] >> (tag % 64)) & 1;
}

bool SummaryIndex::ReachedFromTag(uint32_t block, TagId tag) const {
  if (tag == kInvalidTag || !HasBackwardTags()) return true;
  const size_t word = tag / 64;
  if (word >= tag_words_) return false;
  return (backward_tags_[block][word] >> (tag % 64)) & 1;
}

bool SummaryIndex::BlockCanReachBlock(uint32_t from, uint32_t to) const {
  if (!have_block_closure_) return true;  // unknown: cannot prune
  return (block_closure_[from][to / 64] >> (to % 64)) & 1;
}

Distance SummaryIndex::PointSearch(NodeId from, NodeId stop_at) const {
  const uint32_t target_block = block_of_[stop_at];
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
      // Skip branches that cannot reach the target block (or its tag).
      if (have_block_closure_) {
        if (w != stop_at && !BlockCanReachBlock(block_of_[w], target_block)) {
          continue;
        }
      } else if (!CanReachTag(block_of_[w], stop_tag)) {
        continue;
      }
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
  if (!BlockCanReachBlock(block_of_[from], block_of_[to])) return kUnreachable;
  return PointSearch(from, to);
}

std::unique_ptr<NodeDistCursor> SummaryIndex::BfsCursor(
    std::span<const NodeId> sources, TagId tag, bool wildcard,
    bool forward) const {
  graph::BfsFrontier::ExpandFilter filter;
  if (!forward) {
    if (HasBackwardTags()) {
      filter = [this, tag](NodeId w) {
        return ReachedFromTag(block_of_[w], tag);
      };
    }
  } else if (!wildcard) {
    filter = [this, tag](NodeId w) { return CanReachTag(block_of_[w], tag); };
  }
  return std::make_unique<FrontierCursor>(
      g_, sources,
      forward ? graph::Direction::kForward : graph::Direction::kBackward,
      std::move(filter), tag, wildcard, /*include_source=*/false,
      std::nullopt, &PullCounter(kind_));
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
      &PullCounter(kind_));
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
  // Messages carry the preset's name ("apex:" / "summary:").
  const std::string who =
      kind_ == StrategyKind::kApex ? "apex: " : "summary: ";
  if (&g != &g_) {
    return InternalError(who + "validated against a graph other than the one "
                         "the index is bound to");
  }
  const size_t n = g.NumNodes();
  const size_t num_blocks = extents_.size();
  if (block_of_.size() != n) {
    return InternalError(who + "block map covers " +
                         std::to_string(block_of_.size()) +
                         " nodes, graph has " + std::to_string(n));
  }

  // Exact partition: every node sits in precisely the extent its block id
  // names, and extents contain nothing else.
  size_t extent_members = 0;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    if (extents_[b].empty()) {
      return InternalError(who + "block " + std::to_string(b) +
                           " has an empty extent");
    }
    const TagId block_tag = g.Tag(extents_[b].front());
    for (const NodeId v : extents_[b]) {
      if (v >= n || block_of_[v] != b) {
        return InternalError(who + "extent of block " + std::to_string(b) +
                             " lists node " + std::to_string(v) +
                             ", whose block id is " +
                             std::to_string(v < n ? block_of_[v]
                                                  : kInvalidNode));
      }
      if (g.Tag(v) != block_tag) {
        return InternalError(who + "block " + std::to_string(b) +
                             " is not tag-homogeneous (node " +
                             std::to_string(v) + " has tag " +
                             std::to_string(g.Tag(v)) + ", block tag is " +
                             std::to_string(block_tag) + ")");
      }
    }
    extent_members += extents_[b].size();
  }
  if (extent_members != n) {
    return InternalError(who + "extents hold " +
                         std::to_string(extent_members) +
                         " members, graph has " + std::to_string(n) +
                         " nodes — some node is missing or duplicated");
  }
  for (NodeId v = 0; v < n; ++v) {
    if (block_of_[v] >= num_blocks) {
      return InternalError(who + "node " + std::to_string(v) +
                           " maps to block " + std::to_string(block_of_[v]) +
                           ", only " + std::to_string(num_blocks) + " exist");
    }
  }

  // Summary = exact quotient graph: block edges are precisely the projected
  // element edges. Soundness of every pruning decision hangs on this.
  if (summary_.NumNodes() != num_blocks) {
    return InternalError(who + "quotient graph has " +
                         std::to_string(summary_.NumNodes()) +
                         " nodes, partition has " +
                         std::to_string(num_blocks) + " blocks");
  }
  if (forward_tags_.size() != num_blocks ||
      (HasBackwardTags() && backward_tags_.size() != num_blocks) ||
      (have_block_closure_ && block_closure_.size() != num_blocks)) {
    return InternalError(who + "pruning tables cover " +
                         std::to_string(forward_tags_.size()) +
                         " blocks, partition has " +
                         std::to_string(num_blocks));
  }
  for (const auto* table : {&forward_tags_, &backward_tags_}) {
    for (size_t b = 0; b < table->size(); ++b) {
      if ((*table)[b].size() != tag_words_) {
        return InternalError(who + "pruning row width " +
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
    for (const uint32_t c : projected[b]) {
      if (!stored.contains(c)) {
        return InternalError(who + "quotient graph is missing block edge " +
                             std::to_string(b) + " -> " + std::to_string(c) +
                             " implied by the element graph");
      }
    }
    for (const uint32_t c : stored) {
      if (!projected[b].contains(c)) {
        return InternalError(who + "quotient block edge " + std::to_string(b) +
                             " -> " + std::to_string(c) +
                             " has no witness in the element graph");
      }
    }
  }

  // Every stored pruning table must equal recomputed summary reachability —
  // a missing bit silently cuts real results from the pruned traversals.
  std::vector<uint8_t> reached(num_blocks);
  for (const bool forward : {true, false}) {
    if (!forward && !HasBackwardTags()) continue;
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
        return InternalError(who +
                             std::string(forward ? "forward" : "backward") +
                             "-tag bitset of block " + std::to_string(b) +
                             " differs from recomputed summary reachability");
      }
      if (forward && have_block_closure_) {
        std::vector<uint64_t> want_blocks((num_blocks + 63) / 64, 0);
        for (uint32_t c = 0; c < num_blocks; ++c) {
          if (reached[c]) want_blocks[c / 64] |= uint64_t{1} << (c % 64);
        }
        const std::span<const uint64_t> have_blocks = block_closure_[b];
        if (!std::equal(have_blocks.begin(), have_blocks.end(),
                        want_blocks.begin(), want_blocks.end())) {
          return InternalError(who + "block-closure row of block " +
                               std::to_string(b) +
                               " differs from recomputed summary "
                               "reachability");
        }
      }
    }
  }
  return PathIndex::Validate(g, options);
}

size_t SummaryIndex::MemoryBytes() const {
  return block_of_.MemoryBytes() + extents_.MemoryBytes() +
         summary_.MemoryBytes() + forward_tags_.MemoryBytes() +
         backward_tags_.MemoryBytes() + block_closure_.MemoryBytes();
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
  if (have_block_closure_) {
    block_closure_.Flatten(offsets, bit_flat);
    seg.Add(kBlockClosureOffsets, offsets);
    seg.Add(kBlockClosureFlat, bit_flat);
  }
  const std::vector<uint64_t> params = {
      static_cast<uint64_t>(tag_words_),
      have_block_closure_ ? uint64_t{1} : uint64_t{0}};
  seg.Add(kParams, params);
  summary_.AppendArrays(seg, kSummaryBase);
  if (HasBackwardTags()) {
    backward_tags_.Flatten(offsets, bit_flat);
    seg.Add(kBwdTagsOffsets, offsets);
    seg.Add(kBwdTagsFlat, bit_flat);
  }
}

StatusOr<std::unique_ptr<SummaryIndex>> SummaryIndex::LoadSegment(
    const storage::SegmentView& view, const graph::Digraph& g,
    StrategyKind kind) {
  auto params = view.GetArray<uint64_t>(kParams);
  if (!params.ok()) return params.status();
  if (params.value().size() != 2) {
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
  auto summary = graph::Digraph::FromSegment(view, kSummaryBase);
  if (!summary.ok()) return summary.status();

  auto index = std::unique_ptr<SummaryIndex>(new SummaryIndex(g, kind));
  index->tag_words_ = static_cast<size_t>(params.value()[0]);
  index->have_block_closure_ = params.value()[1] != 0;
  index->block_of_ = storage::FlatVec<uint32_t>::FromView(block_of.value());
  index->extents_ = std::move(extents).value();
  index->summary_ = std::move(summary).value();
  const size_t num_blocks = index->extents_.size();
  if (index->block_of_.size() != g.NumNodes() ||
      index->summary_.NumNodes() != num_blocks) {
    return InvalidArgumentError("summary segment: array size mismatch");
  }

  // Range checks: every value a query or Validate uses as an index must be
  // in bounds, even when segment checksums were not verified. (Read through
  // a const view: the mutable accessors are for owned arrays only.)
  const SummaryIndex& loaded = *index;
  for (NodeId v = 0; v < loaded.block_of_.size(); ++v) {
    if (loaded.block_of_[v] >= num_blocks) {
      return InvalidArgumentError(
          "summary segment: node " + std::to_string(v) + " maps to block " +
          std::to_string(loaded.block_of_[v]) + ", only " +
          std::to_string(num_blocks) + " exist");
    }
  }
  for (uint32_t b = 0; b < num_blocks; ++b) {
    for (const NodeId v : loaded.extents_[b]) {
      if (v >= g.NumNodes()) {
        return InvalidArgumentError(
            "summary segment: extent of block " + std::to_string(b) +
            " lists node " + std::to_string(v) + ", graph has " +
            std::to_string(g.NumNodes()) + " nodes");
      }
    }
    for (const auto arcs :
         {loaded.summary_.OutArcs(b), loaded.summary_.InArcs(b)}) {
      for (const graph::Digraph::Arc& arc : arcs) {
        if (arc.target >= num_blocks) {
          return InvalidArgumentError(
              "summary segment: quotient arc of block " + std::to_string(b) +
              " targets block " + std::to_string(arc.target) + ", only " +
              std::to_string(num_blocks) + " exist");
        }
      }
    }
  }

  auto forward = LoadBitRows(view, kFwdTagsOffsets, kFwdTagsFlat, num_blocks,
                             index->tag_words_, "forward-tag table");
  if (!forward.ok()) return forward.status();
  index->forward_tags_ = std::move(forward).value();
  if (index->HasBackwardTags()) {
    auto backward = LoadBitRows(view, kBwdTagsOffsets, kBwdTagsFlat,
                                num_blocks, index->tag_words_,
                                "backward-tag table");
    if (!backward.ok()) return backward.status();
    index->backward_tags_ = std::move(backward).value();
  }
  if (index->have_block_closure_) {
    auto closure = LoadBitRows(view, kBlockClosureOffsets, kBlockClosureFlat,
                               num_blocks, (num_blocks + 63) / 64,
                               "block closure");
    if (!closure.ok()) return closure.status();
    index->block_closure_ = std::move(closure).value();
  }
  return index;
}

}  // namespace flix::index
