// Structure-summary index: APEX and the Index Definition Scheme family the
// paper lists among the candidate path indexing strategies (Section 2.2:
// "1-Index, A(k) Index, D(k) Index, F&B Index"). Elements are grouped into
// blocks by bisimulation over their label paths; each block stores its
// extent, and the quotient graph over the blocks is the summary. Presets:
//
//   * APEX [Chung et al., SIGMOD'02] (BuildApex, kind kApex): the 1-index,
//     backward bisimulation to the fixpoint, unoptimized for frequent
//     queries as in the paper's experiments. Stores forward tag sets and,
//     below kMaxBlocksForClosure blocks, the block-level closure.
//   * A(k) (Build, SummaryOptions::max_rounds = k): depth-bounded backward
//     refinement; F&B (BuildFb): backward *and* forward bisimulation;
//     D(k) (BuildDk, Qun et al., SIGMOD'03): per-tag refinement depth
//     derived from a workload. These kSummary presets store forward and
//     backward tag sets and no closure.
//
// Connection queries from a *specific* element (a//b with distances) walk
// the element graph, like the paper's database-backed APEX, pruned by the
// summary: a branch is cut once its block provably cannot reach
// (descendants) or be reached from (ancestors) the target tag. A pruning
// table the preset does not store means "cannot prune".
#ifndef FLIX_INDEX_SUMMARY_INDEX_H_
#define FLIX_INDEX_SUMMARY_INDEX_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "index/path_index.h"
#include "storage/flat.h"

namespace flix::index {

struct SummaryOptions {
  // Include forward bisimulation in the fixpoint (F&B when true).
  bool forward_refinement = false;
  // Global refinement bound; < 0 = refine to the fixpoint, k >= 0 gives the
  // A(k)-index.
  int max_rounds = -1;
  // Per-tag refinement depth (D(k)): node v stops splitting after
  // depth_of_tag[tag(v)] rounds. Empty = no per-node bound. Tags beyond the
  // vector's size get depth 0 (never refined past the tag partition).
  std::vector<int> depth_of_tag;
};

class SummaryIndex : public PathIndex {
 public:
  // Keeps a reference to `g`; the graph must outlive the index.
  static std::unique_ptr<SummaryIndex> Build(const graph::Digraph& g,
                                             const SummaryOptions& options = {});
  // APEX preset (kind kApex); see the file comment.
  static std::unique_ptr<SummaryIndex> BuildApex(const graph::Digraph& g);

  // F&B Index: forward+backward bisimulation fixpoint.
  static std::unique_ptr<SummaryIndex> BuildFb(const graph::Digraph& g);

  // D(k) Index: derive per-tag depths from a workload of label paths (a
  // path {a,b,c} requires 0-bisimilarity at a, 1 at b, 2 at c).
  static std::unique_ptr<SummaryIndex> BuildDk(
      const graph::Digraph& g,
      const std::vector<std::vector<TagId>>& workload_paths);

  StrategyKind kind() const override { return kind_; }

  bool IsReachable(NodeId from, NodeId to) const override;
  Distance DistanceBetween(NodeId from, NodeId to) const override;
  // Lazy summary-pruned BFS cursors (one frontier level per pull): levels
  // beyond the last one pulled are never traversed.
  std::unique_ptr<NodeDistCursor> DescendantsByTagCursor(
      NodeId from, TagId tag) const override;
  std::unique_ptr<NodeDistCursor> DescendantsCursor(NodeId from) const override;
  std::unique_ptr<NodeDistCursor> AncestorsByTagCursor(
      NodeId from, TagId tag) const override;
  // One lazy BFS watching all listed targets — far cheaper than the default
  // per-target point query (which would BFS once per target).
  std::unique_ptr<NodeDistCursor> ReachableAmongCursor(
      NodeId from, std::span<const NodeId> targets) const override;
  std::unique_ptr<NodeDistCursor> AncestorsAmongCursor(
      NodeId from, std::span<const NodeId> sources) const override;
  size_t MemoryBytes() const override;

  // Structural invariants: extents partition the node set exactly (each
  // node in precisely the extent its block id names), blocks are
  // tag-homogeneous, the summary is the exact quotient graph of the
  // partition, and every stored pruning table equals the recomputed summary
  // reachability — so pruning can never cut a real result. Then the base
  // differential check.
  Status Validate(const graph::Digraph& g,
                  const ValidateOptions& options = {}) const override;

  // Persistence: flat arrays in a segment, loaded as a zero-copy view.
  // LoadSegment rebinds to `g`, which must be the same graph the saved index
  // was built from, and range-checks every stored id against it. `kind`
  // (kApex or kSummary) names the preset the segment was saved from.
  void SaveSegment(storage::SegmentWriter& seg) const;
  static StatusOr<std::unique_ptr<SummaryIndex>> LoadSegment(
      const storage::SegmentView& view, const graph::Digraph& g,
      StrategyKind kind);

  // Summary introspection (tests, stats).
  size_t NumBlocks() const { return extents_.size(); }
  uint32_t BlockOf(NodeId v) const { return block_of_[v]; }
  std::span<const NodeId> Extent(uint32_t block) const {
    return extents_[block];
  }

 protected:
  // Multi-source BFS: all seeds start at depth 0.
  std::unique_ptr<NodeDistCursor> NewMultiSourceCursor(
      std::span<const NodeId> seeds, TagId tag, bool wildcard,
      bool forward) const override;
  std::unique_ptr<NodeDistCursor> NewMultiSourceAmongCursor(
      std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
      bool forward) const override;

 private:
  friend struct CorruptionHook;

  // The APEX preset stores the block-level closure only up to this many
  // blocks (tag-reachability pruning still applies above it).
  static constexpr size_t kMaxBlocksForClosure = 50000;

  SummaryIndex(const graph::Digraph& g, StrategyKind kind)
      : g_(g), kind_(kind) {}
  static std::unique_ptr<SummaryIndex> Make(const graph::Digraph& g,
                                            StrategyKind kind,
                                            const SummaryOptions& options);

  // Only the kSummary presets store the backward tag sets.
  bool HasBackwardTags() const { return kind_ == StrategyKind::kSummary; }

  void BuildSummary(const SummaryOptions& options);
  void BuildPruning();

  bool CanReachTag(uint32_t block, TagId tag) const;
  bool ReachedFromTag(uint32_t block, TagId tag) const;
  bool BlockCanReachBlock(uint32_t from, uint32_t to) const;

  // Point lookup: forward BFS stopping at `stop_at`, pruned by the block
  // closure when stored, else by `stop_at`'s tag.
  Distance PointSearch(NodeId from, NodeId stop_at) const;

  // Pruned BFS cursors from every source at once: the multi-source and
  // single-source cursors are the same traversal, since the pruning filters
  // (block reaches / is reached from the tag) do not depend on the source.
  std::unique_ptr<NodeDistCursor> BfsCursor(std::span<const NodeId> sources,
                                            TagId tag, bool wildcard,
                                            bool forward) const;
  std::unique_ptr<NodeDistCursor> BfsAmongCursor(
      std::span<const NodeId> sources, std::span<const NodeId> probe_set,
      bool forward) const;

  const graph::Digraph& g_;
  const StrategyKind kind_;
  storage::FlatVec<uint32_t> block_of_;
  storage::FlatRows<NodeId> extents_;
  // Quotient graph over blocks.
  graph::Digraph summary_;
  // Per block, bitsets over tag ids (words of 64 tags, including the
  // block's own tag): forward = tags reachable from the block, backward =
  // tags occurring on paths into it.
  storage::FlatRows<uint64_t> forward_tags_;
  storage::FlatRows<uint64_t> backward_tags_;
  size_t tag_words_ = 0;
  // Optional block-level reachability closure (bitset rows over blocks).
  bool have_block_closure_ = false;
  storage::FlatRows<uint64_t> block_closure_;
};

}  // namespace flix::index

#endif  // FLIX_INDEX_SUMMARY_INDEX_H_
