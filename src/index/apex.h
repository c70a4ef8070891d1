// APEX-style adaptive path index [Chung et al., SIGMOD'02].
//
// The core of APEX is a structure summary: elements are grouped into blocks
// by (backward) bisimulation over their incoming label paths — the classic
// 1-index construction — and each block stores its extent (member elements).
// Label-path queries are answered on the summary, then expanded via extents.
// APEX's workload adaptation refines this summary for frequent paths; the
// paper's experiments use the unoptimized variant ("without optimizations
// for frequent queries"), which is what we build. A `max_refinement_rounds`
// knob additionally yields A(k)-index behaviour (k-bisimulation) when finite.
//
// Connection queries from a *specific* element (a//b with distances) cannot
// be answered from the summary alone; like the paper's database-backed APEX
// implementation, we traverse the element graph, but prune the traversal
// with the summary: a branch is abandoned as soon as its block provably
// cannot reach any block containing the target tag. The summary also makes
// IsReachable fail fast via block-level reachability.
#ifndef FLIX_INDEX_APEX_H_
#define FLIX_INDEX_APEX_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "index/path_index.h"
#include "storage/flat.h"

namespace flix::index {

struct ApexOptions {
  // Number of refinement rounds; < 0 means refine to the full bisimulation
  // fixpoint (1-index), k >= 0 gives the A(k)-index.
  int max_refinement_rounds = -1;
  // Block-level transitive closure is skipped above this summary size (the
  // tag-reachability pruning still applies).
  size_t max_blocks_for_closure = 50000;
};

class ApexIndex : public PathIndex {
 public:
  // Keeps a reference to `g`; the graph must outlive the index.
  static std::unique_ptr<ApexIndex> Build(const graph::Digraph& g,
                                          const ApexOptions& options = {});

  StrategyKind kind() const override { return StrategyKind::kApex; }

  bool IsReachable(NodeId from, NodeId to) const override;
  Distance DistanceBetween(NodeId from, NodeId to) const override;
  // Lazy summary-pruned BFS (one frontier level per pull): branches whose
  // block provably cannot reach the target tag are cut, and levels beyond
  // the last one pulled are never traversed.
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
  // partition, and the pruning tables (reachable_tags_, block_closure_)
  // equal the recomputed summary reachability — so pruning can never cut a
  // real result. Then the base differential check.
  Status Validate(const graph::Digraph& g,
                  const ValidateOptions& options = {}) const override;

  // Persistence: flat arrays in a segment, loaded as a zero-copy view.
  // LoadSegment rebinds to `g`, which must be the same graph the saved index
  // was built from.
  void SaveSegment(storage::SegmentWriter& seg) const;
  static StatusOr<std::unique_ptr<ApexIndex>> LoadSegment(
      const storage::SegmentView& view, const graph::Digraph& g);

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

  explicit ApexIndex(const graph::Digraph& g) : g_(g) {}

  void BuildSummary(const ApexOptions& options);
  void BuildReachability(const ApexOptions& options);

  bool BlockCanReachTag(uint32_t block, TagId tag) const;
  bool BlockCanReachBlock(uint32_t from, uint32_t to) const;

  // Summary-pruned point lookup: BFS from `from` that prunes branches
  // whose block cannot reach `stop_at`'s block, stopping at `stop_at`.
  Distance PointSearch(NodeId from, NodeId stop_at) const;

  // Summary-pruned BFS cursors from every source at once: the multi-source
  // and single-source cursors are the same traversal, since the pruning
  // filter (block reaches the tag) does not depend on the source.
  std::unique_ptr<NodeDistCursor> BfsCursor(std::span<const NodeId> sources,
                                            TagId tag, bool wildcard,
                                            bool forward) const;
  std::unique_ptr<NodeDistCursor> BfsAmongCursor(
      std::span<const NodeId> sources, std::span<const NodeId> probe_set,
      bool forward) const;

  const graph::Digraph& g_;
  storage::FlatVec<uint32_t> block_of_;
  storage::FlatRows<NodeId> extents_;
  // Summary graph over blocks.
  graph::Digraph summary_;
  // Per block: bitset over tag ids reachable via summary edges (including
  // the block's own tag), for traversal pruning. Words of 64 tags.
  storage::FlatRows<uint64_t> reachable_tags_;
  size_t tag_words_ = 0;
  // Optional block-level reachability closure (bitset rows over blocks).
  bool have_block_closure_ = false;
  storage::FlatRows<uint64_t> block_closure_;
};

}  // namespace flix::index

#endif  // FLIX_INDEX_APEX_H_
