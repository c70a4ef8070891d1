// Generalized structure-summary index covering the Index Definition Scheme
// family the paper lists among the candidate path indexing strategies
// (Section 2.2: "1-Index, A(k) Index, D(k) Index, F&B Index"):
//
//   * 1-Index / A(k): backward bisimulation, optionally depth-bounded —
//     that variant lives in ApexIndex (this class generalizes the same
//     refinement machinery).
//   * F&B Index: the fixpoint of alternating backward *and* forward
//     bisimulation. The summary is stable under both edge directions, so
//     both descendant and ancestor traversals can be pruned by it.
//   * D(k) Index: *locally* adaptive refinement depth — nodes whose tags
//     the query workload exercises with long incoming paths get refined
//     deeper than untouched ones (Qun et al., SIGMOD'03). We derive the
//     per-tag depth requirement from a workload of label paths: a tag that
//     appears at position i of some workload path needs i-bisimilarity.
//
// Query evaluation mirrors ApexIndex: summary-pruned BFS over the element
// graph with exact distances; the F&B variant additionally prunes ancestor
// traversals with the backward (reachable-from) tag sets.
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
  // Global refinement bound; < 0 = refine to the fixpoint.
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

  // F&B Index: forward+backward bisimulation fixpoint.
  static std::unique_ptr<SummaryIndex> BuildFb(const graph::Digraph& g);

  // D(k) Index: derive per-tag depths from a workload of label paths (a
  // path {a,b,c} requires 0-bisimilarity at a, 1 at b, 2 at c).
  static std::unique_ptr<SummaryIndex> BuildDk(
      const graph::Digraph& g,
      const std::vector<std::vector<TagId>>& workload_paths);

  StrategyKind kind() const override { return StrategyKind::kSummary; }

  bool IsReachable(NodeId from, NodeId to) const override;
  Distance DistanceBetween(NodeId from, NodeId to) const override;
  // Lazy summary-pruned BFS cursors (one frontier level per pull); the
  // ancestors cursor prunes with the backward (reached-from) tag sets.
  std::unique_ptr<NodeDistCursor> DescendantsByTagCursor(
      NodeId from, TagId tag) const override;
  std::unique_ptr<NodeDistCursor> DescendantsCursor(NodeId from) const override;
  std::unique_ptr<NodeDistCursor> AncestorsByTagCursor(
      NodeId from, TagId tag) const override;
  std::unique_ptr<NodeDistCursor> ReachableAmongCursor(
      NodeId from, std::span<const NodeId> targets) const override;
  std::unique_ptr<NodeDistCursor> AncestorsAmongCursor(
      NodeId from, std::span<const NodeId> sources) const override;
  size_t MemoryBytes() const override;

  // Structural invariants mirroring ApexIndex::Validate: exact extent
  // partition, tag-homogeneous blocks, summary = exact quotient graph, and
  // both pruning tables (forward_tags_, backward_tags_) equal to the
  // recomputed summary reachability. Then the base differential check.
  Status Validate(const graph::Digraph& g,
                  const ValidateOptions& options = {}) const override;

  // Persistence: flat arrays in a segment, loaded as a zero-copy view.
  // LoadSegment rebinds to `g`, which must be the same graph the saved index
  // was built from.
  void SaveSegment(storage::SegmentWriter& seg) const;
  static StatusOr<std::unique_ptr<SummaryIndex>> LoadSegment(
      const storage::SegmentView& view, const graph::Digraph& g);

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

  explicit SummaryIndex(const graph::Digraph& g) : g_(g) {}

  void BuildSummary(const SummaryOptions& options);
  void BuildPruning();

  bool CanReachTag(uint32_t block, TagId tag) const;
  bool ReachedFromTag(uint32_t block, TagId tag) const;

  // Point lookup: forward BFS pruned by the target's tag reachability,
  // stopping at `stop_at`.
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
  storage::FlatVec<uint32_t> block_of_;
  storage::FlatRows<NodeId> extents_;
  graph::Digraph summary_;
  // Forward pruning: tags reachable from each block; backward pruning: tags
  // occurring on paths into each block.
  storage::FlatRows<uint64_t> forward_tags_;
  storage::FlatRows<uint64_t> backward_tags_;
  size_t tag_words_ = 0;
};

}  // namespace flix::index

#endif  // FLIX_INDEX_SUMMARY_INDEX_H_
