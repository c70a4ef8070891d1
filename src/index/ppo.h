// Pre-/postorder index (PPO) after Grust [10, 11].
//
// Builds (pre, post, depth, parent) numbers by a depth-first traversal of a
// forest. Reachability is the classic window test
//   pre(x) < pre(y) && post(x) > post(y),
// the distance of an ancestor-descendant pair is the depth difference, and
// descendant enumeration is a contiguous scan of the preorder sequence
// (each subtree is the preorder interval (pre(x), pre(x) + size(x)]).
//
// PPO requires the graph to be a forest; Build fails otherwise. The Maximal
// PPO configuration of FliX (Section 4.3) arranges meta documents so this
// holds, keeping removed link edges outside the index.
#ifndef FLIX_INDEX_PPO_H_
#define FLIX_INDEX_PPO_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "index/path_index.h"
#include "storage/flat.h"

namespace flix::index {

class PpoIndex : public PathIndex {
 public:
  // Fails with kFailedPrecondition if `g` is not a forest.
  static StatusOr<std::unique_ptr<PpoIndex>> Build(const graph::Digraph& g);

  StrategyKind kind() const override { return StrategyKind::kPpo; }

  bool IsReachable(NodeId from, NodeId to) const override;
  Distance DistanceBetween(NodeId from, NodeId to) const override;
  // Interval cover: one binary search over the outermost added subtree
  // intervals (forward) or over the added preorder ranks (backward),
  // instead of one window test per added node.
  std::unique_ptr<ReachCover> NewReachCover(bool forward) const override;
  // Interval-scan cursor: buckets the subtree's preorder interval by depth
  // on the first pull, then emits depth level by depth level, sorting each
  // level only when it is reached — top-k pulls skip both the global sort
  // and the deeper levels' sorts.
  std::unique_ptr<NodeDistCursor> DescendantsByTagCursor(
      NodeId from, TagId tag) const override;
  std::unique_ptr<NodeDistCursor> DescendantsCursor(NodeId from) const override;
  // Parent-chain walk — naturally lazy and already ascending by distance.
  std::unique_ptr<NodeDistCursor> AncestorsByTagCursor(
      NodeId from, TagId tag) const override;
  // Interval containment test per target (materialized; target lists are
  // small link-source sets).
  std::unique_ptr<NodeDistCursor> ReachableAmongCursor(
      NodeId from, std::span<const NodeId> targets) const override;
  std::vector<NodeDist> ReachableAmong(
      NodeId from, std::span<const NodeId> targets) const override;
  size_t MemoryBytes() const override;

  // Structural invariants: pre is a permutation with order_ as its inverse,
  // every graph edge satisfies the interval window (child subtree nested in
  // the parent's, depth +1, post descending), parents match the graph, and
  // subtree sizes telescope. Then the base differential check.
  Status Validate(const graph::Digraph& g,
                  const ValidateOptions& options = {}) const override;

  // Persistence: flat arrays in a segment, loaded as a zero-copy view.
  void SaveSegment(storage::SegmentWriter& seg) const;
  static StatusOr<std::unique_ptr<PpoIndex>> LoadSegment(
      const storage::SegmentView& view);

  // Accessors used by tests.
  uint32_t pre(NodeId n) const { return pre_[n]; }
  uint32_t post(NodeId n) const { return post_[n]; }
  uint32_t depth(NodeId n) const { return depth_[n]; }
  uint32_t subtree_size(NodeId n) const { return subtree_size_[n]; }

 protected:
  // Forward: one preorder scan over the seeds' subtree intervals with a
  // stack of enclosing seeds (the pre/post containment of XISS/R), exact
  // for nested seeds; the among probe is one binary search per probe over
  // the seeds in preorder. Backward (ancestors queries only) keeps the
  // base union of parent-chain walks.
  std::unique_ptr<NodeDistCursor> NewMultiSourceCursor(
      std::span<const NodeId> seeds, TagId tag, bool wildcard,
      bool forward) const override;
  std::unique_ptr<NodeDistCursor> NewMultiSourceAmongCursor(
      std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
      bool forward) const override;

 private:
  friend struct CorruptionHook;

  PpoIndex() = default;

  // Subtree scan cursor over `seeds` (distinct, sorted by preorder rank).
  std::unique_ptr<NodeDistCursor> SubtreeCursor(std::span<const NodeId> seeds,
                                                TagId tag,
                                                bool wildcard) const;

  storage::FlatVec<uint32_t> pre_;
  storage::FlatVec<uint32_t> post_;
  storage::FlatVec<uint32_t> depth_;
  storage::FlatVec<NodeId> parent_;
  storage::FlatVec<uint32_t> subtree_size_;
  // order_[pre(n)] == n: nodes in preorder, for subtree interval scans.
  storage::FlatVec<NodeId> order_;
  storage::FlatVec<TagId> tag_;
};

}  // namespace flix::index

#endif  // FLIX_INDEX_PPO_H_
