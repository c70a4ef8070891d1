// Materialized transitive closure with distances — the brute-force baseline
// the HOPI paper compares sizes against ("HOPI is usually an order of
// magnitude more compact than the transitive closure").
//
// Stores, per node, the full list of (descendant, distance) pairs sorted by
// (distance, node). Queries are trivially fast; the price is the quadratic
// worst-case size, which is exactly the point of the comparison in Table 1.
#ifndef FLIX_INDEX_TRANSITIVE_CLOSURE_H_
#define FLIX_INDEX_TRANSITIVE_CLOSURE_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "index/path_index.h"
#include "storage/flat.h"

namespace flix::index {

struct TcOptions {
  // Build fails once the closure exceeds this many pairs (guards against
  // accidentally materializing a quadratic monster).
  size_t max_pairs = 500'000'000;
};

class TransitiveClosureIndex : public PathIndex {
 public:
  static StatusOr<std::unique_ptr<TransitiveClosureIndex>> Build(
      const graph::Digraph& g, const TcOptions& options = {});

  StrategyKind kind() const override {
    return StrategyKind::kTransitiveClosure;
  }

  Distance DistanceBetween(NodeId from, NodeId to) const override;
  // All enumeration cursors are pointer walks over the pre-sorted closure
  // rows — the ideal case for the lazy pipeline: zero setup cost, and a
  // top-k pull touches exactly k row entries.
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

  // Structural invariants: every closure row equals the node's exact BFS
  // level sets (sampled rows by default, every row in deep mode), rows are
  // ascending by (distance, node), and reverse_ is the exact transpose of
  // closure_. Then the base differential check.
  Status Validate(const graph::Digraph& g,
                  const ValidateOptions& options = {}) const override;

  // Persistence: CSR rows in a segment, loaded as a zero-copy view.
  void SaveSegment(storage::SegmentWriter& seg) const;
  static StatusOr<std::unique_ptr<TransitiveClosureIndex>> LoadSegment(
      const storage::SegmentView& view);

  // Number of (ancestor, descendant) pairs in the closure (self excluded).
  size_t NumPairs() const;

 private:
  friend struct CorruptionHook;

  TransitiveClosureIndex() = default;

  // closure_[v]: proper descendants of v with distances, ascending by
  // (distance, node). reverse_[v]: proper ancestors likewise.
  storage::FlatRows<NodeDist> closure_;
  storage::FlatRows<NodeDist> reverse_;
  storage::FlatVec<TagId> tag_;
};

// Counts the closure without materializing it: number of reachable proper
// pairs. Used by the Table 1 bench to report |TC| even when storing it
// would be wasteful.
size_t CountClosurePairs(const graph::Digraph& g);

}  // namespace flix::index

#endif  // FLIX_INDEX_TRANSITIVE_CLOSURE_H_
