// Breadth-first traversal primitives and the exact reachability/distance
// oracle used as ground truth in tests and for error-rate measurement
// (the paper reports the fraction of results returned out of order).
#ifndef FLIX_GRAPH_TRAVERSAL_H_
#define FLIX_GRAPH_TRAVERSAL_H_

#include <functional>
#include <span>
#include <vector>

#include "common/types.h"
#include "graph/digraph.h"

namespace flix::graph {

// Direction of traversal: kForward follows out-edges (descendants),
// kBackward follows in-edges (ancestors).
enum class Direction {
  kForward,
  kBackward,
};

// Single-source BFS distances over unit-weight edges. Returns a vector of
// size g.NumNodes() with kUnreachable for nodes not reached. `max_depth < 0`
// means unbounded.
std::vector<Distance> BfsDistances(const Digraph& g, NodeId source,
                                   Direction dir = Direction::kForward,
                                   Distance max_depth = -1);

// Distance from `source` to `target` (kUnreachable if none). Early-exits as
// soon as the target is dequeued.
Distance BfsDistance(const Digraph& g, NodeId source, NodeId target,
                     Direction dir = Direction::kForward,
                     Distance max_depth = -1);

// Resumable breadth-first frontier generator: yields the node set of one
// depth level per NextLevel() call, so a caller interested only in the
// nearest matches never pays for traversing the rest of the graph. Backs the
// lazy descendant/ancestor cursors of the traversal-based path indexes
// (APEX, structure summaries).
//
// A frontier may start from several sources at once (the multi-source
// cursors of the PEE's entry batches): they all sit at depth 0, so each
// node's depth is its distance from the nearest source.
//
// An optional expand filter implements summary pruning: a node for which the
// filter returns false is neither reported nor expanded (the sources are
// exempt). Keeps a reference to `g`; the graph must outlive the generator.
class BfsFrontier {
 public:
  using ExpandFilter = std::function<bool(NodeId)>;

  // `sources` may hold duplicates; it is copied.
  BfsFrontier(const Digraph& g, std::span<const NodeId> sources,
              Direction dir = Direction::kForward, ExpandFilter filter = {});

  // Advances to the next depth level and returns its nodes in ascending id
  // order; empty once the traversal is exhausted. The first call returns
  // the distinct sources at depth 0. The reference is valid until the next
  // call.
  const std::vector<NodeId>& NextLevel();

  // Depth of the level most recently returned (-1 before the first call).
  Distance depth() const { return depth_; }

  // True once NextLevel() can only return empty levels.
  bool Done() const { return done_; }

  // Nodes queued for the next level — a lower bound on the remaining
  // traversal size, used by cursors to estimate saved work.
  size_t PendingSize() const { return next_.size(); }

 private:
  const Digraph& g_;
  Direction dir_;
  ExpandFilter filter_;
  std::vector<NodeId> current_;
  std::vector<NodeId> next_;
  std::vector<uint8_t> visited_;
  Distance depth_ = -1;
  bool done_ = false;
};

// A result element paired with its distance from the query start node.
struct NodeDist {
  NodeId node = kInvalidNode;
  Distance distance = kUnreachable;

  friend bool operator==(const NodeDist&, const NodeDist&) = default;
};

// Exact ground-truth oracle: answers reachability / distance / tag-filtered
// descendant queries by plain BFS over the element graph. Deliberately
// index-free; tests compare every index structure against it.
class ReachabilityOracle {
 public:
  explicit ReachabilityOracle(const Digraph& g) : g_(g) {}

  bool IsReachable(NodeId from, NodeId to) const {
    return Distance(from, to) != kUnreachable;
  }

  flix::Distance Distance(NodeId from, NodeId to) const {
    return BfsDistance(g_, from, to);
  }

  // All proper descendants of `from` with tag `tag`, sorted by ascending
  // distance (ties by node id). `from` itself is excluded even if it has the
  // tag, matching the descendants-or-self axis applied to a *different*
  // result element; the paper's a//b queries look for other elements.
  std::vector<NodeDist> DescendantsByTag(NodeId from, TagId tag) const;

  // All proper descendants (wildcard a//*), sorted ascending by distance.
  std::vector<NodeDist> Descendants(NodeId from) const;

  // All proper ancestors with tag `tag`, ascending by distance.
  std::vector<NodeDist> AncestorsByTag(NodeId from, TagId tag) const;

 private:
  std::vector<NodeDist> Collect(NodeId from, TagId tag, Direction dir,
                                bool wildcard) const;

  const Digraph& g_;
};

}  // namespace flix::graph

#endif  // FLIX_GRAPH_TRAVERSAL_H_
