#include "graph/traversal.h"

#include <algorithm>
#include <deque>
#include <span>
#include <tuple>

namespace flix::graph {
namespace {

std::span<const Digraph::Arc> Arcs(const Digraph& g, NodeId n,
                                   Direction dir) {
  return dir == Direction::kForward ? g.OutArcs(n) : g.InArcs(n);
}

}  // namespace

std::vector<Distance> BfsDistances(const Digraph& g, NodeId source,
                                   Direction dir, Distance max_depth) {
  std::vector<Distance> dist(g.NumNodes(), kUnreachable);
  dist[source] = 0;
  std::deque<NodeId> queue = {source};
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (max_depth >= 0 && dist[u] >= max_depth) continue;
    for (const Digraph::Arc& arc : Arcs(g, u, dir)) {
      if (dist[arc.target] == kUnreachable) {
        dist[arc.target] = dist[u] + 1;
        queue.push_back(arc.target);
      }
    }
  }
  return dist;
}

Distance BfsDistance(const Digraph& g, NodeId source, NodeId target,
                     Direction dir, Distance max_depth) {
  if (source == target) return 0;
  std::vector<Distance> dist(g.NumNodes(), kUnreachable);
  dist[source] = 0;
  std::deque<NodeId> queue = {source};
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (max_depth >= 0 && dist[u] >= max_depth) continue;
    for (const Digraph::Arc& arc : Arcs(g, u, dir)) {
      if (dist[arc.target] == kUnreachable) {
        dist[arc.target] = dist[u] + 1;
        if (arc.target == target) return dist[arc.target];
        queue.push_back(arc.target);
      }
    }
  }
  return kUnreachable;
}

BfsFrontier::BfsFrontier(const Digraph& g, std::span<const NodeId> sources,
                         Direction dir, ExpandFilter filter)
    : g_(g), dir_(dir), filter_(std::move(filter)) {
  visited_.assign(g.NumNodes(), 0);
  for (const NodeId source : sources) {
    if (visited_[source]) continue;
    visited_[source] = 1;
    next_.push_back(source);
  }
  std::sort(next_.begin(), next_.end());
}

const std::vector<NodeId>& BfsFrontier::NextLevel() {
  current_ = std::move(next_);
  next_.clear();
  if (current_.empty()) {
    done_ = true;
    return current_;
  }
  ++depth_;
  for (const NodeId u : current_) {
    for (const Digraph::Arc& arc : Arcs(g_, u, dir_)) {
      const NodeId w = arc.target;
      if (visited_[w]) continue;
      visited_[w] = 1;
      if (filter_ && !filter_(w)) continue;  // pruned: not reported/expanded
      next_.push_back(w);
    }
  }
  // Levels come out sorted so cursor consumers get the canonical
  // (distance, node) order without re-sorting.
  std::sort(next_.begin(), next_.end());
  if (next_.empty()) done_ = true;
  return current_;
}

std::vector<NodeDist> ReachabilityOracle::Collect(NodeId from, TagId tag,
                                                  Direction dir,
                                                  bool wildcard) const {
  const std::vector<flix::Distance> dist = BfsDistances(g_, from, dir);
  std::vector<NodeDist> result;
  for (NodeId n = 0; n < g_.NumNodes(); ++n) {
    if (n == from || dist[n] == kUnreachable) continue;
    if (wildcard || g_.Tag(n) == tag) result.push_back({n, dist[n]});
  }
  std::sort(result.begin(), result.end(),
            [](const NodeDist& a, const NodeDist& b) {
              return std::tie(a.distance, a.node) < std::tie(b.distance, b.node);
            });
  return result;
}

std::vector<NodeDist> ReachabilityOracle::DescendantsByTag(NodeId from,
                                                           TagId tag) const {
  return Collect(from, tag, Direction::kForward, /*wildcard=*/false);
}

std::vector<NodeDist> ReachabilityOracle::Descendants(NodeId from) const {
  return Collect(from, kInvalidTag, Direction::kForward, /*wildcard=*/true);
}

std::vector<NodeDist> ReachabilityOracle::AncestorsByTag(NodeId from,
                                                         TagId tag) const {
  return Collect(from, tag, Direction::kBackward, /*wildcard=*/false);
}

}  // namespace flix::graph
