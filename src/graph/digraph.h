// Directed graph with tagged nodes — the "XML data graph" G_X of the paper
// (Section 2.1): nodes are XML elements, edges are parent-child relations and
// link traversals.
#ifndef FLIX_GRAPH_DIGRAPH_H_
#define FLIX_GRAPH_DIGRAPH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/flat.h"
#include "storage/segment.h"

namespace flix::graph {

// Whether an edge comes from the document tree or from a link (idref/XLink).
// The PEE and the Meta Document Builder treat both as distance-1 edges, but
// configurations like Maximal PPO need to know which edges are removable
// links.
enum class EdgeKind : uint8_t {
  kTree = 0,
  kLink = 1,
};

struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  EdgeKind kind = EdgeKind::kTree;

  friend bool operator==(const Edge&, const Edge&) = default;
};

// Adjacency-list digraph with two storage modes: heap-owned (mutable — the
// build path) or a zero-copy view into a mapped paged-index segment (see
// storage/). Nodes carry a TagId label; edges carry an EdgeKind. Both out-
// and in-adjacency are maintained so that ancestor queries and backward BFS
// are as cheap as forward ones.
class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(size_t num_nodes) { Resize(num_nodes); }

  // Appends a node with the given tag; returns its id.
  NodeId AddNode(TagId tag);

  // Grows the graph to `num_nodes` nodes (new nodes get kInvalidTag).
  void Resize(size_t num_nodes);

  // Adds a directed edge. Both endpoints must exist. Parallel edges are
  // allowed at this layer; deduplication, where needed, is up to callers.
  void AddEdge(NodeId from, NodeId to, EdgeKind kind = EdgeKind::kTree);

  size_t NumNodes() const { return tags_.size(); }
  size_t NumEdges() const { return num_edges_; }
  size_t NumLinkEdges() const { return num_link_edges_; }

  TagId Tag(NodeId n) const { return tags_[n]; }
  void SetTag(NodeId n, TagId tag) { tags_[n] = tag; }

  // One adjacency entry. The explicit (always-zero) padding makes the
  // in-memory bytes deterministic, so mapped segments checksum reproducibly.
  struct Arc {
    NodeId target;
    EdgeKind kind;
    uint8_t pad_[3] = {0, 0, 0};

    friend bool operator==(const Arc& a, const Arc& b) {
      return a.target == b.target && a.kind == b.kind;
    }
  };
  static_assert(sizeof(Arc) == 8);

  std::span<const Arc> OutArcs(NodeId n) const { return out_[n]; }
  std::span<const Arc> InArcs(NodeId n) const { return in_[n]; }

  size_t OutDegree(NodeId n) const { return out_[n].size(); }
  size_t InDegree(NodeId n) const { return in_[n].size(); }

  // All edges, in insertion order.
  std::vector<Edge> Edges() const;

  // Nodes with the given tag.
  std::vector<NodeId> NodesWithTag(TagId tag) const;

  // Extracts the node-induced subgraph over `nodes`. `nodes[i]` becomes local
  // node i. If `local_of` is non-null it receives a map global -> local id
  // (kInvalidNode for nodes outside the subgraph); it must already have
  // NumNodes() entries.
  Digraph InducedSubgraph(const std::vector<NodeId>& nodes,
                          std::vector<NodeId>* local_of = nullptr) const;

  // True when the adjacency borrows a mapped segment (zero-copy load)
  // instead of owning heap storage.
  bool is_view() const { return tags_.is_view(); }

  // Approximate heap footprint, for index size accounting.
  size_t MemoryBytes() const;

  // Persistence: appends this graph's arrays to a segment under ids
  // base_id+0 .. base_id+5, and reconstructs a zero-copy view from them.
  void AppendArrays(storage::SegmentWriter& seg, uint32_t base_id) const;
  static StatusOr<Digraph> FromSegment(const storage::SegmentView& view,
                                       uint32_t base_id);

 private:
  storage::FlatVec<TagId> tags_;
  storage::FlatRows<Arc> out_;
  storage::FlatRows<Arc> in_;
  size_t num_edges_ = 0;
  size_t num_link_edges_ = 0;
};

}  // namespace flix::graph

#endif  // FLIX_GRAPH_DIGRAPH_H_
