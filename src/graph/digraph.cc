#include "graph/digraph.h"

#include "common/bytes.h"
#include "common/dcheck.h"
#include "storage/format.h"

namespace flix::graph {
namespace {

// Array ids relative to the caller-chosen base.
constexpr uint32_t kTagsArray = 0;
constexpr uint32_t kOutOffsets = 1;
constexpr uint32_t kOutArcs = 2;
constexpr uint32_t kInOffsets = 3;
constexpr uint32_t kInArcs = 4;
constexpr uint32_t kParams = 5;  // [num_edges, num_link_edges]

}  // namespace

NodeId Digraph::AddNode(TagId tag) {
  const NodeId id = static_cast<NodeId>(tags_.size());
  tags_.push_back(tag);
  out_.OwnedRows().emplace_back();
  in_.OwnedRows().emplace_back();
  return id;
}

void Digraph::Resize(size_t num_nodes) {
  FLIX_DCHECK(num_nodes >= tags_.size(), "Digraph::Resize cannot shrink");
  tags_.MutableOwned().resize(num_nodes, kInvalidTag);
  out_.OwnedRows().resize(num_nodes);
  in_.OwnedRows().resize(num_nodes);
}

void Digraph::AddEdge(NodeId from, NodeId to, EdgeKind kind) {
  FLIX_DCHECK(from < NumNodes() && to < NumNodes(),
              "Digraph::AddEdge endpoint out of range");
  out_.Row(from).push_back({to, kind});
  in_.Row(to).push_back({from, kind});
  ++num_edges_;
  if (kind == EdgeKind::kLink) ++num_link_edges_;
}

std::vector<Edge> Digraph::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges_);
  for (NodeId n = 0; n < NumNodes(); ++n) {
    for (const Arc& arc : OutArcs(n)) {
      edges.push_back({n, arc.target, arc.kind});
    }
  }
  return edges;
}

std::vector<NodeId> Digraph::NodesWithTag(TagId tag) const {
  std::vector<NodeId> result;
  for (NodeId n = 0; n < NumNodes(); ++n) {
    if (tags_[n] == tag) result.push_back(n);
  }
  return result;
}

Digraph Digraph::InducedSubgraph(const std::vector<NodeId>& nodes,
                                 std::vector<NodeId>* local_of) const {
  std::vector<NodeId> local(NumNodes(), kInvalidNode);
  Digraph sub(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    local[nodes[i]] = static_cast<NodeId>(i);
    sub.SetTag(static_cast<NodeId>(i), tags_[nodes[i]]);
  }
  for (const NodeId global : nodes) {
    for (const Arc& arc : OutArcs(global)) {
      if (local[arc.target] != kInvalidNode) {
        sub.AddEdge(local[global], local[arc.target], arc.kind);
      }
    }
  }
  if (local_of != nullptr) *local_of = std::move(local);
  return sub;
}

void Digraph::AppendArrays(storage::SegmentWriter& seg,
                           uint32_t base_id) const {
  seg.Add(base_id + kTagsArray, tags_.span());
  std::vector<uint64_t> offsets;
  std::vector<Arc> flat;
  out_.Flatten(offsets, flat);
  seg.Add(base_id + kOutOffsets, offsets);
  seg.Add(base_id + kOutArcs, flat);
  in_.Flatten(offsets, flat);
  seg.Add(base_id + kInOffsets, offsets);
  seg.Add(base_id + kInArcs, flat);
  const std::vector<uint64_t> params = {num_edges_, num_link_edges_};
  seg.Add(base_id + kParams, params);
}

StatusOr<Digraph> Digraph::FromSegment(const storage::SegmentView& view,
                                       uint32_t base_id) {
  auto tags = view.GetArray<TagId>(base_id + kTagsArray);
  if (!tags.ok()) return tags.status();
  auto out_off = view.GetArray<uint64_t>(base_id + kOutOffsets);
  if (!out_off.ok()) return out_off.status();
  auto out_arcs = view.GetArray<Arc>(base_id + kOutArcs);
  if (!out_arcs.ok()) return out_arcs.status();
  auto in_off = view.GetArray<uint64_t>(base_id + kInOffsets);
  if (!in_off.ok()) return in_off.status();
  auto in_arcs = view.GetArray<Arc>(base_id + kInArcs);
  if (!in_arcs.ok()) return in_arcs.status();
  auto params = view.GetArray<uint64_t>(base_id + kParams);
  if (!params.ok()) return params.status();
  if (params.value().size() != 2) {
    return InvalidArgumentError("digraph segment: bad parameter array");
  }

  const size_t n = tags.value().size();
  if (out_off.value().size() != n + 1 || in_off.value().size() != n + 1) {
    return InvalidArgumentError("digraph segment: offset count mismatch");
  }
  auto out = storage::FlatRows<Arc>::FromView(out_off.value(),
                                              out_arcs.value());
  if (!out.ok()) return out.status();
  auto in = storage::FlatRows<Arc>::FromView(in_off.value(), in_arcs.value());
  if (!in.ok()) return in.status();

  Digraph g;
  g.tags_ = storage::FlatVec<TagId>::FromView(tags.value());
  g.out_ = std::move(out).value();
  g.in_ = std::move(in).value();
  g.num_edges_ = params.value()[0];
  g.num_link_edges_ = params.value()[1];
  return g;
}

size_t Digraph::MemoryBytes() const {
  return tags_.MemoryBytes() + out_.MemoryBytes() + in_.MemoryBytes();
}

}  // namespace flix::graph
