// HOPI: a connection index based on 2-hop labels [Schenkel et al., EDBT'04;
// Cohen et al., SODA'02], augmented with distance information.
//
// Every node v carries two label sets
//   L_out(v) = {(h, dist(v, h))},   L_in(v) = {(h, dist(h, v))},
// such that for every reachable pair (u, w) some hub h lies on a shortest
// path:  dist(u, w) = min over common hubs of  dist(u, h) + dist(h, w).
//
// Construction uses pruned landmark labeling (the hub-by-hub pruned-BFS
// formulation of the 2-hop cover construction): hubs are processed in
// descending (in+1)*(out+1) degree order — a cheap approximation of the
// densest-subgraph center selection of Cohen et al. — and each hub's
// forward/backward BFS is pruned wherever already-assigned labels certify
// the tentative distance. The result is a minimal-in-practice distance-aware
// 2-hop cover that is exact on arbitrary digraphs, cycles included.
//
// For descendant *enumeration* (a//b), the per-hub inverted lists (exactly
// the label entries grouped by hub instead of by node) are kept as well;
// the reachable set of `a` is the union of the inverted lists of a's out-
// hubs, mirroring how the original HOPI evaluates such queries with a
// self-join on the label tables.
//
// BuildPartitioned() is the divide-and-conquer build of the HOPI paper:
// partition the graph, cover each partition independently, then repair the
// cover for partition-crossing paths by making every node with a crossing
// edge a global hub. The FliX "Unconnected HOPI" configuration stops after
// the per-partition step (paper Section 4.3); that variant lives in the
// flix layer, which simply builds one HopiIndex per meta document.
#ifndef FLIX_INDEX_HOPI_H_
#define FLIX_INDEX_HOPI_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "index/path_index.h"
#include "storage/flat.h"

namespace flix::index {

struct HopiOptions {
  // 0 = plain global build. >0 = divide-and-conquer with this partition
  // size bound.
  size_t partition_bound = 0;
};

class HopiIndex : public PathIndex {
 public:
  static std::unique_ptr<HopiIndex> Build(const graph::Digraph& g,
                                          const HopiOptions& options = {});

  StrategyKind kind() const override { return StrategyKind::kHopi; }

  // A (hub, distance) label entry; in the inverted lists the `hub` field
  // holds the labeled *node* id instead.
  struct LabelEntry {
    NodeId hub;
    Distance distance;
  };
  static_assert(sizeof(LabelEntry) == 8);

  Distance DistanceBetween(NodeId from, NodeId to) const override;
  // Hub-union cover: the added nodes' out-labels (in-labels, backward) OR-ed
  // into one bitset of hub ranks; Covers(x) scans x's opposite label for a
  // set bit instead of joining it with each added node's label.
  std::unique_ptr<ReachCover> NewReachCover(bool forward) const override;
  // Enumeration cursors run a k-way merge over the per-hub inverted lists
  // of `from`'s labels (each pre-sorted by distance), keyed by
  // label-distance + list-entry-distance — the first pop of a node is its
  // 2-hop distance, so results stream in exact (distance, node) order
  // without materializing the reachable set. Each list head steps over
  // entries already yielded or of the wrong tag before it enters the heap,
  // so a pull costs about one heap pop however sparse the tag.
  std::unique_ptr<NodeDistCursor> DescendantsByTagCursor(
      NodeId from, TagId tag) const override;
  std::unique_ptr<NodeDistCursor> DescendantsCursor(NodeId from) const override;
  std::unique_ptr<NodeDistCursor> AncestorsByTagCursor(
      NodeId from, TagId tag) const override;
  std::unique_ptr<NodeDistCursor> ReachableAmongCursor(
      NodeId from, std::span<const NodeId> targets) const override;
  std::unique_ptr<NodeDistCursor> AncestorsAmongCursor(
      NodeId from, std::span<const NodeId> sources) const override;
  // Bulk Among probes for point queries and bidirectional connection
  // tests: one relax over the registered probe set's filtered inverted
  // lists, then a single sort.
  std::vector<NodeDist> ReachableAmong(
      NodeId from, std::span<const NodeId> targets) const override;
  std::vector<NodeDist> AncestorsAmong(
      NodeId from, std::span<const NodeId> sources) const override;
  // Precompute inverted lists filtered to the registered sets, making the
  // per-entry L(a) probes of the PEE proportional to the filtered label
  // volume instead of the whole partition. Works in both storage modes (the
  // filtered lists are heap-derived caches, even over a mapped base).
  void RegisterLinkSources(std::span<const NodeId> sources) override;
  void RegisterEntryNodes(std::span<const NodeId> targets) override;
  size_t MemoryBytes() const override;

  // Structural invariants: rank maps are a bijection, labels are sorted by
  // hub rank with a self-entry at distance 0, every label entry appears in
  // the matching inverted list (and vice versa), inverted lists are sorted
  // by (distance, node), and sampled label distances equal BFS distances to
  // the hub node — i.e. the 2-hop cover is sound and (sampled) complete.
  // Then the base differential check.
  Status Validate(const graph::Digraph& g,
                  const ValidateOptions& options = {}) const override;

  // Persistence: flat arrays in a segment, loaded as a zero-copy view. The
  // inverted lists are persisted too — rebuilding them on load would re-copy
  // the whole label volume onto the heap and defeat the zero-copy open.
  void SaveSegment(storage::SegmentWriter& seg) const;
  static StatusOr<std::unique_ptr<HopiIndex>> LoadSegment(
      const storage::SegmentView& view);

  // Total number of (hub, distance) label entries — the classic 2-hop cover
  // size measure; |TC| / labels is the compression the paper reports.
  size_t NumLabelEntries() const;

  // Bytes of the per-node label tables alone (excluding the inverted lists
  // used for enumeration); matches what the paper stores in its database.
  size_t LabelBytes() const;

 protected:
  // One merge over the seeds' folded labels (see FoldLabels): dist(S, v) =
  // min over hubs h of (min over seeds s of dist(s, h)) + dist(h, v), so
  // the multi-source cursor costs one merge, not one per seed.
  std::unique_ptr<NodeDistCursor> NewMultiSourceCursor(
      std::span<const NodeId> seeds, TagId tag, bool wildcard,
      bool forward) const override;
  std::unique_ptr<NodeDistCursor> NewMultiSourceAmongCursor(
      std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
      bool forward) const override;

 private:
  friend struct CorruptionHook;

  HopiIndex() = default;

  void BuildGlobal(const graph::Digraph& g,
                   const std::vector<uint32_t>* hub_priority);
  void BuildInverted();

  static Distance QueryLabels(std::span<const LabelEntry> out,
                              std::span<const LabelEntry> in);

  // Opens a merge cursor over `labels[from]` against the matching inverted
  // lists; `exclude` drops one node (the query origin) from the stream.
  std::unique_ptr<NodeDistCursor> MergeCursor(
      NodeId from, TagId tag, bool wildcard, NodeId exclude,
      const storage::FlatRows<LabelEntry>& labels,
      const storage::FlatRows<LabelEntry>& inverted) const;

  // The seeds' labels folded into one label: each hub rank once, at its
  // minimum distance over the seeds, in first-seen order (the merge heap
  // needs no order). One pass over a dense per-thread rank array.
  std::vector<LabelEntry> FoldLabels(
      std::span<const NodeId> seeds,
      const storage::FlatRows<LabelEntry>& labels) const;

  // Bulk Among probe: relax dist(from, v) over all of from's hubs against
  // the filtered inverted lists, then sort once.
  std::vector<NodeDist> CollectAmong(
      NodeId from, const storage::FlatRows<LabelEntry>& labels,
      const storage::FlatRows<LabelEntry>& filtered_inverted) const;

  // Per-node labels, each sorted by hub id (for merge-join queries).
  storage::FlatRows<LabelEntry> out_labels_;
  storage::FlatRows<LabelEntry> in_labels_;
  // Per-hub inverted lists: inverted_in_[h] = nodes v with (h,d) in L_in(v),
  // i.e., nodes reachable *from* h; inverted_out_[h] symmetrically holds
  // nodes that can reach h. Rebuilt from the labels after construction (or
  // mapped directly from a paged segment) and kept sorted by (distance,
  // node) so enumeration cursors can merge them.
  storage::FlatRows<LabelEntry> inverted_in_;
  storage::FlatRows<LabelEntry> inverted_out_;
  storage::FlatVec<TagId> tag_;
  // Label entries store hub *ranks* (processing order), which keeps each
  // label vector sorted as it is appended to; these map rank <-> node id.
  storage::FlatVec<NodeId> rank_of_node_;
  storage::FlatVec<NodeId> node_of_rank_;

  // Registered probe sets (see RegisterLinkSources/RegisterEntryNodes) and
  // the per-hub inverted lists filtered down to them. Always heap-owned:
  // they are small derived caches, recomputed after any load.
  std::vector<NodeId> registered_sources_;
  storage::FlatRows<LabelEntry> inverted_in_sources_;
  std::vector<NodeId> registered_entries_;
  storage::FlatRows<LabelEntry> inverted_out_entries_;
};

}  // namespace flix::index

#endif  // FLIX_INDEX_HOPI_H_
