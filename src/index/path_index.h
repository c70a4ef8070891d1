// Common interface of all path indexing strategies (PIS in the paper's
// architecture, Figure 2). A path index answers connection queries within
// one meta document: reachability, distance, and tag-filtered descendant /
// ancestor enumeration in ascending distance order.
//
// Enumeration is cursor-based: every strategy implements pull-based
// NodeDistCursor factories, and the vector-returning enumeration methods
// drain a cursor. The PEE merges cursors directly, so top-k /
// bounded-distance / cancelled queries terminate index work early instead
// of discarding fully materialized result sets.
//
// All node ids are local to the indexed graph. Lifetime contract: strategies
// may keep a pointer to the Digraph they were built from; the graph must
// outlive the index (meta documents own both, in that order), and an index
// must outlive every cursor it opened.
#ifndef FLIX_INDEX_PATH_INDEX_H_
#define FLIX_INDEX_PATH_INDEX_H_

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "graph/digraph.h"
#include "graph/traversal.h"
#include "obs/metrics.h"
#include "storage/segment.h"

namespace flix::index {

using graph::NodeDist;

// Test hook for the mutation suite of the correctness tooling (see
// src/check/corruption.h): a friend of every strategy that can seed
// controlled corruptions, so the validators can be proven to detect them.
// Never used outside tests.
struct CorruptionHook;

// Knobs for PathIndex::Validate / the check subsystem. Sampled checks use a
// deterministic RNG so a reported violation reproduces bit-for-bit.
struct ValidateOptions {
  // Deep mode additionally runs the exhaustive variants of checks that are
  // sampled by default (full pairwise distance diffs on small graphs, every
  // TC row, every source enumerated).
  bool deep = false;
  uint64_t seed = 20260806;
  // Sources sampled for enumeration diffs (cursor drain vs BFS oracle).
  size_t sample_sources = 24;
  // (from, to) pairs sampled for distance diffs against the BFS oracle.
  size_t sample_pairs = 192;
  // Deep mode runs exhaustive pairwise checks only below this node count.
  size_t exhaustive_limit = 512;
};

// Identifies a concrete strategy, used by the Indexing Strategy Selector.
enum class StrategyKind {
  kPpo,
  kHopi,
  kApex,
  kTransitiveClosure,
  // Generalized structure summary (F&B / D(k), see summary_index.h).
  kSummary,
};

std::string_view StrategyName(StrategyKind kind);

// Pull-based iterator over connection-query results, yielding NodeDist
// elements in ascending (distance, node) order. Destroying a cursor before
// exhaustion is the early-close: any work the strategy deferred (interval
// scanning, list merging, graph traversal) is simply never done.
class NodeDistCursor {
 public:
  virtual ~NodeDistCursor() = default;

  // The next element, or nullopt once exhausted (exhaustion is permanent).
  virtual std::optional<NodeDist> Next() = 0;

  // Lower bound on the distance of any element still to come; kUnreachable
  // once exhausted. Never decreases. The PEE uses it to let a cursor's head
  // compete in its priority queue without pulling eagerly.
  virtual Distance BoundHint() const = 0;

  // Best-effort estimate of the elements not yet pulled — exact for
  // materialized/row-scan cursors, a frontier-size lower bound for lazy
  // traversals. Observability only (the flix.query.cursor.saved counter);
  // never used for query semantics.
  virtual size_t RemainingHint() const { return 0; }
};

// Cursor over an already-sorted (distance, node) vector: the fallback for
// strategies whose batch plan beats any lazy scheme (e.g. per-target label
// joins over a handful of targets), and the bridge for callers that hold a
// vector but need a cursor.
class MaterializedCursor : public NodeDistCursor {
 public:
  // `items` must already be ascending by (distance, node).
  explicit MaterializedCursor(std::vector<NodeDist> items)
      : items_(std::move(items)) {}

  std::optional<NodeDist> Next() override {
    if (pos_ >= items_.size()) return std::nullopt;
    return items_[pos_++];
  }

  Distance BoundHint() const override {
    return pos_ < items_.size() ? items_[pos_].distance : kUnreachable;
  }

  size_t RemainingHint() const override { return items_.size() - pos_; }

 private:
  std::vector<NodeDist> items_;
  size_t pos_ = 0;
};

// Lazy BFS enumeration cursor over the element graph, pulling one depth
// level at a time from a graph::BfsFrontier. A level's depth is the exact
// distance, so the canonical (distance, node) order falls out for free, and
// an early-closed cursor never traverses the remaining levels — this is
// what makes top-k cheap for the traversal-backed strategies (APEX,
// structure summaries), which wrap it with their summary-pruning filter.
// Several sources make it the multi-source cursor of those strategies:
// their pruning filters do not depend on the source.
class FrontierCursor : public NodeDistCursor {
 public:
  // `wanted`, when set, restricts results to that node set (the Among
  // probes). The sources are reported (at distance 0) only when
  // `include_source` is true and they pass the filters.
  // `pull_counter`, when non-null, is incremented once per yielded result —
  // strategies pass their own flix.cursor.pulled.* counter so the shared
  // frontier machinery stays strategy-agnostic.
  FrontierCursor(const graph::Digraph& g, std::span<const NodeId> sources,
                 graph::Direction dir, graph::BfsFrontier::ExpandFilter filter,
                 TagId tag, bool wildcard, bool include_source,
                 std::optional<std::unordered_set<NodeId>> wanted = {},
                 obs::Counter* pull_counter = nullptr);

  std::optional<NodeDist> Next() override;
  Distance BoundHint() const override;
  size_t RemainingHint() const override;

 private:
  const graph::Digraph& g_;
  graph::BfsFrontier frontier_;
  const TagId tag_;
  const bool wildcard_;
  const bool include_source_;
  const std::optional<std::unordered_set<NodeId>> wanted_;
  obs::Counter* const pull_counter_;
  std::vector<NodeId> buffer_;
  size_t pos_ = 0;
  Distance depth_ = -1;
};

// Set-level reachability over a growing set of nodes: the PEE's entry-point
// dominance rule (Section 5.1) asks whether any entry point already admitted
// to a meta document reaches the next one. Forward covers answer "some added
// p reaches x"; backward covers answer "x reaches some added p". Each node
// reaches itself, so an added node is always covered. A cover reads the
// index that created it, which must outlive the cover.
class ReachCover {
 public:
  ReachCover() = default;
  virtual ~ReachCover() = default;
  ReachCover(const ReachCover&) = delete;
  ReachCover& operator=(const ReachCover&) = delete;

  virtual void Add(NodeId p) = 0;
  virtual bool Covers(NodeId x) = 0;

  // Covers(x) for a caller that already knows none of the first `since`
  // added nodes covers x (the PEE tests an entry at push time and again at
  // pop time). The pairwise cover tests only the nodes added after them; a
  // set-level cover cannot tell its nodes apart and answers Covers(x).
  virtual bool CoversSince(NodeId x, size_t since) {
    (void)since;
    return Covers(x);
  }

  // Work units spent by Covers so far — one per IsReachable call for the
  // pairwise cover, one per Covers call for an index-native one.
  size_t probes() const { return probes_; }

 protected:
  size_t probes_ = 0;
};

class PathIndex {
 public:
  virtual ~PathIndex() = default;

  virtual StrategyKind kind() const = 0;
  std::string_view name() const { return StrategyName(kind()); }

  // True iff there is a directed path from `from` to `to` (from == to counts
  // as reachable at distance 0).
  virtual bool IsReachable(NodeId from, NodeId to) const {
    return DistanceBetween(from, to) != kUnreachable;
  }

  // Length of the shortest path, or kUnreachable.
  virtual Distance DistanceBetween(NodeId from, NodeId to) const = 0;

  // An empty ReachCover over this index (see ReachCover for `forward`). The
  // default tests each added node with IsReachable; strategies with a
  // set-level test override it.
  virtual std::unique_ptr<ReachCover> NewReachCover(bool forward) const;

  // Cursor over the proper descendants of `from` with tag `tag`, ascending
  // by (distance, node id).
  virtual std::unique_ptr<NodeDistCursor> DescendantsByTagCursor(
      NodeId from, TagId tag) const = 0;

  // Cursor over the proper descendants of `from` (the a//* wildcard),
  // ascending by (distance, node id).
  virtual std::unique_ptr<NodeDistCursor> DescendantsCursor(
      NodeId from) const = 0;

  // Cursor over the proper ancestors of `from` with tag `tag`, ascending by
  // (distance, node id).
  virtual std::unique_ptr<NodeDistCursor> AncestorsByTagCursor(
      NodeId from, TagId tag) const = 0;

  // Cursor over the reachable elements among `targets` (ascending node ids,
  // duplicates allowed but wasteful) with their distances from `from`,
  // ascending by (distance, node id). This implements the paper's L(a) =
  // descendants(a) ∩ L_i lookup (Section 4.2). Includes `from` itself if
  // listed. The default materializes a per-target DistanceBetween loop;
  // strategies override with cheaper plans.
  virtual std::unique_ptr<NodeDistCursor> ReachableAmongCursor(
      NodeId from, std::span<const NodeId> targets) const;

  // Reverse variant: elements among `sources` that can reach `from`, with
  // their distances *to* `from`. Used when evaluating ancestors-or-self
  // queries across meta documents.
  virtual std::unique_ptr<NodeDistCursor> AncestorsAmongCursor(
      NodeId from, std::span<const NodeId> sources) const;

  // Set-at-a-time enumeration, for the PEE's entry batches: every node
  // reachable from some seed (forward) or reaching some seed (backward),
  // once, at its minimum distance over all seeds, ascending by (distance,
  // node id). A seed is never yielded, even when another seed reaches it.
  // `wildcard` drops the tag filter; it needs `forward`, since there is no
  // wildcard ancestors axis. Seeds may repeat. One seed opens the matching
  // single-source cursor above, unchanged; none opens an empty cursor.
  std::unique_ptr<NodeDistCursor> MultiSourceCursor(
      std::span<const NodeId> seeds, TagId tag, bool wildcard,
      bool forward) const;

  // Set-at-a-time ReachableAmongCursor (forward) / AncestorsAmongCursor
  // (backward): the elements of `probe_set` that some seed reaches (that
  // reach some seed), at their minimum distance over all seeds. Like the
  // single-source probes, and unlike MultiSourceCursor, a seed that is in
  // `probe_set` is yielded, at distance 0.
  std::unique_ptr<NodeDistCursor> MultiSourceAmongCursor(
      std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
      bool forward) const;

  // Vector-returning conveniences for persistence checks, migration diffs
  // and tests: each drains the matching cursor. The Among probes, which
  // point queries and bidirectional connection tests issue per entry
  // point, stay virtual: a strategy overrides one when it has a bulk plan
  // that beats draining its own cursor (e.g. HOPI's relax over the
  // filtered inverted lists), returning the same (distance, node)-ascending
  // set the cursor yields.
  std::vector<NodeDist> DescendantsByTag(NodeId from, TagId tag) const;
  std::vector<NodeDist> Descendants(NodeId from) const;
  std::vector<NodeDist> AncestorsByTag(NodeId from, TagId tag) const;
  virtual std::vector<NodeDist> ReachableAmong(
      NodeId from, std::span<const NodeId> targets) const;
  virtual std::vector<NodeDist> AncestorsAmong(
      NodeId from, std::span<const NodeId> sources) const;

  // Optional optimization hooks: the Index Builder registers the meta
  // document's link-source set L_i and entry-node set once, so strategies
  // can precompute filtered structures for the ReachableAmong /
  // AncestorsAmong probes the PEE issues per visited entry point. Defaults
  // are no-ops.
  virtual void RegisterLinkSources(std::span<const NodeId> sources);
  virtual void RegisterEntryNodes(std::span<const NodeId> targets);

  // Heap footprint of the index structure in bytes.
  virtual size_t MemoryBytes() const = 0;

  // Mechanically verifies the index against `g`, the graph it was built
  // from. The base implementation is a differential check: sampled
  // (from, to) distance probes and sampled enumeration diffs (cursor drain
  // vs a naive BFS oracle) — sound for any strategy.
  // Strategies override to verify their structural invariants first (PPO
  // interval nesting, HOPI label/inverted-list consistency, extent
  // partitioning, TC row = BFS closure) and then run the base diff, so a
  // violation is reported at the structure that broke, not at a distant
  // query. Returns the first violation found, with a pinpointing message.
  virtual Status Validate(const graph::Digraph& g,
                          const ValidateOptions& options = {}) const;

 protected:
  // Strategy hooks behind MultiSourceCursor / MultiSourceAmongCursor, called
  // with two or more seeds (possibly repeated). The defaults merge one
  // single-source cursor per distinct seed, keeping each node's first
  // (smallest) pop; strategies with a set-level plan override them.
  virtual std::unique_ptr<NodeDistCursor> NewMultiSourceCursor(
      std::span<const NodeId> seeds, TagId tag, bool wildcard,
      bool forward) const;
  virtual std::unique_ptr<NodeDistCursor> NewMultiSourceAmongCursor(
      std::span<const NodeId> seeds, std::span<const NodeId> probe_set,
      bool forward) const;
};

// Sorts by (distance, node) — the canonical result order.
void SortByDistance(std::vector<NodeDist>& v);

// Pulls a cursor to exhaustion into a vector (the order is whatever the
// cursor yields, i.e. ascending (distance, node) for conforming cursors).
std::vector<NodeDist> DrainCursor(NodeDistCursor& cursor);

// Persistence dispatchers. SaveIndexSegment appends the strategy's flat
// arrays to `seg` (the strategy kind itself travels in the segment-table
// entry, not the payload); LoadIndexSegment reconstructs a zero-copy view —
// the mapping behind `view` and `graph` must outlive the index.
void SaveIndexSegment(const PathIndex& index, storage::SegmentWriter& seg);
StatusOr<std::unique_ptr<PathIndex>> LoadIndexSegment(
    const storage::SegmentView& view, StrategyKind kind,
    const graph::Digraph& graph);

}  // namespace flix::index

#endif  // FLIX_INDEX_PATH_INDEX_H_
