// Path Expression Evaluator (PEE): evaluates connection queries over the
// meta documents by combining per-meta-document index probes with run-time
// link traversal (paper Section 5, Figure 4).
//
// One evaluation loop serves every mode. By default it is fully streamed:
// instead of materializing each meta document's local result block, the PEE
// holds one lazy cursor per probe (index::NodeDistCursor) and merges them
// through its priority queue. Results therefore reach the sink in globally
// ascending distance order — strictly tighter than the paper's per-block
// emission, which it reports as 8-13% out-of-order — and an early stop
// (top-k, max_distance, sink cancel) abandons the cursors before they
// traverse the rest of their ranges. The result *set* is exact in every
// mode: every reachable matching element is emitted exactly once (duplicate
// elimination via per-meta-document entry points, Section 5.1, backed by an
// emitted-set membership filter).
//
// The two options change one rule each on that same loop:
// `QueryOptions::materialize` drains each local probe into one ascending
// block and emits it whole (the paper's per-block emission), and
// `QueryOptions::exact` admits every entry point once at its minimum
// distance instead of applying the duplicate-elimination rule.
#ifndef FLIX_FLIX_PEE_H_
#define FLIX_FLIX_PEE_H_

#include <functional>
#include <memory>
#include <thread>

#include "common/types.h"
#include "flix/meta_document.h"
#include "flix/streamed_list.h"
#include "obs/profile.h"

namespace flix::core {

// Receives results as they are found; return false to stop the query (e.g.,
// top-k reached).
using ResultSink = std::function<bool(const Result&)>;

struct QueryOptions {
  // Stop once the queue's lower bound exceeds this distance (< 0: none).
  Distance max_distance = -1;
  // Stop after this many results (< 0: all).
  int64_t max_results = -1;
  // Exact mode (the "returning results exactly sorted instead of
  // approximately" improvement of Section 7): entry points are not pruned
  // by the duplicate-elimination rule; each is processed once, at its
  // minimum distance, so every result carries its true distance and the
  // stream is emitted in ascending order. Still streamed: an early stop
  // ends the walk.
  bool exact = false;
  // Per-block emission (the paper's behaviour, and flixctl --legacy):
  // drain each local probe into an ascending block and emit it whole,
  // instead of merging its cursor through the queue. Ignored in exact mode.
  bool materialize = false;
};

// Counters the PEE accumulates per query — raw material for the paper's
// self-tuning idea (Section 7: "if most queries have to follow many links,
// the choice of meta documents is no longer optimal").
struct QueryStats {
  size_t entries_processed = 0;   // priority-queue pops that did work
  // Entries dropped by duplicate elimination: link targets an admitted
  // entry already covered when they were pushed (never queued), plus
  // queued entries covered by the time they popped.
  size_t entries_dominated = 0;
  // Work of the duplicate-elimination test: one unit per IsReachable call
  // of the pairwise rule, one per lookup of an index-native ReachCover.
  size_t dominance_probes = 0;
  size_t links_followed = 0;      // cross-meta-document hops enqueued
  size_t index_probes = 0;        // local index queries issued
  size_t cursors_opened = 0;      // probe cursors created
  size_t cursor_pulls = 0;        // Next() calls across all cursors
  size_t cursor_saved = 0;        // results left unpulled by an early stop
};

// RAII handle for an asynchronous streamed query (the paper's multithreaded
// client decoupling, Section 3.1): owns both the worker thread and the
// result list. Destruction cancels the stream and joins the worker, so a
// partially consumed query can simply go out of scope — no leaked thread,
// and the streaming evaluator stops pulling its cursors at the next push.
class AsyncQuery {
 public:
  AsyncQuery(AsyncQuery&&) = default;
  AsyncQuery& operator=(AsyncQuery&&) = delete;
  AsyncQuery(const AsyncQuery&) = delete;
  AsyncQuery& operator=(const AsyncQuery&) = delete;
  ~AsyncQuery();

  // Consumer side; see StreamedList for blocking semantics.
  std::optional<Result> Next() { return list_->Next(); }
  std::optional<Result> TryNext() { return list_->TryNext(); }
  std::vector<Result> DrainAll() { return list_->DrainAll(); }

  // Aborts the query: the producer observes the cancel on its next push and
  // abandons its remaining work. Destruction does this implicitly.
  void Cancel() { list_->Cancel(); }

  // Direct access to the underlying list (progress reporting, tests).
  StreamedList& results() { return *list_; }

 private:
  friend class PathExpressionEvaluator;
  explicit AsyncQuery(size_t capacity)
      : list_(std::make_unique<StreamedList>(capacity)) {}

  std::unique_ptr<StreamedList> list_;  // stable address for the worker
  std::thread worker_;
};

class PathExpressionEvaluator {
 public:
  // Keeps a reference; `set` (with built indexes) must outlive the PEE.
  // `profiler`, when non-null (and enabled), receives per-meta-document
  // attribution of every query's work — entries, probes, cursor pulls,
  // cross-link fan-out, emitted results, whole-query latency. Queries
  // accumulate deltas in locals and flush once at query end, so the hot
  // path stays free of shared-state writes.
  explicit PathExpressionEvaluator(const MetaDocumentSet& set,
                                   obs::WorkloadProfiler* profiler = nullptr)
      : set_(set), profiler_(profiler) {}

  // a//B — descendants of `start` with tag `tag`. `stats`, when non-null,
  // receives the traversal counters (all query entry points below too).
  void FindDescendantsByTag(NodeId start, TagId tag,
                            const QueryOptions& options,
                            const ResultSink& sink,
                            QueryStats* stats = nullptr) const;

  // a//* — all descendants of `start`.
  void FindDescendants(NodeId start, const QueryOptions& options,
                       const ResultSink& sink,
                       QueryStats* stats = nullptr) const;

  // Reverse axis: ancestors of `start` with tag `tag`.
  void FindAncestorsByTag(NodeId start, TagId tag, const QueryOptions& options,
                          const ResultSink& sink,
                          QueryStats* stats = nullptr) const;

  // A//B — descendants with tag `result_tag` of *any* element with tag
  // `start_tag` (all starts enter the queue at priority 0, Section 5.2).
  void EvaluateTypeQuery(TagId start_tag, TagId result_tag,
                         const QueryOptions& options, const ResultSink& sink,
                         QueryStats* stats = nullptr) const;

  // Connection test a//b (Section 5.2). max_distance < 0: unbounded.
  bool IsConnected(NodeId a, NodeId b, Distance max_distance = -1) const;

  // Length of the true shortest path a -> b, or kUnreachable. The walk is
  // an A* over entry points when the landmark cache (flix/landmarks.h) is
  // resident — same answers as the blind Dijkstra, typically far fewer
  // queue pops — and falls back to the blind walk when it is not. Always
  // exact.
  Distance FindDistance(NodeId a, NodeId b, Distance max_distance = -1) const;

  // Bidirectional connection test (the optimization sketched in Section
  // 5.2): expands the smaller frontier of a forward search from `a` and a
  // backward search from `b`.
  bool IsConnectedBidirectional(NodeId a, NodeId b,
                                Distance max_distance = -1) const;

  // Step axes (Section 5: "the algorithms can be adapted easily for other
  // cases, e.g., to support the child axis as in a/b"). Children are the
  // distance-1 successors — tree children plus direct link targets;
  // parents symmetrically. Both cross meta-document boundaries.
  std::vector<Result> Children(NodeId node) const;
  std::vector<Result> Parents(NodeId node) const;
  std::vector<Result> ChildrenByTag(NodeId node, TagId tag) const;
  // Siblings: children of any parent, excluding `node` itself.
  std::vector<Result> Siblings(NodeId node) const;

  // Runs FindDescendantsByTag on a worker thread that streams into the
  // returned handle's list. Consume via AsyncQuery::Next/DrainAll; dropping
  // the handle cancels and joins.
  AsyncQuery FindDescendantsByTagAsync(NodeId start, TagId tag,
                                       QueryOptions options,
                                       size_t capacity = 1024) const;

 private:
  enum class Axis { kDescendants, kAncestors };

  // The evaluation loop behind every enumeration query: merges the entry
  // points and lazy per-probe cursors through one priority queue.
  void Run(const std::vector<NodeId>& starts, TagId tag, bool wildcard,
           Axis axis, const QueryOptions& options, const ResultSink& sink,
           QueryStats* stats) const;

  // Shared core of IsConnected/FindDistance: Dijkstra over entry points,
  // upgraded to landmark-guided A* when the MetaDocumentSet carries a
  // LandmarkCache (see flix/landmarks.h for the admissibility argument).
  Distance PointQuery(NodeId a, NodeId b, Distance max_distance) const;

  const MetaDocumentSet& set_;
  obs::WorkloadProfiler* profiler_ = nullptr;
};

}  // namespace flix::core

#endif  // FLIX_FLIX_PEE_H_
