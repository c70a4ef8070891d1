#include "check/oracle.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flix/pee.h"
#include "graph/traversal.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "workload/query_workload.h"

namespace flix::check {
namespace {

// Set diff between an evaluated result list and the oracle's answer.
// Returns the first divergence (missing node, extra node, or a duplicate),
// or nullopt when the sets agree.
std::optional<std::string> DiffResultSet(
    const std::string& what, const std::vector<core::Result>& results,
    const std::vector<graph::NodeDist>& truth) {
  std::vector<NodeId> got;
  got.reserve(results.size());
  for (const core::Result& r : results) got.push_back(r.node);
  std::sort(got.begin(), got.end());
  if (const auto dup = std::adjacent_find(got.begin(), got.end());
      dup != got.end()) {
    return what + ": node " + std::to_string(*dup) + " emitted twice";
  }
  std::vector<NodeId> want;
  want.reserve(truth.size());
  for (const graph::NodeDist& nd : truth) want.push_back(nd.node);
  std::sort(want.begin(), want.end());
  std::vector<NodeId> missing;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  if (!missing.empty()) {
    return what + ": node " + std::to_string(missing.front()) +
           " is missing (" + std::to_string(missing.size()) + " of " +
           std::to_string(want.size()) + " dropped)";
  }
  std::vector<NodeId> extra;
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  if (!extra.empty()) {
    return what + ": node " + std::to_string(extra.front()) +
           " is not a BFS result (" + std::to_string(extra.size()) +
           " spurious)";
  }
  return std::nullopt;
}

// Exact-mode diff: sets, per-node distances, and ascending emission order.
std::optional<std::string> DiffExact(
    const std::string& what, const std::vector<core::Result>& results,
    const std::vector<graph::NodeDist>& truth) {
  if (auto diff = DiffResultSet(what, results, truth)) return diff;
  std::unordered_map<NodeId, Distance> want;
  for (const graph::NodeDist& nd : truth) want.emplace(nd.node, nd.distance);
  Distance prev = 0;
  for (const core::Result& r : results) {
    if (r.distance < prev) {
      return what + ": node " + std::to_string(r.node) +
             " emitted at distance " + std::to_string(r.distance) +
             " after distance " + std::to_string(prev) +
             " — exact mode must be ascending";
    }
    prev = r.distance;
    const Distance truth_dist = want.at(r.node);
    if (r.distance != truth_dist) {
      return what + ": node " + std::to_string(r.node) +
             " reported at distance " + std::to_string(r.distance) +
             ", BFS says " + std::to_string(truth_dist);
    }
  }
  return std::nullopt;
}

std::vector<core::Result> Drain(const core::PathExpressionEvaluator& pee,
                                NodeId start, TagId tag, bool wildcard,
                                bool ancestors,
                                const core::QueryOptions& options) {
  std::vector<core::Result> results;
  const core::ResultSink sink = [&results](const core::Result& r) {
    results.push_back(r);
    return true;
  };
  if (ancestors) {
    pee.FindAncestorsByTag(start, tag, options, sink);
  } else if (wildcard) {
    pee.FindDescendants(start, options, sink);
  } else {
    pee.FindDescendantsByTag(start, tag, options, sink);
  }
  return results;
}

// Ground truth of the type query start_tag//result_tag (distinct tags):
// every result_tag element reachable from some start_tag element, by one
// multi-source BFS over the global graph.
std::vector<graph::NodeDist> TypeQueryTruth(const graph::Digraph& g,
                                            TagId start_tag,
                                            TagId result_tag) {
  std::vector<Distance> dist(g.NumNodes(), kUnreachable);
  std::vector<NodeId> frontier;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (g.Tag(v) == start_tag) {
      dist[v] = 0;
      frontier.push_back(v);
    }
  }
  std::vector<graph::NodeDist> truth;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const NodeId v = frontier[head];
    if (g.Tag(v) == result_tag) truth.push_back({v, dist[v]});
    for (const graph::Digraph::Arc& arc : g.OutArcs(v)) {
      if (dist[arc.target] == kUnreachable) {
        dist[arc.target] = dist[v] + 1;
        frontier.push_back(arc.target);
      }
    }
  }
  return truth;
}

// Type queries replayed per run (deep mode doubles this). Each is a drain
// over every element of its start tag, so they are far costlier than the
// single-start queries and are capped separately.
constexpr size_t kTypeQueries = 3;

// The tag with the most elements in a single partition, and that count. An
// A//B query from it hands that partition an entry batch of that many
// starts (DBLP: the author elements of one publication).
std::pair<TagId, size_t> MostCoPartitionedTag(
    const graph::Digraph& g, const core::MetaDocumentSet& set) {
  std::unordered_map<uint64_t, size_t> count;  // (tag, partition) -> elements
  std::pair<TagId, size_t> best{kInvalidTag, 0};
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const size_t c =
        ++count[(uint64_t{g.Tag(v)} << 32) | set.meta_of_node[v]];
    if (c > best.second || (c == best.second && g.Tag(v) < best.first)) {
      best = {g.Tag(v), c};
    }
  }
  return best;
}

}  // namespace

OracleReport RunDifferentialOracle(const core::Flix& flix,
                                   const OracleOptions& options) {
  OracleReport report;
  const graph::Digraph global = flix.collection().BuildGraph();
  const graph::ReachabilityOracle oracle(global);
  const core::PathExpressionEvaluator& pee = flix.pee();

  workload::QuerySamplerOptions sampler;
  sampler.seed = options.seed;
  sampler.count = options.deep ? options.num_queries * 2 : options.num_queries;
  sampler.min_results = 1;
  const std::vector<workload::DescendantQuery> queries =
      workload::SampleDescendantQueries(flix.collection(), global, sampler);

  struct Mode {
    const char* name;
    core::QueryOptions query;
    bool exact;
  };
  const std::vector<Mode> modes = {
      {"streaming", {}, false},
      {"materialized", {.materialize = true}, false},
      {"exact", {.exact = true}, true},
  };

  for (const workload::DescendantQuery& q : queries) {
    const std::vector<graph::NodeDist> truth =
        oracle.DescendantsByTag(q.start, q.tag);
    for (const Mode& mode : modes) {
      ++report.queries_diffed;
      const std::string what = std::string(mode.name) + " " +
                               std::to_string(q.start) + "//" + q.tag_name;
      const std::vector<core::Result> results = Drain(
          pee, q.start, q.tag, /*wildcard=*/false, /*ancestors=*/false,
          mode.query);
      const auto diff = mode.exact ? DiffExact(what, results, truth)
                                   : DiffResultSet(what, results, truth);
      if (diff) report.diffs.push_back(*diff);
    }
    if (options.deep) {
      // Wildcard sweep plus the reverse axis from the nearest true result.
      ++report.queries_diffed;
      if (auto diff = DiffResultSet(
              "streaming " + std::to_string(q.start) + "//*",
              Drain(pee, q.start, kInvalidTag, /*wildcard=*/true,
                    /*ancestors=*/false, {}),
              oracle.Descendants(q.start))) {
        report.diffs.push_back(*diff);
      }
      if (!truth.empty()) {
        ++report.queries_diffed;
        const NodeId back = truth.front().node;
        const TagId start_tag = global.Tag(q.start);
        if (auto diff = DiffResultSet(
                "streaming ancestors of " + std::to_string(back),
                Drain(pee, back, start_tag, /*wildcard=*/false,
                      /*ancestors=*/true, {}),
                oracle.AncestorsByTag(back, start_tag))) {
          report.diffs.push_back(*diff);
        }
      }
    }
  }

  // A//B type queries: all start elements enter the queue at distance 0,
  // so their partitions admit many entry points and the duplicate
  // elimination runs on a populated ReachCover. The tag pairs are the
  // (start tag, result tag) pairs of the sampled queries, with distinct
  // tags — for A//A the PEE drops starts that other starts reach.
  std::vector<std::pair<TagId, TagId>> type_pairs;
  const size_t max_type_queries =
      options.deep ? 2 * kTypeQueries : kTypeQueries;
  for (const workload::DescendantQuery& q : queries) {
    const std::pair<TagId, TagId> pair{global.Tag(q.start), q.tag};
    if (pair.first == pair.second ||
        std::find(type_pairs.begin(), type_pairs.end(), pair) !=
            type_pairs.end()) {
      continue;
    }
    if (type_pairs.size() == max_type_queries) break;
    type_pairs.push_back(pair);
  }
  // One more pair whose start tag puts two or more starts into one
  // partition, so every configuration replays a multi-seed entry batch;
  // its streamed run must show the batch (one cursor pair for several
  // entry points).
  std::optional<std::pair<TagId, TagId>> batched_pair;
  const auto [batch_tag, batch_size] =
      MostCoPartitionedTag(global, flix.meta_documents());
  if (batch_size >= 2) {
    TagId result_tag = kInvalidTag;
    for (const workload::DescendantQuery& q : queries) {
      if (q.tag != batch_tag) {
        result_tag = q.tag;
        break;
      }
    }
    for (NodeId v = 0; result_tag == kInvalidTag && v < global.NumNodes();
         ++v) {
      if (global.Tag(v) != batch_tag) result_tag = global.Tag(v);
    }
    if (result_tag != kInvalidTag) {
      batched_pair.emplace(batch_tag, result_tag);
      if (std::find(type_pairs.begin(), type_pairs.end(), *batched_pair) ==
          type_pairs.end()) {
        type_pairs.push_back(*batched_pair);
      }
    }
  }
  const auto& pool = flix.collection().pool();
  for (const auto& [start_tag, result_tag] : type_pairs) {
    const std::vector<graph::NodeDist> truth =
        TypeQueryTruth(global, start_tag, result_tag);
    const std::string name = pool.Name(start_tag) + "//" +
                             pool.Name(result_tag);
    for (const Mode& mode : modes) {
      ++report.queries_diffed;
      ++report.type_queries_diffed;
      std::vector<core::Result> results;
      core::QueryStats stats;
      pee.EvaluateTypeQuery(start_tag, result_tag, mode.query,
                            [&results](const core::Result& r) {
                              results.push_back(r);
                              return true;
                            },
                            &stats);
      const std::string what = std::string(mode.name) + " " + name;
      if (auto diff = mode.exact ? DiffExact(what, results, truth)
                                 : DiffResultSet(what, results, truth)) {
        report.diffs.push_back(*diff);
      }
      // Streaming (exact mode too) opens one local and one frontier cursor
      // per partition of an entry batch, so a batch of several admitted
      // starts opens fewer than two cursors per entry point.
      if (!mode.query.materialize && batched_pair.has_value() &&
          *batched_pair == std::pair{start_tag, result_tag}) {
        ++report.batched_type_queries;
        if (stats.cursors_opened >= 2 * stats.entries_processed) {
          report.diffs.push_back(
              "streaming " + name + ": " +
              std::to_string(stats.cursors_opened) + " cursors for " +
              std::to_string(stats.entries_processed) +
              " entry points — the starts sharing a partition were not "
              "batched into one multi-source cursor");
        }
      }
    }
  }

  // Connection tests: reachability must match BFS exactly (the
  // bidirectional walk included), and exact-mode point distances must be
  // the true shortest distances.
  const std::vector<std::pair<NodeId, NodeId>> pairs =
      workload::SampleConnectionPairs(global, options.num_connection_pairs,
                                      options.seed + 1);
  for (const auto& [a, b] : pairs) {
    ++report.queries_diffed;
    const Distance truth_dist = graph::BfsDistance(global, a, b);
    ++report.queries_diffed;
    ++report.bidirectional_diffed;
    if (pee.IsConnectedBidirectional(a, b) != (truth_dist != kUnreachable)) {
      report.diffs.push_back("connection " + std::to_string(a) + " -> " +
                             std::to_string(b) +
                             ": IsConnectedBidirectional says " +
                             (truth_dist == kUnreachable ? "yes" : "no") +
                             ", BFS disagrees");
    }
    if (flix.IsConnected(a, b) != (truth_dist != kUnreachable)) {
      report.diffs.push_back("connection " + std::to_string(a) + " -> " +
                             std::to_string(b) + ": IsConnected says " +
                             (truth_dist == kUnreachable ? "yes" : "no") +
                             ", BFS disagrees");
      continue;
    }
    const Distance found_dist = flix.FindDistance(a, b);
    if (found_dist != truth_dist) {
      report.diffs.push_back("connection " + std::to_string(a) + " -> " +
                             std::to_string(b) + ": FindDistance says " +
                             std::to_string(found_dist) + ", BFS says " +
                             std::to_string(truth_dist));
    }
  }

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter(obs::names::kCheckOracleQueries).Add(report.queries_diffed);
  registry.GetCounter(obs::names::kCheckViolations).Add(report.diffs.size());
  return report;
}

}  // namespace flix::check
