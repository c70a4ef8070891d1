#include "flix/adapt.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/tree_utils.h"
#include "index/hopi.h"
#include "index/ppo.h"
#include "index/summary_index.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace flix::core {
namespace {

using index::StrategyKind;

bool Eligible(StrategyKind kind) {
  // TC and the structure summaries are experiment baselines the Index
  // Builder never emits; leave a partition carrying one alone.
  return kind == StrategyKind::kPpo || kind == StrategyKind::kHopi ||
         kind == StrategyKind::kApex;
}

double ProjectedCost(const StrategyCosts& c, uint64_t probes, uint64_t pulls,
                     uint64_t nodes, double memory_weight) {
  return static_cast<double>(probes) * c.probe_ns +
         static_cast<double>(pulls) * c.pull_ns +
         memory_weight * c.bytes_per_node * static_cast<double>(nodes);
}

// Canonical (distance, node) order; strategies may break distance ties
// differently, so both sides sort before the diff.
void SortCanonical(std::vector<index::NodeDist>& v) {
  std::sort(v.begin(), v.end(),
            [](const index::NodeDist& a, const index::NodeDist& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.node < b.node;
            });
}

Status EnumerationDiff(const char* what, uint32_t partition, NodeId source,
                       std::vector<index::NodeDist> old_results,
                       std::vector<index::NodeDist> new_results) {
  SortCanonical(old_results);
  SortCanonical(new_results);
  if (old_results == new_results) return Status::Ok();
  return InternalError(
      "differential probe: partition " + std::to_string(partition) + " " +
      what + " from local node " + std::to_string(source) + " differ (" +
      std::to_string(old_results.size()) + " results vs " +
      std::to_string(new_results.size()) + " on the replacement)");
}

// Sampled old-vs-new diff: the replacement must answer exactly like the
// index it displaces. Runs the probes the PEE actually issues (point
// reachability/distance, tag-free enumeration, the ReachableAmong /
// AncestorsAmong frontier probes over this partition's link sets).
Status DifferentialProbe(const index::PathIndex& old_index,
                         const index::PathIndex& new_index,
                         const MetaDocument& doc,
                         const MigrationOptions& options) {
  const uint64_t n = doc.graph.NumNodes();
  if (n == 0) return Status::Ok();
  Rng rng(options.seed);
  for (size_t i = 0; i < options.sample_pairs; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    const NodeId v = static_cast<NodeId>(rng.Uniform(n));
    if (old_index.IsReachable(u, v) != new_index.IsReachable(u, v)) {
      return InternalError("differential probe: partition " +
                           std::to_string(doc.id) + " IsReachable(" +
                           std::to_string(u) + ", " + std::to_string(v) +
                           ") differs on the replacement");
    }
    if (old_index.DistanceBetween(u, v) != new_index.DistanceBetween(u, v)) {
      return InternalError("differential probe: partition " +
                           std::to_string(doc.id) + " DistanceBetween(" +
                           std::to_string(u) + ", " + std::to_string(v) +
                           ") differs on the replacement");
    }
  }
  for (size_t i = 0; i < options.sample_sources; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    if (Status status =
            EnumerationDiff("descendants", doc.id, u, old_index.Descendants(u),
                            new_index.Descendants(u));
        !status.ok()) {
      return status;
    }
    if (!doc.link_sources.empty()) {
      if (Status status = EnumerationDiff(
              "ReachableAmong(L_i)", doc.id, u,
              old_index.ReachableAmong(u, doc.link_sources),
              new_index.ReachableAmong(u, doc.link_sources));
          !status.ok()) {
        return status;
      }
    }
    if (!doc.entry_nodes.empty()) {
      if (Status status = EnumerationDiff(
              "AncestorsAmong(entries)", doc.id, u,
              old_index.AncestorsAmong(u, doc.entry_nodes),
              new_index.AncestorsAmong(u, doc.entry_nodes));
          !status.ok()) {
        return status;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

const StrategyCosts& CostModel::For(StrategyKind kind) const {
  switch (kind) {
    case StrategyKind::kPpo: return ppo;
    case StrategyKind::kApex: return apex;
    case StrategyKind::kHopi:
    case StrategyKind::kTransitiveClosure:
    case StrategyKind::kSummary:
      break;
  }
  return hopi;
}

CostModel CostModel::Measured() {
  // bench_strategy_costs output on the reference container (20k nodes, best
  // of 3 builds, half-reachable probe mix). Ratios are what matter, and they
  // order cleanly: a PPO interval test is near-free, a HOPI label join is
  // ~20x that, and an APEX probe — a pruned BFS that must actually walk
  // whenever the pair is reachable — is another ~15x. APEX is also by far
  // the most memory-hungry (~2.3 KB/node of summary + residual structure)
  // and the slowest to build; PPO is the cheapest on every axis, which is
  // why forest-shaped partitions migrate toward it under almost any
  // workload.
  CostModel model;
  model.ppo = {/*probe_ns=*/5, /*pull_ns=*/244, /*bytes_per_node=*/28,
               /*build_ns_per_node=*/202};
  model.hopi = {/*probe_ns=*/85, /*pull_ns=*/863, /*bytes_per_node=*/274,
                /*build_ns_per_node=*/1916};
  model.apex = {/*probe_ns=*/1171, /*pull_ns=*/912, /*bytes_per_node=*/2311,
                /*build_ns_per_node=*/3533};
  return model;
}

std::vector<Recommendation> RecommendStrategies(
    const Flix& flix, const obs::WorkloadProfile& profile,
    const CostModel& model, const AdaptOptions& options) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& recommended = reg.GetCounter(obs::names::kAdaptRecommended);
  obs::Counter& rejected = reg.GetCounter(obs::names::kAdaptRejectedHysteresis);

  const MetaDocumentSet& set = flix.meta_documents();
  std::vector<Recommendation> recs;
  recs.reserve(set.docs.size());
  for (uint32_t p = 0; p < set.docs.size(); ++p) {
    const MetaDocument& doc = set.docs[p];
    const std::shared_ptr<index::PathIndex> live = doc.index.Acquire();
    if (live == nullptr || !Eligible(live->kind())) continue;

    Recommendation rec;
    rec.partition = p;
    rec.current = live->kind();
    rec.nodes = doc.graph.NumNodes();
    uint64_t probes = 0;
    uint64_t pulls = 0;
    if (p < profile.partitions.size()) {
      const obs::PartitionProfile& pp = profile.partitions[p];
      rec.queries = pp.queries;
      probes = pp.index_probes;
      pulls = pp.cursor_pulls;
    }

    rec.current_cost_ns = ProjectedCost(model.For(rec.current), probes, pulls,
                                        rec.nodes, options.memory_weight);
    rec.best = rec.current;
    rec.best_cost_ns = rec.current_cost_ns;
    StrategyKind candidates[] = {StrategyKind::kHopi, StrategyKind::kApex,
                                 StrategyKind::kPpo};
    for (const StrategyKind candidate : candidates) {
      if (candidate == rec.current) continue;
      // PPO only indexes forests; everything else is graph-shape-agnostic.
      if (candidate == StrategyKind::kPpo && !graph::IsForest(doc.graph)) {
        continue;
      }
      const double cost = ProjectedCost(model.For(candidate), probes, pulls,
                                        rec.nodes, options.memory_weight);
      if (cost < rec.best_cost_ns) {
        rec.best = candidate;
        rec.best_cost_ns = cost;
      }
    }
    rec.rebuild_cost_ns = static_cast<double>(rec.nodes) *
                          model.For(rec.best).build_ns_per_node;

    if (rec.best != rec.current && rec.queries >= options.min_queries) {
      const double win = rec.current_cost_ns - rec.best_cost_ns;
      if (win > options.hysteresis * rec.rebuild_cost_ns) {
        rec.migrate = true;
        recommended.Increment();
      } else if (win > 0) {
        rec.rejected_hysteresis = true;
        rejected.Increment();
      }
    }
    recs.push_back(rec);
  }
  return recs;
}

std::string RecommendationsToText(const std::vector<Recommendation>& recs,
                                  size_t top_n) {
  // Hottest partitions (by projected cost of staying) first.
  std::vector<const Recommendation*> order;
  order.reserve(recs.size());
  for (const Recommendation& rec : recs) order.push_back(&rec);
  std::sort(order.begin(), order.end(),
            [](const Recommendation* a, const Recommendation* b) {
              if (a->current_cost_ns != b->current_cost_ns) {
                return a->current_cost_ns > b->current_cost_ns;
              }
              return a->partition < b->partition;
            });
  const size_t limit =
      top_n == 0 ? order.size() : std::min(top_n, order.size());

  std::ostringstream out;
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%9s  %-8s  %-8s  %8s  %8s  %12s  %12s  %12s  %s\n",
                "partition", "current", "best", "nodes", "queries",
                "cost_cur_ns", "cost_best_ns", "rebuild_ns", "action");
  out << buf;
  size_t migrations = 0;
  for (size_t i = 0; i < limit; ++i) {
    const Recommendation& rec = *order[i];
    const char* action = rec.migrate               ? "migrate"
                         : rec.rejected_hysteresis ? "hold (hysteresis)"
                                                   : "keep";
    if (rec.migrate) ++migrations;
    std::snprintf(buf, sizeof buf,
                  "%9u  %-8s  %-8s  %8llu  %8llu  %12.0f  %12.0f  %12.0f  %s\n",
                  rec.partition, index::StrategyName(rec.current).data(),
                  index::StrategyName(rec.best).data(),
                  static_cast<unsigned long long>(rec.nodes),
                  static_cast<unsigned long long>(rec.queries),
                  rec.current_cost_ns, rec.best_cost_ns, rec.rebuild_cost_ns,
                  action);
    out << buf;
  }
  std::snprintf(buf, sizeof buf,
                "total: %zu partitions, %zu migrations recommended\n",
                recs.size(), migrations);
  out << buf;
  return out.str();
}

StrategyMigrator::StrategyMigrator(Flix& flix, CostModel model,
                                   AdaptOptions options,
                                   MigrationOptions migration)
    : flix_(flix),
      model_(model),
      options_(options),
      migration_(std::move(migration)) {}

StrategyMigrator::~StrategyMigrator() { Stop(); }

Status StrategyMigrator::Migrate(const Recommendation& rec) {
  if (!flix_.options().adaptive_iss) {
    return FailedPreconditionError(
        "adaptive ISS is disabled — enable FlixOptions::adaptive_iss or call "
        "Flix::SetAdaptiveIss(true)");
  }
  const MetaDocumentSet& set = flix_.meta_documents();
  if (rec.partition >= set.docs.size()) {
    return InvalidArgumentError("no such partition: " +
                                std::to_string(rec.partition));
  }
  if (!Eligible(rec.best)) {
    return InvalidArgumentError(
        "strategy not eligible for migration: " +
        std::string(index::StrategyName(rec.best)));
  }
  const MetaDocument& doc = set.docs[rec.partition];
  const std::shared_ptr<index::PathIndex> old_index = doc.index.Acquire();
  if (old_index == nullptr) {
    return InternalError("partition " + std::to_string(rec.partition) +
                         " has no index");
  }
  if (old_index->kind() == rec.best) return Status::Ok();

  // 1. Build the replacement off the query path. Queries keep running
  //    against the old index throughout.
  Stopwatch watch;
  std::shared_ptr<index::PathIndex> next;
  switch (rec.best) {
    case StrategyKind::kPpo: {
      StatusOr<std::unique_ptr<index::PpoIndex>> built =
          index::PpoIndex::Build(doc.graph);
      if (!built.ok()) return built.status();
      next = std::move(built).value();
      break;
    }
    case StrategyKind::kHopi:
      next = index::HopiIndex::Build(doc.graph);
      break;
    case StrategyKind::kApex:
      next = index::SummaryIndex::BuildApex(doc.graph);
      break;
    default:
      return InvalidArgumentError("strategy not eligible for migration");
  }
  const uint64_t build_ns = watch.ElapsedNanos();
  next->RegisterLinkSources(doc.link_sources);
  next->RegisterEntryNodes(doc.entry_nodes);
  if (migration_.replacement_hook) migration_.replacement_hook(*next);

  // 2. Validate: structural invariants first, then the sampled diff against
  //    the live index. Any failure discards the replacement — the old index
  //    never stopped serving.
  auto& reg = obs::MetricsRegistry::Global();
  if (Status status = next->Validate(doc.graph, migration_.validate);
      !status.ok()) {
    reg.GetCounter(obs::names::kAdaptValidationFailed).Increment();
    return InternalError("migration of partition " +
                         std::to_string(rec.partition) + " to " +
                         std::string(index::StrategyName(rec.best)) +
                         " rejected: " + status.message());
  }
  if (Status status = DifferentialProbe(*old_index, *next, doc, migration_);
      !status.ok()) {
    reg.GetCounter(obs::names::kAdaptValidationFailed).Increment();
    return status;
  }

  // 3. Publish. In-flight queries pinning the old index drain and release
  //    it; new Acquire() calls see the replacement.
  flix_.ReplacePartitionIndex(rec.partition, std::move(next), build_ns);
  reg.GetCounter(obs::names::kAdaptMigrated).Increment();
  return Status::Ok();
}

StatusOr<size_t> StrategyMigrator::RunOnce() {
  if (!flix_.options().adaptive_iss) {
    return FailedPreconditionError(
        "adaptive ISS is disabled — enable FlixOptions::adaptive_iss or call "
        "Flix::SetAdaptiveIss(true)");
  }
  const std::vector<Recommendation> recs =
      RecommendStrategies(flix_, flix_.Profile(), model_, options_);
  size_t migrated = 0;
  for (const Recommendation& rec : recs) {
    if (!rec.migrate) continue;
    if (Migrate(rec).ok()) ++migrated;
    // A validation failure is already counted; keep the loop going — the
    // rejected partition simply stays on its current index.
  }
  return migrated;
}

void StrategyMigrator::Start(std::chrono::milliseconds interval) {
  Stop();
  {
    MutexLock lock(mutex_);
    stop_ = false;
  }
  thread_ = std::thread([this, interval] {
    for (;;) {
      {
        // Sleep until the next tick or a Stop(); spurious wakeups re-check
        // the deadline.
        MutexLock lock(mutex_);
        const auto deadline = std::chrono::steady_clock::now() + interval;
        while (!stop_ && std::chrono::steady_clock::now() < deadline) {
          cv_.WaitUntil(mutex_, deadline);
        }
        if (stop_) return;
      }
      // Outside mutex_: a pass takes partition-handle/cache/metrics locks.
      (void)RunOnce();
    }
  });
}

void StrategyMigrator::Stop() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

}  // namespace flix::core
