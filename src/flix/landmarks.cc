#include "flix/landmarks.h"

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/traversal.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "xml/collection.h"

namespace flix::core {
namespace {

// Array ids inside the kLandmarks segment.
constexpr uint32_t kArrayLandmarkNodes = 1;  // NodeId per landmark
constexpr uint32_t kArrayToLandmark = 2;     // uint16 [n * k + l]
constexpr uint32_t kArrayFromLandmark = 3;   // uint16 [n * k + l]
constexpr uint32_t kArrayMeta = 4;           // uint64 [nodes, k, generation]

constexpr uint32_t kNoPartition = std::numeric_limits<uint32_t>::max();

// Farthest-point seeding over the partition quotient graph: start from the
// largest partition, then repeatedly take the partition farthest (in
// undirected quotient hops; unreached components count as infinitely far)
// from everything chosen so far. Returns chosen partition ids.
std::vector<uint32_t> SelectLandmarkPartitions(const MetaDocumentSet& set,
                                               size_t count) {
  const size_t num_parts = set.docs.size();
  std::vector<uint32_t> chosen;
  if (num_parts == 0 || count == 0) return chosen;

  // Undirected quotient adjacency over cross links. FlatMultiMap::ForEach
  // iterates in hash order for owned maps, so sort + dedupe for determinism.
  std::vector<std::vector<uint32_t>> adj(num_parts);
  for (uint32_t i = 0; i < num_parts; ++i) {
    set.docs[i].link_targets.ForEach(
        [&](NodeId, std::span<const NodeId> targets) {
          for (const NodeId target : targets) {
            const uint32_t j = set.meta_of_node[target];
            if (j == i) continue;
            adj[i].push_back(j);
            adj[j].push_back(i);
          }
        });
  }
  for (std::vector<uint32_t>& neighbors : adj) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }

  const auto eligible = [&](uint32_t p) { return set.docs[p].NumNodes() > 0; };

  uint32_t seed = kNoPartition;
  for (uint32_t i = 0; i < num_parts; ++i) {
    if (!eligible(i)) continue;
    if (seed == kNoPartition ||
        set.docs[i].NumNodes() > set.docs[seed].NumNodes()) {
      seed = i;
    }
  }
  if (seed == kNoPartition) return chosen;

  constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> dist(num_parts, kInf);  // hops to nearest chosen
  const auto relax_from = [&](uint32_t source) {
    std::vector<uint32_t> frontier{source};
    dist[source] = 0;
    uint32_t depth = 0;
    while (!frontier.empty()) {
      ++depth;
      std::vector<uint32_t> next;
      for (const uint32_t p : frontier) {
        for (const uint32_t q : adj[p]) {
          if (dist[q] <= depth) continue;
          dist[q] = depth;
          next.push_back(q);
        }
      }
      frontier = std::move(next);
    }
  };

  chosen.push_back(seed);
  relax_from(seed);
  while (chosen.size() < count) {
    uint32_t best = kNoPartition;
    for (uint32_t i = 0; i < num_parts; ++i) {
      if (!eligible(i) || dist[i] == 0) continue;  // dist 0 = already chosen
      if (best == kNoPartition || dist[i] > dist[best]) best = i;
    }
    if (best == kNoPartition) break;  // every eligible partition is chosen
    chosen.push_back(best);
    relax_from(best);
  }
  return chosen;
}

}  // namespace

LandmarkCache LandmarkCache::Build(const graph::Digraph& graph,
                                   const MetaDocumentSet& set,
                                   size_t landmark_count) {
  LandmarkCache cache;
  cache.num_nodes_ = graph.NumNodes();
  if (cache.num_nodes_ == 0) return cache;

  const std::vector<uint32_t> partitions =
      SelectLandmarkPartitions(set, landmark_count);
  if (partitions.empty()) return cache;

  // Representative element: the partition's first member, a stable pick
  // under the MDB's deterministic node ordering.
  std::vector<NodeId> reps;
  reps.reserve(partitions.size());
  for (const uint32_t p : partitions) {
    reps.push_back(set.docs[p].global_nodes[0]);
  }

  const size_t k = reps.size();
  std::vector<uint16_t> to_land(cache.num_nodes_ * k, kFar);
  std::vector<uint16_t> from_land(cache.num_nodes_ * k, kFar);
  for (size_t l = 0; l < k; ++l) {
    // Backward BFS from the landmark = distances TO it; forward = FROM it.
    const std::vector<Distance> to =
        graph::BfsDistances(graph, reps[l], graph::Direction::kBackward);
    const std::vector<Distance> from =
        graph::BfsDistances(graph, reps[l], graph::Direction::kForward);
    for (size_t n = 0; n < cache.num_nodes_; ++n) {
      to_land[n * k + l] = Pack(to[n]);
      from_land[n * k + l] = Pack(from[n]);
    }
  }
  cache.landmarks_ = std::move(reps);
  cache.to_land_ = std::move(to_land);
  cache.from_land_ = std::move(from_land);
  return cache;
}

void LandmarkCache::AppendArrays(storage::SegmentWriter& writer) const {
  writer.Add(kArrayLandmarkNodes, landmarks_.span());
  writer.Add(kArrayToLandmark, to_land_.span());
  writer.Add(kArrayFromLandmark, from_land_.span());
  const std::vector<uint64_t> meta = {num_nodes_, landmarks_.size(),
                                      generation_};
  writer.Add(kArrayMeta, meta);
}

StatusOr<LandmarkCache> LandmarkCache::FromSegment(
    const storage::SegmentView& view, size_t expected_nodes) {
  StatusOr<std::span<const uint64_t>> meta = view.GetArray<uint64_t>(kArrayMeta);
  if (!meta.ok()) return meta.status();
  if (meta->size() != 3) {
    return InvalidArgumentError("landmark segment: malformed meta array");
  }
  StatusOr<std::span<const NodeId>> nodes =
      view.GetArray<NodeId>(kArrayLandmarkNodes);
  if (!nodes.ok()) return nodes.status();
  StatusOr<std::span<const uint16_t>> to =
      view.GetArray<uint16_t>(kArrayToLandmark);
  if (!to.ok()) return to.status();
  StatusOr<std::span<const uint16_t>> from =
      view.GetArray<uint16_t>(kArrayFromLandmark);
  if (!from.ok()) return from.status();

  const uint64_t num_nodes = (*meta)[0];
  const uint64_t k = (*meta)[1];
  if (num_nodes != expected_nodes || nodes->size() != k ||
      to->size() != num_nodes * k || from->size() != num_nodes * k) {
    return InvalidArgumentError("landmark segment: shape mismatch");
  }
  for (const NodeId landmark : *nodes) {
    if (static_cast<uint64_t>(landmark) >= num_nodes) {
      return InvalidArgumentError("landmark segment: landmark id out of range");
    }
  }
  LandmarkCache cache;
  cache.num_nodes_ = num_nodes;
  cache.generation_ = (*meta)[2];
  cache.landmarks_ = storage::FlatVec<NodeId>::FromView(*nodes);
  cache.to_land_ = storage::FlatVec<uint16_t>::FromView(*to);
  cache.from_land_ = storage::FlatVec<uint16_t>::FromView(*from);
  return cache;
}

Status LandmarkCache::Validate(const graph::Digraph& graph,
                               size_t sample_nodes, uint64_t seed) const {
  if (empty()) return Status::Ok();
  if (num_nodes_ != graph.NumNodes()) {
    return InvalidArgumentError(
        "landmark cache covers " + std::to_string(num_nodes_) +
        " nodes, graph has " + std::to_string(graph.NumNodes()));
  }
  Rng rng(seed);
  std::vector<NodeId> sample;
  if (sample_nodes >= num_nodes_) {
    sample.resize(num_nodes_);
    for (size_t n = 0; n < num_nodes_; ++n) sample[n] = NodeId(n);
  } else {
    sample.reserve(sample_nodes);
    for (size_t i = 0; i < sample_nodes; ++i) {
      sample.push_back(NodeId(rng.Uniform(num_nodes_)));
    }
  }
  const size_t k = landmarks_.size();
  for (size_t l = 0; l < k; ++l) {
    const std::vector<Distance> to =
        graph::BfsDistances(graph, landmarks_[l], graph::Direction::kBackward);
    const std::vector<Distance> from =
        graph::BfsDistances(graph, landmarks_[l], graph::Direction::kForward);
    for (const NodeId n : sample) {
      if (to_land_[size_t{n} * k + l] != Pack(to[n])) {
        return InternalError(
            "landmark " + std::to_string(l) + " (element " +
            std::to_string(landmarks_[l]) + "): stored to-distance for node " +
            std::to_string(n) + " disagrees with BFS");
      }
      if (from_land_[size_t{n} * k + l] != Pack(from[n])) {
        return InternalError(
            "landmark " + std::to_string(l) + " (element " +
            std::to_string(landmarks_[l]) +
            "): stored from-distance for node " + std::to_string(n) +
            " disagrees with BFS");
      }
    }
  }
  return Status::Ok();
}

LandmarkRefresher::LandmarkRefresher(const xml::Collection& collection,
                                     MetaDocumentSet& set)
    : LandmarkRefresher(collection, set, Options()) {}

LandmarkRefresher::LandmarkRefresher(const xml::Collection& collection,
                                     MetaDocumentSet& set, Options options)
    : collection_(collection), set_(set), options_(std::move(options)) {}

LandmarkRefresher::~LandmarkRefresher() { Stop(); }

size_t LandmarkRefresher::RunOnce() {
  const graph::Digraph graph = collection_.BuildGraph();
  LandmarkCache next = LandmarkCache::Build(graph, set_, options_.landmark_count);
  const std::shared_ptr<const LandmarkCache> old = set_.landmarks.Snapshot();
  next.set_generation((old != nullptr ? old->generation() : 0) + 1);
  if (options_.replacement_hook) options_.replacement_hook(next);
  const size_t stale =
      set_.landmarks.Replace(std::make_shared<const LandmarkCache>(std::move(next)));
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter(obs::names::kLandmarksRefreshes).Increment();
  reg.GetCounter(obs::names::kGuidedStaleReads).Add(stale);
  return stale;
}

void LandmarkRefresher::Start(std::chrono::milliseconds interval) {
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
      // Outside mutex_: a rebuild takes the landmark-handle lock to publish.
      (void)RunOnce();
    }
  });
}

void LandmarkRefresher::Stop() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
}

}  // namespace flix::core
