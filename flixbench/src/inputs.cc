#include "inputs.h"

#include <algorithm>
#include <compare>
#include <unordered_set>

#include "common/rng.h"
#include "graph/traversal.h"
#include "obs/trace.h"
#include "workload/dblp_generator.h"

namespace flixbench {

using flix::Rng;
using flix::core::Result;

std::string_view KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kTopK: return "topk";
    case OpKind::kDrain: return "drain";
    case OpKind::kExact: return "exact";
    case OpKind::kType: return "type";
    case OpKind::kPoint: return "point";
  }
  return "?";
}

Corpus GenerateCorpus(uint64_t seed, size_t publications) {
  // The loop of workload::GenerateDblp, stopped before ingest so that
  // set-up can time AddXml and link resolution on their own.
  flix::workload::DblpOptions options;
  options.seed = seed;
  options.num_publications = publications;
  Rng rng(options.seed);
  flix::ZipfSampler zipf(1, options.citation_zipf);
  Corpus corpus;
  for (size_t i = 0; i < publications; ++i) {
    zipf.Grow(i);
    std::string text = flix::workload::GeneratePublicationXml(
        options, i, rng, i > 0 ? &zipf : nullptr);
    // Citations name their target by the root's key attribute.
    const size_t key = text.find("key=\"") + 5;
    corpus.names.push_back(text.substr(key, text.find('"', key) - key));
    corpus.texts.push_back(std::move(text));
  }
  return corpus;
}

flix::StatusOr<std::unique_ptr<flix::xml::Collection>> Ingest(
    const Corpus& corpus, IngestTimes* times) {
  auto collection = std::make_unique<flix::xml::Collection>();
  {
    flix::obs::TraceSpan span(nullptr, "xml.parse");
    for (size_t i = 0; i < corpus.texts.size(); ++i) {
      flix::StatusOr<flix::DocId> added =
          collection->AddXml(corpus.texts[i], corpus.names[i]);
      if (!added.ok()) return added.status();
    }
    if (times != nullptr) times->parse_ns = span.ElapsedNanos();
  }
  {
    flix::obs::TraceSpan span(nullptr, "xml.resolve_links");
    collection->ResolveAllLinks();
    if (times != nullptr) times->resolve_ns = span.ElapsedNanos();
  }
  return collection;
}

namespace {

// Index drawn from the j-th of `count` equal slices of [0, n): one draw per
// slice of a sorted list gives every seed its own sample with the same
// spread as the list.
size_t Stratum(size_t j, size_t count, size_t n, Rng& rng) {
  const size_t lo = j * n / count;
  const size_t hi = std::max(lo + 1, (j + 1) * n / count);
  return lo + rng.Uniform(hi - lo);
}

}  // namespace

std::vector<Op> MakeReadOps(const flix::xml::Collection& collection,
                            const flix::graph::Digraph& graph, size_t topk,
                            uint64_t seed) {
  Rng rng(seed ^ 0x5eed0f0b5ULL);
  const size_t docs = collection.NumDocuments();
  const TagId article = collection.pool().Lookup("article");
  const TagId inproceedings = collection.pool().Lookup("inproceedings");
  const TagId author = collection.pool().Lookup("author");
  const TagId title = collection.pool().Lookup("title");
  const TagId result_tags[] = {article, inproceedings, author, title};

  // Every a//B query from a publication root. One qualifies once it reaches
  // kTopK elements of the tag, so a top-k op really stops early; on a
  // corpus too small for that (the self-test) any non-empty answer will do.
  // Sorted by tag, then by how many elements the start reaches, which is
  // what streams, drains and exact mode pay for.
  struct Candidate {
    TagId tag;
    size_t reach;
    NodeId start;
    auto operator<=>(const Candidate&) const = default;
  };
  std::vector<Candidate> pool, small;
  std::vector<std::pair<size_t, NodeId>> roots;  // (reach, root)
  for (flix::DocId d = 0; d < docs; ++d) {
    const NodeId start = collection.GlobalId(d, 0);
    const std::vector<Distance> dist = flix::graph::BfsDistances(graph, start);
    size_t reach = 0;
    size_t hits[std::size(result_tags)] = {};
    for (NodeId n = 0; n < dist.size(); ++n) {
      if (n == start || dist[n] == flix::kUnreachable) continue;
      ++reach;
      for (size_t t = 0; t < std::size(result_tags); ++t) {
        hits[t] += graph.Tag(n) == result_tags[t];
      }
    }
    roots.emplace_back(reach, start);
    for (size_t t = 0; t < std::size(result_tags); ++t) {
      if (hits[t] == 0) continue;
      (hits[t] >= kTopK ? pool : small).push_back({result_tags[t], reach, start});
    }
  }
  if (pool.size() < topk) pool.insert(pool.end(), small.begin(), small.end());
  std::sort(pool.begin(), pool.end());

  // Stratified over the sorted pool, so every seed draws its own op list
  // with the same mix of tags and sizes, and statistics over the ops stay
  // put.
  std::vector<Op> ops;
  const size_t count = std::min(topk, pool.size());
  for (size_t j = 0; j < count; ++j) {
    const Candidate& c = pool[Stratum(j, count, pool.size(), rng)];
    Op op;
    op.start = c.start;
    op.tag = c.tag;
    ops.push_back(std::move(op));
  }
  for (const OpKind kind : {OpKind::kDrain, OpKind::kExact}) {
    for (size_t i = 0; i < count; ++i) {
      ops.push_back(ops[i]);
      ops.back().kind = kind;
    }
  }

  // A//B type queries: every pair of a publication kind and a different
  // tag, the same in every run. A//A is left out: the engine answers it
  // with no results although articles cite articles, so every such op would
  // fail its check (README.md, "Known defects").
  const std::pair<TagId, TagId> types[] = {
      {inproceedings, article}, {article, inproceedings},
      {inproceedings, author},  {article, author},
      {inproceedings, title},   {article, title}};
  for (const auto& [a, b] : types) {
    Op op;
    op.kind = OpKind::kType;
    op.start_tag = a;
    op.tag = b;
    ops.push_back(std::move(op));
  }

  // Point batches. Sources are stratified by reach, which bounds the
  // search, and a batch takes consecutive strata, so the median batch is
  // alike across seeds. Every other pair is connected (target drawn from the
  // source's reachable set); the rest go to a uniformly drawn element.
  std::sort(roots.begin(), roots.end());
  const size_t pairs = kPointBatches * kPairsPerBatch;
  for (size_t b = 0; b < kPointBatches; ++b) {
    Op op;
    op.kind = OpKind::kPoint;
    for (size_t i = 0; i < kPairsPerBatch; ++i) {
      const size_t p = b * kPairsPerBatch + i;
      const NodeId a = roots[Stratum(p, pairs, roots.size(), rng)].second;
      NodeId target = static_cast<NodeId>(rng.Uniform(graph.NumNodes()));
      if (i % 2 == 0) {
        const std::vector<Distance> dist = flix::graph::BfsDistances(graph, a);
        std::vector<NodeId> reachable;
        for (NodeId n = 0; n < dist.size(); ++n) {
          if (n != a && dist[n] != flix::kUnreachable) reachable.push_back(n);
        }
        if (!reachable.empty()) target = reachable[rng.Uniform(reachable.size())];
      }
      op.pairs.emplace_back(a, target);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<Distance> Oracle::Distances(
    const std::vector<NodeId>& sources) const {
  // Distance over paths of at least one edge, as a//B and A//B return
  // proper descendants: a source counts only when another source (or a
  // cycle) reaches it.
  std::vector<Distance> dist(graph_.NumNodes(), flix::kUnreachable);
  std::vector<uint8_t> expanded(graph_.NumNodes(), 0);
  std::vector<NodeId> level;
  for (const NodeId s : sources) {
    if (!expanded[s]) level.push_back(s);
    expanded[s] = 1;
  }
  for (Distance d = 1; !level.empty(); ++d) {
    std::vector<NodeId> next;
    for (const NodeId n : level) {
      for (const auto& arc : graph_.OutArcs(n)) {
        if (dist[arc.target] != flix::kUnreachable) continue;
        dist[arc.target] = d;
        if (!expanded[arc.target]) {
          expanded[arc.target] = 1;
          next.push_back(arc.target);
        }
      }
    }
    level = std::move(next);
  }
  return dist;
}

std::string Oracle::Check(const Op& op, const Answer& answer) const {
  if (op.kind == OpKind::kPoint) {
    if (answer.distances.size() != op.pairs.size()) return "missing distances";
    for (size_t i = 0; i < op.pairs.size(); ++i) {
      const auto [a, b] = op.pairs[i];
      const Distance truth = flix::graph::BfsDistance(graph_, a, b);
      if (answer.distances[i] != truth) {
        return "FindDistance(" + std::to_string(a) + "," + std::to_string(b) +
               ") = " + std::to_string(answer.distances[i]) + ", BFS says " +
               std::to_string(truth);
      }
    }
    return {};
  }

  std::vector<NodeId> sources;
  if (op.kind == OpKind::kType) {
    sources = graph_.NodesWithTag(op.start_tag);
  } else {
    sources.push_back(op.start);
  }
  const std::vector<Distance> dist = Distances(sources);
  size_t truth_size = 0;
  for (NodeId n = 0; n < dist.size(); ++n) {
    truth_size += dist[n] != flix::kUnreachable && graph_.Tag(n) == op.tag;
  }

  const bool full = op.kind == OpKind::kDrain || op.kind == OpKind::kExact;
  const size_t want = full ? truth_size
                           : std::min<size_t>(truth_size, kTopK);
  if (answer.results.size() != want) {
    return std::to_string(answer.results.size()) + " results, expected " +
           std::to_string(want);
  }
  std::unordered_set<NodeId> emitted;
  Distance previous = 0;
  for (const Result& r : answer.results) {
    if (r.node >= dist.size() || dist[r.node] == flix::kUnreachable) {
      return "unreachable result " + std::to_string(r.node);
    }
    if (graph_.Tag(r.node) != op.tag) {
      return "result " + std::to_string(r.node) + " has the wrong tag";
    }
    if (!emitted.insert(r.node).second) {
      return "duplicate result " + std::to_string(r.node);
    }
    // Streamed distances may overestimate (entry-point dominance keeps the
    // first path found); exact mode must report the true distance. Both
    // emit in ascending order of what they report.
    const bool exact = op.kind == OpKind::kExact;
    if (exact ? r.distance != dist[r.node] : r.distance < dist[r.node]) {
      return "result " + std::to_string(r.node) + " at distance " +
             std::to_string(r.distance) + ", BFS says " +
             std::to_string(dist[r.node]);
    }
    if (r.distance < previous) return "results out of distance order";
    previous = r.distance;
  }
  return {};
}

void Digest::Add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::Add(const Op& op) {
  Add(static_cast<uint64_t>(op.kind));
  Add(op.start);
  Add(op.start_tag);
  Add(op.tag);
  for (const auto& [a, b] : op.pairs) {
    Add(a);
    Add(b);
  }
}

void Digest::Add(const Answer& answer) {
  Add(answer.results.size());
  for (const Result& r : answer.results) {
    Add(r.node);
    Add(static_cast<uint64_t>(r.distance));
  }
  for (const Distance d : answer.distances) Add(static_cast<uint64_t>(d));
}

}  // namespace flixbench
