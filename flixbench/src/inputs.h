// Seeded inputs of the FliX benchmark: the DBLP-shaped corpus texts, the op
// lists the workloads replay, the BFS oracle every answer is checked
// against, and the digests that show two runs did identical work.
#ifndef FLIXBENCH_INPUTS_H_
#define FLIXBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "flix/streamed_list.h"
#include "graph/digraph.h"
#include "xml/collection.h"

namespace flixbench {

using flix::Distance;
using flix::NodeId;
using flix::TagId;

// Results a top-k op asks for (Fig. 5's "time to the first k results").
inline constexpr int64_t kTopK = 100;
// FindDistance pairs per point op: one pair alone is too short to time.
inline constexpr size_t kPairsPerBatch = 8;

enum class OpKind : uint8_t {
  kTopK,   // a//B, first kTopK results, streamed
  kDrain,  // a//B, every result, streamed
  kExact,  // a//B, every result, exact mode
  kType,   // A//B, first kTopK results
  kPoint,  // a batch of FindDistance pairs
};
inline constexpr size_t kNumOpKinds = 5;
std::string_view KindName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kTopK;
  NodeId start = flix::kInvalidNode;    // a of a//B
  TagId start_tag = flix::kInvalidTag;  // A of A//B
  TagId tag = flix::kInvalidTag;        // B
  std::vector<std::pair<NodeId, NodeId>> pairs;  // kPoint only
};

// One publication per text, named like workload::GenerateDblp names them.
struct Corpus {
  std::vector<std::string> texts;
  std::vector<std::string> names;
};
Corpus GenerateCorpus(uint64_t seed, size_t publications);

// Nanoseconds of the two steps of ingest.
struct IngestTimes {
  uint64_t parse_ns = 0;    // AddXml of every text
  uint64_t resolve_ns = 0;  // ResolveAllLinks
};

// The ingest step of set-up: AddXml of every text, then ResolveAllLinks,
// each in a span (xml.parse, xml.resolve_links). Heap-allocated because a
// Flix instance keeps a reference to it.
flix::StatusOr<std::unique_ptr<flix::xml::Collection>> Ingest(
    const Corpus& corpus, IngestTimes* times = nullptr);

// Point ops per op list.
inline constexpr size_t kPointBatches = 96;

// The read ops of one workload: `topk` stratified a//B queries, each also
// run as a drain and in exact mode; the same six A//B type queries in every
// workload; kPointBatches point batches.
std::vector<Op> MakeReadOps(const flix::xml::Collection& collection,
                            const flix::graph::Digraph& graph, size_t topk,
                            uint64_t seed);

// What a read op returned: the result stream, or one distance per pair.
struct Answer {
  std::vector<flix::core::Result> results;
  std::vector<Distance> distances;
  bool operator==(const Answer&) const = default;
};

// Ground truth by breadth-first search over the whole element graph.
class Oracle {
 public:
  explicit Oracle(const flix::graph::Digraph& graph) : graph_(graph) {}
  // Empty when `answer` is a correct answer to `op`, else what is wrong.
  std::string Check(const Op& op, const Answer& answer) const;

 private:
  std::vector<Distance> Distances(const std::vector<NodeId>& sources) const;
  const flix::graph::Digraph& graph_;
};

// FNV-1a over everything that defines the work or its outcome.
class Digest {
 public:
  void Add(uint64_t value);
  void Add(const Op& op);
  void Add(const Answer& answer);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace flixbench

#endif  // FLIXBENCH_INPUTS_H_
