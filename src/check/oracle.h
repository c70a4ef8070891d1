// Differential query oracle: replays a sampled query workload through the
// full FliX stack — the PEE's one evaluation loop in each of its modes:
// streamed cursor merging, per-block emission (`materialize`), and exact
// mode — and diffs every answer against naive BFS over the global element
// graph.
//
// What each mode must guarantee (and what is diffed):
//   * streaming / per-block: the result *set* is exact (every reachable
//     matching element exactly once); distances and order may be the
//     documented approximation, so only the node sets are compared;
//   * exact mode: set, per-node distance, and ascending emission order must
//     all match the BFS ground truth;
//   * A//B type queries (all three modes, diffed as above): the answer is a
//     multi-source BFS from every element of the start tag. One of them
//     starts from the tag with the most elements in one partition, and its
//     streamed and exact runs must batch them: fewer cursors opened than
//     two per entry point processed;
//   * connection tests: IsConnected and IsConnectedBidirectional agree with
//     BFS reachability and FindDistance returns the true shortest distance.
//
// Complements check::ValidateFramework: the validator proves the stored
// structures intact, the oracle proves the query pipeline on top of them
// (PEE merging, cross-link traversal, duplicate elimination) end to end.
#ifndef FLIX_CHECK_ORACLE_H_
#define FLIX_CHECK_ORACLE_H_

#include <string>
#include <vector>

#include "flix/flix.h"

namespace flix::check {

struct OracleOptions {
  uint64_t seed = 20260806;
  // Descendant queries replayed per run (deep mode doubles this and adds
  // the wildcard variant per query).
  size_t num_queries = 12;
  // (a, b) pairs for connection / distance diffs.
  size_t num_connection_pairs = 48;
  bool deep = false;
};

struct OracleReport {
  // Query evaluations diffed against the BFS ground truth, and how many of
  // them were type queries and bidirectional connection tests.
  size_t queries_diffed = 0;
  size_t type_queries_diffed = 0;
  // Streamed type queries whose entry batching was checked.
  size_t batched_type_queries = 0;
  size_t bidirectional_diffed = 0;
  std::vector<std::string> diffs;

  bool ok() const { return diffs.empty(); }
};

// Replays the workload against `flix`. Deterministic for a fixed seed.
OracleReport RunDifferentialOracle(const core::Flix& flix,
                                   const OracleOptions& options = {});

}  // namespace flix::check

#endif  // FLIX_CHECK_ORACLE_H_
