// Controlled corruption seeding for the mutation tests of the correctness
// tooling (tests/check_mutation_test.cc): each static mutator breaks exactly
// one structural invariant of one strategy, and the test suite proves that
// the matching Validate() detects it with a pinpointing message.
//
// CorruptionHook is befriended by every index class (see path_index.h); it
// must never be used outside tests. MDB-level corruptions (stale L_i
// entries, orphaned partition nodes) need no hook — MetaDocumentSet's
// fields are public.
#ifndef FLIX_CHECK_CORRUPTION_H_
#define FLIX_CHECK_CORRUPTION_H_

#include <algorithm>
#include <utility>

#include "index/hopi.h"
#include "index/ppo.h"
#include "index/summary_index.h"
#include "index/transitive_closure.h"

namespace flix::index {

struct CorruptionHook {
  // PPO: swaps the preorder numbers of `a` and `b` while keeping order_
  // consistent, so the permutation invariant still holds but the interval
  // nesting of some edge breaks (pick a and b as ancestor/descendant).
  static void SwapPpoIntervals(PpoIndex& index, NodeId a, NodeId b) {
    std::swap(index.pre_[a], index.pre_[b]);
    index.order_[index.pre_[a]] = a;
    index.order_[index.pre_[b]] = b;
  }

  // HOPI: drops the last entry of the first non-empty per-hub inverted
  // list, desynchronizing it from the label tables (a 2-hop enumeration
  // would silently lose that node).
  static bool DropHopiHubEntry(HopiIndex& index) {
    for (auto& list : index.inverted_in_.OwnedRows()) {
      if (!list.empty()) {
        list.pop_back();
        return true;
      }
    }
    return false;
  }

  // HOPI: skews the distance of the last out-label of `v` by +1; both the
  // label-soundness BFS probe and the inverted-list diff can catch it.
  static bool SkewHopiLabelDistance(HopiIndex& index, NodeId v) {
    if (index.out_labels_[v].empty()) return false;
    index.out_labels_.Row(v).back().distance += 1;
    return true;
  }

  // TC: truncates the closure row of `v` by one entry, leaving the reverse
  // rows untouched.
  static bool TruncateTcRow(TransitiveClosureIndex& index, NodeId v) {
    if (index.closure_[v].empty()) return false;
    index.closure_.Row(v).pop_back();
    return true;
  }

  // Summary (any preset, APEX included): files `v` under a foreign extent
  // without updating block_of_[v] — the extent partition stops being exact.
  // Returns false when the index has a single block (no foreign extent to
  // misfile into).
  static bool MisfileExtent(SummaryIndex& index, NodeId v) {
    if (index.extents_.size() < 2) return false;
    const uint32_t home_block = index.block_of_[v];
    const uint32_t to_block =
        (home_block + 1) % static_cast<uint32_t>(index.extents_.size());
    auto& home = index.extents_.Row(home_block);
    home.erase(std::find(home.begin(), home.end(), v));
    index.extents_.Row(to_block).push_back(v);
    return true;
  }

  // Summary: clears the lowest set bit of the first non-zero forward
  // pruning word — the pruned traversals would silently drop every result
  // carrying that tag.
  static bool ClearSummaryPruningBit(SummaryIndex& index) {
    for (auto& row : index.forward_tags_.OwnedRows()) {
      for (uint64_t& word : row) {
        if (word != 0) {
          word &= word - 1;
          return true;
        }
      }
    }
    return false;
  }
};

}  // namespace flix::index

#endif  // FLIX_CHECK_CORRUPTION_H_
