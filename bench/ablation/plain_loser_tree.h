// Baseline tree-of-losers priority queues WITHOUT offset-value coding.
//
// Identical tournament structure to pq/loser_tree.h, but every match is a
// full key comparison starting at column 0. This is the comparison point for
// the paper's claim 1 ("offset-value coding can speed up external merge
// sort and also its consumers"): same algorithm, same memory layout, only
// the coding is missing. It keeps its branches, so the gap the benchmarks
// measure includes the coded tournament's branch-free match as well as the
// saved column comparisons.

#ifndef OVC_BENCH_ABLATION_PLAIN_LOSER_TREE_H_
#define OVC_BENCH_ABLATION_PLAIN_LOSER_TREE_H_

#include <cstdint>
#include <vector>

#include "core/row_ref.h"
#include "pq/loser_tree.h"
#include "row/comparator.h"

namespace ovc::ablation {

/// Merges F sorted inputs with full key comparisons. Input codes are
/// ignored, and output rows carry code 0.
class PlainMerger {
 public:
  PlainMerger(const KeyComparator* comparator,
              std::vector<MergeSource*> sources);

  /// Next merged row.
  bool Next(RowRef* out);

 private:
  struct Entry {
    uint32_t slot;
    bool exhausted;
  };

  Entry LeafEntry(uint32_t slot);
  Entry FetchSuccessor(uint32_t slot);
  Entry BuildWinner(uint32_t node);
  Entry PlayMatch(uint32_t node, Entry a, Entry b);

  const KeyComparator* comparator_;
  std::vector<MergeSource*> sources_;

  uint32_t capacity_ = 0;
  std::vector<Entry> nodes_;
  std::vector<const uint64_t*> rows_;
  Entry winner_{0, true};
  bool started_ = false;
};

/// Sorts an in-memory batch with a plain loser tree (full comparisons).
class PlainPqSorter {
 public:
  explicit PlainPqSorter(const KeyComparator* comparator);

  void Reset(const uint64_t* const* rows, uint32_t count);
  bool Next(RowRef* out);

 private:
  struct Entry {
    uint32_t slot;
    bool exhausted;
  };

  Entry BuildWinner(uint32_t node);
  Entry PlayMatch(uint32_t node, Entry a, Entry b);

  const KeyComparator* comparator_;
  uint32_t capacity_ = 0;
  uint32_t count_ = 0;
  std::vector<Entry> nodes_;
  const uint64_t* const* rows_ = nullptr;
  Entry winner_{0, true};
  bool started_ = false;
};

}  // namespace ovc::ablation

#endif  // OVC_BENCH_ABLATION_PLAIN_LOSER_TREE_H_
