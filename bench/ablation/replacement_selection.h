// Replacement selection: continuous run generation whose expected run
// length is twice the memory size, at a cost of one extra comparison per
// input row (the comparison against the last winner that assigns the run
// number and primes the row's offset-value code). AblationSort
// (bench/ablation/ablation_sort.h) merges its runs with codes.

#ifndef OVC_BENCH_ABLATION_REPLACEMENT_SELECTION_H_
#define OVC_BENCH_ABLATION_REPLACEMENT_SELECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "common/temp_file.h"
#include "core/ovc.h"
#include "row/comparator.h"
#include "row/row_buffer.h"
#include "sort/run_file.h"

namespace ovc::ablation {

/// Continuous run generation by replacement selection with offset-value
/// codes maintained soundly across run boundaries.
///
/// Each tree entry carries the sequence number of the row its code is
/// relative to: matches between equal bases use the codes, matches across
/// bases (only around run boundaries) take one full key comparison that
/// re-bases the loser. The reasoning is in docs/ARCHITECTURE.md, under
/// `bench/ablation`.
class ReplacementSelection {
 public:
  /// Holds up to `capacity` rows in memory; emits runs through `temp`.
  ReplacementSelection(const Schema* schema, QueryCounters* counters,
                       TempFileManager* temp, uint32_t capacity);
  ~ReplacementSelection();

  /// Adds one input row, possibly emitting one row to the current run.
  Status Add(const uint64_t* row);

  /// Drains the tree, closing the last run.
  Status Finish();

  /// The spilled runs, available after Finish().
  std::vector<SpilledRun> TakeRuns();

  /// Number of runs produced (after Finish()).
  size_t run_count() const { return runs_.size(); }

 private:
  struct Entry {
    Ovc code = OvcCodec::LateFence();
    uint64_t run = ~uint64_t{0};
    uint64_t seq = 0;       // identity of this entry's row instance
    uint64_t base_seq = 0;  // identity of the row its code is relative to
    uint32_t slot = 0;
  };

  Entry PlayMatch(uint32_t node, Entry a, Entry b);
  void BuildTree();
  Status PopAndReplace(const Entry& replacement);
  Status EmitWinner();
  Entry MakeFreshEntry(const uint64_t* row, uint32_t slot);

  const Schema* schema_;
  OvcCodec codec_;
  KeyComparator comparator_;
  QueryCounters* counters_;
  TempFileManager* temp_;

  uint32_t capacity_;       // number of row slots
  uint32_t tree_capacity_;  // padded power of two
  RowBuffer slots_;
  std::vector<Entry> nodes_;
  Entry winner_;
  bool built_ = false;

  uint64_t next_seq_ = 1;  // 0 is reserved for the minus-infinity base
  uint64_t current_run_ = 1;
  std::vector<uint64_t> prev_emitted_;
  uint64_t prev_emitted_seq_ = 0;
  bool run_has_rows_ = false;

  std::unique_ptr<RunFileWriter> writer_;
  std::vector<SpilledRun> runs_;
  std::string current_path_;
};

}  // namespace ovc::ablation

#endif  // OVC_BENCH_ABLATION_REPLACEMENT_SELECTION_H_
