// External merge sort with offset-value coding (Sections 3 and 5).
//
// Pipeline: consume unsorted rows -> generate sorted runs from cache-sized
// mini-runs (in memory when the input fits, spilled to prefix-truncated run
// files otherwise) -> merge with a tree-of-losers priority queue and the
// duplicate bypass, cascading in multiple levels when the run count exceeds
// the merge fan-in. Offset-value codes are produced during run generation,
// stored in the run format (as truncated prefixes), exploited during
// merging, and delivered with every output row. This is the one path; the
// code-free sorts the paper compares against are in bench/ablation/.
//
// Given merge functions for its payload columns, the sort also aggregates
// early (in-sort aggregation, Figure 5's sort-based plan): every stage --
// run generation, each intermediate merge level and the final merge --
// folds key-duplicate rows, found by their duplicate codes alone, into one
// row (sort/group_collapse.h). Spilled runs then hold at most one row per
// distinct key, and the output holds exactly one.

#ifndef OVC_SORT_EXTERNAL_SORT_H_
#define OVC_SORT_EXTERNAL_SORT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "core/ovc.h"
#include "core/row_ref.h"
#include "pq/loser_tree.h"
#include "row/row_block.h"
#include "row/row_buffer.h"
#include "sort/group_collapse.h"
#include "sort/run.h"
#include "sort/run_file.h"
#include "sort/run_generation.h"

namespace ovc {

/// Tuning knobs for ExternalSort.
struct SortConfig {
  /// Rows buffered in memory before a run is spilled (the paper's
  /// "operator's memory holds ... rows").
  uint64_t memory_rows = uint64_t{1} << 20;
  /// Maximum merge fan-in; more runs cascade into intermediate merges.
  uint32_t fan_in = 128;
  /// Rows per cache-sized mini-run of run generation (sort/run_generation.h).
  uint32_t mini_run_rows = 1024;
};

/// Sorts a stream of rows. Push rows with Add(), call Finish(), then pull
/// the sorted, offset-value-coded output with Next().
class ExternalSort {
 public:
  /// `schema`, `counters` (optional), and `temp` must outlive the sort.
  ExternalSort(const Schema* schema, QueryCounters* counters,
               TempFileManager* temp, SortConfig config);
  /// A sort that collapses key-duplicates at every stage, merging payload
  /// column p of duplicate rows with `collapse_fns[p]` (one entry per
  /// payload column; none for duplicate removal). Duplicates are found by
  /// their duplicate codes.
  ExternalSort(const Schema* schema, std::vector<StateMergeFn> collapse_fns,
               QueryCounters* counters, TempFileManager* temp,
               SortConfig config);
  ~ExternalSort();

  /// Adds one input row (copied). Spill I/O errors during intake do not
  /// abort: the sort records the first error, drops further input, and
  /// Finish() reports it (the graceful-degradation contract the mid-query
  /// fallbacks rely on).
  void Add(const uint64_t* row);

  /// Adds a whole block of input rows: one amortized-growth bulk copy per
  /// memory-buffer stretch instead of a per-row append, splitting at the
  /// memory_rows spill boundary exactly like row-at-a-time Add().
  void AddBlock(const RowBlock& block);

  /// Ends the input; sorts/spills what remains and prepares the output.
  Status Finish();

  /// Produces the next output row in sort order with its code. Valid only
  /// after Finish().
  bool Next(RowRef* out);

  /// Block-sized output: fills `out` with up to out->capacity() sorted rows
  /// (codes follow the stream contract across block boundaries). Returns
  /// the row count, 0 at end. Valid only after Finish(); do not interleave
  /// with Next().
  uint32_t NextBlock(RowBlock* out);

  /// Number of runs spilled to temporary storage (0 for in-memory sorts).
  uint64_t spilled_runs() const { return spilled_runs_; }
  /// Number of intermediate merge levels (0 = single final merge or
  /// in-memory).
  uint32_t intermediate_merge_levels() const { return merge_levels_; }

 private:
  /// Sorts the buffered rows into `sink` as one run.
  void SortBuffer(RunSink* sink);
  /// Lets `feed` write one run into `sink`, through a CollapsingSink when
  /// the sort collapses.
  template <typename Feed>
  void FeedRun(RunSink* sink, Feed feed);
  Status SpillBuffer();
  Status PrepareMerge(std::vector<SpilledRun> runs);
  /// Records the first intake error and degrades (see Add).
  void DeferError(const Status& status);

  const Schema* schema_;
  OvcCodec codec_;
  KeyComparator comparator_;
  QueryCounters* counters_;
  TempFileManager* temp_;
  SortConfig config_;
  bool collapse_ = false;
  std::vector<StateMergeFn> collapse_fns_;

  RowBuffer buffer_;
  std::vector<SpilledRun> runs_;
  uint64_t spilled_runs_ = 0;
  uint32_t merge_levels_ = 0;
  bool finished_ = false;
  Status deferred_error_ = Status::Ok();

  // Output plumbing: the memory run, the collapsed final merge or the final
  // merge serves Next(). The final merge runs over concrete RunFileReader
  // sources so the tournament's refill calls devirtualize (see
  // pq/loser_tree.h).
  std::unique_ptr<InMemoryRun> memory_run_;
  std::unique_ptr<InMemoryRunSource> memory_source_;
  std::vector<std::unique_ptr<RunFileReader>> readers_;
  std::unique_ptr<OvcMergerT<RunFileReader>> merger_;
  std::unique_ptr<MergeSource> merger_source_;
  std::unique_ptr<CollapsingSource> collapsed_output_;
};

}  // namespace ovc

#endif  // OVC_SORT_EXTERNAL_SORT_H_
