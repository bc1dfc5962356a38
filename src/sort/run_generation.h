// Run generation for external merge sort (Section 3).
//
// A memory batch becomes one initial run with offset-value codes, sorted in
// cache-sized mini-runs (Section 3's "mini-runs ... remain in memory until
// merged with fan-in 512 or 1,024"). Rows are sorted while they are still
// in the cache: intake copies them into one reused chunk of mini-run size,
// and each full chunk is sorted at once -- one small, reused tree-of-losers
// tournament merging single-row runs -- into a mini-run block of rows and
// codes. Queue build-up and tear-down produce the codes as a byproduct. The
// batch is read back as one run through a merge over its mini-runs, or
// zero-copy when it is a single mini-run. Blocks are recycled from batch to
// batch, so a sort that spills many runs allocates them once. The code-free
// and alternative strategies the benchmarks compare this with live in
// bench/ablation/.

#ifndef OVC_SORT_RUN_GENERATION_H_
#define OVC_SORT_RUN_GENERATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/counters.h"
#include "core/ovc.h"
#include "core/row_ref.h"
#include "pq/loser_tree.h"
#include "row/row_block.h"
#include "row/row_buffer.h"
#include "sort/run.h"
#include "sort/run_file.h"

namespace ovc {

/// Destination for the rows of one generated run, in sort order.
class RunSink {
 public:
  virtual ~RunSink() = default;
  /// Receives the next row and its code relative to the previous row given
  /// to this sink.
  virtual void Accept(const uint64_t* row, Ovc code) = 0;
};

/// RunSink appending to a spilled run file. Write errors are latched rather
/// than aborted on (Accept cannot return a Status): after the first one the
/// sink drops rows, and the caller checks status() after the pass.
class FileRunSink final : public RunSink {
 public:
  explicit FileRunSink(RunFileWriter* writer) : writer_(writer) {}
  void Accept(const uint64_t* row, Ovc code) override {
    if (!status_.ok()) return;
    status_ = writer_->Append(row, code);
  }
  const Status& status() const { return status_; }

 private:
  RunFileWriter* writer_;
  Status status_ = Status::Ok();
};

/// Builds one sorted, coded run from a batch of rows, sorting a mini-run of
/// `mini_run_rows` rows as soon as its rows have arrived. The mini-runs are
/// the `mini_run_rows` slices of the batch in input order; the last one may
/// be short. Add rows, Finish() the batch, read it with Next()/NextBlock(),
/// then Clear() for the next batch (or WriteRun() for all three steps).
class BatchSorter {
 public:
  /// `schema` and `counters` (optional) must outlive the sorter.
  BatchSorter(const Schema* schema, QueryCounters* counters,
              uint32_t mini_run_rows);

  BatchSorter(const BatchSorter&) = delete;
  BatchSorter& operator=(const BatchSorter&) = delete;

  /// Adds one row (copied) to the batch.
  void Add(const uint64_t* row) {
    chunk_.AppendRow(row);
    ++rows_;
    if (chunk_.size() == mini_run_rows_) SortChunk();
  }

  /// Adds `count` contiguous rows (copied) to the batch.
  void AddRows(const uint64_t* rows, uint64_t count);

  /// Rows added since the last Clear().
  uint64_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// Ends the batch: sorts its last mini-run and readies the output.
  void Finish();

  /// After Finish(): the batch's next row in sort order, coded relative to
  /// the previous one. Rows stay valid until Clear().
  bool Next(RowRef* out);

  /// Block variant of Next(): a single mini-run is served zero-copy, a
  /// merge copies into `out`. Returns the row count, 0 at the end.
  uint32_t NextBlock(RowBlock* out);

  /// Finishes the batch, feeds its run to `sink`, and clears it.
  void WriteRun(RunSink* sink);

  /// Drops the batch; the chunk and the mini-run blocks are kept for reuse.
  void Clear();

 private:
  /// Sorts the chunk into the next mini-run block and empties it.
  void SortChunk();

  OvcCodec codec_;
  KeyComparator comparator_;
  uint32_t mini_run_rows_;
  PqSorter sorter_;
  RowBuffer chunk_;                        // the unsorted rows of one mini-run
  std::vector<const uint64_t*> chunk_rows_;  // the tournament's row pointers
  std::vector<std::unique_ptr<InMemoryRun>> minis_;  // recycled blocks
  size_t used_ = 0;   // blocks holding this batch's mini-runs
  uint64_t rows_ = 0;
  std::vector<InMemoryRunSource> sources_;
  std::unique_ptr<OvcMergerT<InMemoryRunSource>> merger_;
};

}  // namespace ovc

#endif  // OVC_SORT_RUN_GENERATION_H_
