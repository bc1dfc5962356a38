// Run generation for external merge sort (Section 3).
//
// A memory batch becomes one initial run with offset-value codes, sorted in
// cache-sized mini-runs (Section 3's "mini-runs ... remain in memory until
// merged with fan-in 512 or 1,024"): one small, reused tree-of-losers
// tournament sorts each mini-run by merging single-row runs, and one merge
// over the mini-runs produces the batch's run. Queue build-up and tear-down
// produce the codes as a byproduct. The code-free and alternative
// strategies the benchmarks compare this with live in bench/ablation/.

#ifndef OVC_SORT_RUN_GENERATION_H_
#define OVC_SORT_RUN_GENERATION_H_

#include <cstdint>
#include <vector>

#include "common/counters.h"
#include "core/ovc.h"
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

/// RunSink appending to an in-memory run.
class MemoryRunSink final : public RunSink {
 public:
  explicit MemoryRunSink(InMemoryRun* run) : run_(run) {}
  void Accept(const uint64_t* row, Ovc code) override {
    run_->Append(row, code);
  }

 private:
  InMemoryRun* run_;
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

/// Sorts one in-memory batch and emits it as a run with offset-value codes.
class BatchSorter {
 public:
  /// `schema` and `counters` (optional) must outlive the sorter. A batch of
  /// at most `mini_run_rows` rows is one mini-run, emitted without a merge.
  BatchSorter(const Schema* schema, QueryCounters* counters,
              uint32_t mini_run_rows);

  /// Sorts the rows of `buffer` and feeds them to `sink` in order.
  void Sort(const RowBuffer& buffer, RunSink* sink);

 private:
  OvcCodec codec_;
  KeyComparator comparator_;
  uint32_t mini_run_rows_;
};

}  // namespace ovc

#endif  // OVC_SORT_RUN_GENERATION_H_
