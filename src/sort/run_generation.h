// Run generation for external merge sort (Section 3, Section 5).
//
// Three in-memory strategies plus continuous replacement selection:
//
//  * kPqSingleRowRuns -- "run generation merges 'sorted' runs of a single
//    row each": one tree-of-losers tournament over the whole memory batch;
//    queue build-up and tear-down produce the sorted run and its
//    offset-value codes as a byproduct.
//  * kPqMiniRuns -- the default, cache-resident variant (Section 3's
//    "mini-runs ... remain in memory until merged with fan-in 512 or
//    1,024"): sort cache-sized mini-runs with one small, reused tournament,
//    then merge them into one initial run. kPqSingleRowRuns is its
//    ablation baseline.
//  * kStdSort -- baseline: std::sort over row pointers, then (optionally)
//    derive codes the naive way, row by row, column by column. This is the
//    expensive to-date method the paper's introduction describes.
//  * ReplacementSelection -- continuous run generation: expected run length
//    twice the memory size at a cost of one extra comparison per input row
//    (the comparison against the last winner that assigns the run number
//    and primes the row's offset-value code).

#ifndef OVC_SORT_RUN_GENERATION_H_
#define OVC_SORT_RUN_GENERATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "core/ovc.h"
#include "row/row_buffer.h"
#include "sort/run.h"
#include "sort/run_file.h"

namespace ovc {

/// In-memory run-generation strategy.
enum class RunGenMode {
  kPqSingleRowRuns,
  kPqMiniRuns,
  kStdSort,
};

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

/// Sorts one in-memory batch and emits it as a run.
class BatchSorter {
 public:
  /// When `use_ovc` is false the tournament runs with full key comparisons
  /// and rows are emitted with offset-0 codes (no truncation, no code
  /// maintenance) unless `naive_codes` asks for the row-by-row,
  /// column-by-column derivation.
  BatchSorter(const Schema* schema, QueryCounters* counters, RunGenMode mode,
              uint32_t mini_run_rows, bool use_ovc, bool naive_codes);

  /// Sorts the rows of `buffer` and feeds them to `sink` in order.
  void Sort(const RowBuffer& buffer, RunSink* sink);

 private:
  void SortPqSingle(const std::vector<const uint64_t*>& rows, RunSink* sink);
  void SortPqMini(const std::vector<const uint64_t*>& rows, RunSink* sink);
  void SortStd(std::vector<const uint64_t*>& rows, RunSink* sink);
  /// `row`'s code relative to `prev` (nullptr for the first row), derived
  /// the naive way: one adjacent comparison, column by column.
  Ovc NaiveCode(const uint64_t* prev, const uint64_t* row) const;
  /// The code a plain (code-free) sort emits: NaiveCode with naive_codes,
  /// else offset 0.
  Ovc PlainCode(const uint64_t* prev, const uint64_t* row) const;

  const Schema* schema_;
  OvcCodec codec_;
  KeyComparator comparator_;
  QueryCounters* counters_;
  RunGenMode mode_;
  uint32_t mini_run_rows_;
  bool use_ovc_;
  bool naive_codes_;
};

/// Continuous run generation by replacement selection with offset-value
/// codes maintained soundly across run boundaries.
///
/// Each tree entry carries the sequence number of the row its code is
/// relative to: matches between equal bases use the codes, matches across
/// bases (only around run boundaries) take one full key comparison that
/// re-bases the loser. The reasoning is in docs/ARCHITECTURE.md, under
/// `src/sort`.
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

}  // namespace ovc

#endif  // OVC_SORT_RUN_GENERATION_H_
