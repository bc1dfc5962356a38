// The sorts the engine's ExternalSort is measured against (claim 1 and
// Section 5): run generation without offset-value coding, and replacement
// selection.
//
// AblationSort is an external merge sort built from the engine's run files
// and mergers. A memory batch becomes one run, sorted by a plain tournament
// (PlainPqSorter, full comparisons) or by std::stable_sort. Without codes
// the rows carry offset 0, so run files hold full rows and merges compare
// full rows (PlainMerger). With naive codes each run's codes are derived
// after sorting, row by row and column by column -- the method the paper's
// introduction describes -- and the runs merge with the engine's coded
// merger. Replacement selection generates coded runs about twice the
// memory size and merges them the same way.

#ifndef OVC_BENCH_ABLATION_ABLATION_SORT_H_
#define OVC_BENCH_ABLATION_ABLATION_SORT_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bench/ablation/replacement_selection.h"
#include "common/counters.h"
#include "common/temp_file.h"
#include "core/row_ref.h"
#include "pq/loser_tree.h"
#include "row/row_buffer.h"
#include "sort/run.h"
#include "sort/run_file.h"
#include "sort/run_generation.h"

namespace ovc::ablation {

/// How an AblationSort generates its initial runs.
enum class RunGen {
  kPlainTournament,       // PlainPqSorter over each memory batch
  kStdSort,               // std::stable_sort over each memory batch
  kReplacementSelection,  // continuous, coded runs
};

struct AblationSortConfig {
  uint64_t memory_rows = uint64_t{1} << 20;
  uint32_t fan_in = 128;
  RunGen run_gen = RunGen::kPlainTournament;
  /// Batch run generation: derive codes the naive way and merge with them.
  /// Replacement selection always codes.
  bool naive_codes = false;
};

/// SortConfig::mini_run_rows that makes every memory batch one mini-run:
/// the engine's sort then plays one tournament of single-row runs over the
/// whole batch (Section 3's "run generation merges 'sorted' runs of a single
/// row each"), the baseline for cache-sized mini-runs.
constexpr uint32_t kSingleTournamentRows =
    std::numeric_limits<uint32_t>::max();

/// Sorts a stream of rows: Add() them, Finish(), then Next() in order. Spill
/// I/O errors abort.
class AblationSort {
 public:
  /// `schema`, `counters` (optional) and `temp` must outlive the sort.
  AblationSort(const Schema* schema, QueryCounters* counters,
               TempFileManager* temp, AblationSortConfig config);
  ~AblationSort();

  void Add(const uint64_t* row);
  Status Finish();
  /// The next row in sort order. Its code is valid when the sort codes.
  bool Next(RowRef* out);

  uint64_t spilled_runs() const { return spilled_runs_; }
  uint32_t intermediate_merge_levels() const { return merge_levels_; }

 private:
  bool coded() const;
  void SortBuffer(RunSink* sink);
  Status SpillBuffer();
  Status Merge(std::vector<SpilledRun> runs);
  /// A merger over `sources`: coded or plain, as the runs are.
  std::unique_ptr<MergeSource> MakeMerger(
      const std::vector<RunFileReader*>& sources);

  const Schema* schema_;
  OvcCodec codec_;
  KeyComparator comparator_;
  QueryCounters* counters_;
  TempFileManager* temp_;
  AblationSortConfig config_;

  RowBuffer buffer_;
  std::unique_ptr<ReplacementSelection> rs_;
  std::vector<SpilledRun> runs_;
  uint64_t spilled_runs_ = 0;
  uint32_t merge_levels_ = 0;

  std::unique_ptr<InMemoryRun> memory_run_;
  std::vector<std::unique_ptr<RunFileReader>> readers_;
  std::unique_ptr<MergeSource> output_;
};

}  // namespace ovc::ablation

#endif  // OVC_BENCH_ABLATION_ABLATION_SORT_H_
