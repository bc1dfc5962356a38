// The sort and merge ablations of bench/ablation/: the strategies the
// benchmarks compare the engine against, checked for correct output and
// pinned to exact comparison counts.
//
// PinnedCounts runs each ablation over one seeded input and pins its
// counters, so a change that moves or reshapes an ablation cannot change
// what it measures unnoticed: the plain-tournament sort, std::stable_sort
// with offset-0 and with naive codes, the single-tournament coded sort,
// replacement selection and the plain merging exchange.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bench/ablation/ablation_sort.h"
#include "bench/ablation/plain_loser_tree.h"
#include "bench/ablation/plain_merge_exchange.h"
#include "bench/ablation/replacement_selection.h"
#include "common/rng.h"
#include "core/ovc_checker.h"
#include "exec/scan.h"
#include "pq/loser_tree.h"
#include "sort/external_sort.h"
#include "test_util.h"

namespace ovc::ablation {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::ReferenceSort;
using ::ovc::testing::RowVec;
using ::ovc::testing::RunFromSorted;

// 5,000 rows over 512 rows of memory make ten initial runs; a fan-in of 4
// cascades them through one intermediate merge level.
constexpr uint64_t kRows = 5000;
constexpr uint64_t kMemoryRows = 512;
constexpr uint32_t kFanIn = 4;

/// What a sort did, besides its output.
struct SortStats {
  QueryCounters counters;
  uint64_t spilled_runs = 0;
  uint32_t merge_levels = 0;
};

constexpr uint32_t kKeyColumns = 4;

/// Sorts `rows` seeded rows of kKeyColumns keys and 1 payload column with a
/// `Sort` (ExternalSort or AblationSort) configured by `config`. Checks the
/// rows against the reference sort and, when `coded`, the codes (offset-0
/// codes claim nothing, so code-free output is not checked).
template <typename Sort, typename Config>
SortStats SortChecked(const Config& config, uint64_t rows, bool coded) {
  Schema schema(kKeyColumns, 1);
  const RowBuffer table = MakeTable(schema, rows, 4, /*seed=*/rows);
  SortStats stats;
  TempFileManager temp;
  Sort sort(&schema, &stats.counters, &temp, config);
  for (size_t i = 0; i < table.size(); ++i) sort.Add(table.row(i));
  EXPECT_TRUE(sort.Finish().ok());
  OvcStreamChecker checker(&schema);
  RowVec out;
  RowRef ref;
  while (sort.Next(&ref)) {
    out.emplace_back(ref.cols, ref.cols + schema.total_columns());
    if (coded && checker.ok()) {  // one failure, no error spam
      EXPECT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
    }
  }
  RowVec expected = ReferenceSort(schema, table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
  stats.spilled_runs = sort.spilled_runs();
  stats.merge_levels = sort.intermediate_merge_levels();
  return stats;
}

struct PinnedCounts {
  uint64_t code_comparisons;
  uint64_t column_comparisons;
  uint64_t merge_bypass_rows;
  uint64_t spilled_runs;
};

void ExpectCounts(const QueryCounters& got, uint64_t spilled_runs,
                  const PinnedCounts& pinned) {
  EXPECT_EQ(got.code_comparisons, pinned.code_comparisons);
  EXPECT_EQ(got.column_comparisons, pinned.column_comparisons);
  EXPECT_EQ(got.merge_bypass_rows, pinned.merge_bypass_rows);
  EXPECT_EQ(spilled_runs, pinned.spilled_runs);
}

/// Sorts the seeded input with `config`, checks it and the counts.
template <typename Sort, typename Config>
void SortPinned(Config config, bool coded, const PinnedCounts& pinned) {
  config.memory_rows = kMemoryRows;
  config.fan_in = kFanIn;
  const SortStats stats = SortChecked<Sort>(config, kRows, coded);
  ExpectCounts(stats.counters, stats.spilled_runs, pinned);
}

TEST(PinnedCounts, PlainTournamentSort) {
  SortPinned<AblationSort>(AblationSortConfig(), /*coded=*/false,
                           {0, 168009, 0, 10});
}

TEST(PinnedCounts, StdSortWithOffsetZeroCodes) {
  AblationSortConfig config;
  config.run_gen = RunGen::kStdSort;
  SortPinned<AblationSort>(config, /*coded=*/false, {0, 176536, 0, 10});
}

TEST(PinnedCounts, StdSortWithNaiveCodes) {
  AblationSortConfig config;
  config.run_gen = RunGen::kStdSort;
  config.naive_codes = true;
  SortPinned<AblationSort>(config, /*coded=*/true, {5506, 126359, 7044, 10});
}

TEST(PinnedCounts, SingleTournamentCodedSort) {
  SortConfig config;
  config.mini_run_rows = kSingleTournamentRows;
  SortPinned<ExternalSort>(config, /*coded=*/true, {55616, 14916, 7044, 10});
}

TEST(PinnedCounts, ReplacementSelection) {
  AblationSortConfig config;
  config.run_gen = RunGen::kReplacementSelection;
  SortPinned<AblationSort>(config, /*coded=*/true, {48338, 20103, 8175, 6});
}

TEST(PinnedCounts, PlainMergeExchange) {
  // Four sorted inputs of uneven length merged with full comparisons.
  Schema schema(4, 1);
  const uint64_t lengths[] = {700, 1300, 50, 950};
  std::vector<InMemoryRun> runs;
  RowBuffer all(schema.total_columns());
  for (uint64_t r = 0; r < 4; ++r) {
    const RowBuffer t = MakeTable(schema, lengths[r], 4, /*seed=*/30 + r,
                                  /*sorted=*/true);
    for (size_t i = 0; i < t.size(); ++i) all.AppendRow(t.row(i));
    runs.push_back(RunFromSorted(schema, t));
  }
  std::vector<std::unique_ptr<RunScan>> scans;
  std::vector<Operator*> inputs;
  for (const InMemoryRun& run : runs) {
    scans.push_back(std::make_unique<RunScan>(&schema, &run));
    inputs.push_back(scans.back().get());
  }
  QueryCounters counters;
  PlainMergeExchange exchange(inputs, &counters);
  RowVec out = DrainValidated(&exchange, /*check_codes=*/false);
  RowVec expected = ReferenceSort(schema, all);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
  ExpectCounts(counters, 0, {0, 21859, 0, 0});
}

struct AblationSortParam {
  RunGen run_gen;
  bool naive_codes;
  uint64_t rows;
  uint64_t memory_rows;
  uint32_t fan_in;
  const char* name;
};

class AblationSortTest : public ::testing::TestWithParam<AblationSortParam> {
};

TEST_P(AblationSortTest, SortsCorrectly) {
  const auto p = GetParam();
  AblationSortConfig config;
  config.memory_rows = p.memory_rows;
  config.fan_in = p.fan_in;
  config.run_gen = p.run_gen;
  config.naive_codes = p.naive_codes;
  const bool rs = p.run_gen == RunGen::kReplacementSelection;
  const SortStats stats =
      SortChecked<AblationSort>(config, p.rows, p.naive_codes || rs);

  if (rs) {
    // Column comparisons across run generation and all merge levels stay
    // within N x K per processed level; with at most 2 extra levels this is
    // a loose but meaningful ceiling. (The code-free sorts are the
    // baselines that deliberately break this bound.)
    const uint64_t levels = 2 + stats.merge_levels;
    EXPECT_LE(stats.counters.column_comparisons,
              p.rows * kKeyColumns * levels);
  }
  if (p.rows > p.memory_rows) {
    EXPECT_GT(stats.spilled_runs, 0u);
  } else if (!rs) {
    EXPECT_EQ(stats.spilled_runs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AblationSortTest,
    ::testing::Values(
        AblationSortParam{RunGen::kStdSort, true, 5000, 512, 8, "std_spill"},
        AblationSortParam{RunGen::kReplacementSelection, false, 5000, 512, 8,
                          "replacement"},
        AblationSortParam{RunGen::kReplacementSelection, false, 12000, 128,
                          4, "replacement_cascade"},
        AblationSortParam{RunGen::kPlainTournament, true, 5000, 512, 8,
                          "plain_spill"},
        AblationSortParam{RunGen::kPlainTournament, true, 400, 512, 8,
                          "plain_memory"},
        // Without codes: offset-0 rows, full-row run files and plain
        // merges, intermediate ones included.
        AblationSortParam{RunGen::kPlainTournament, false, 3000, 512, 8,
                          "plain_offset0_spill"},
        AblationSortParam{RunGen::kPlainTournament, false, 500, 512, 8,
                          "plain_offset0_memory"},
        AblationSortParam{RunGen::kStdSort, false, 9000, 256, 4,
                          "std_offset0_cascade"}),
    [](const ::testing::TestParamInfo<AblationSortParam>& info) {
      return info.param.name;
    });

TEST(ReplacementSelection, RunsLongerThanMemory) {
  // Random input: expected run length ~ 2x memory.
  Schema schema(3);
  QueryCounters counters;
  TempFileManager temp;
  ReplacementSelection rs(&schema, &counters, &temp, /*capacity=*/256);
  RowBuffer table = MakeTable(schema, 10000, 50, /*seed=*/77);
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(rs.Add(table.row(i)).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  std::vector<SpilledRun> runs = rs.TakeRuns();
  ASSERT_FALSE(runs.empty());
  uint64_t total = 0;
  for (const SpilledRun& run : runs) total += run.rows;
  EXPECT_EQ(total, 10000u);
  const double avg = static_cast<double>(total) / runs.size();
  EXPECT_GT(avg, 256 * 1.5) << "replacement selection should produce runs "
                               "substantially longer than memory";

  // Every run is itself a valid sorted coded stream.
  for (const SpilledRun& run : runs) {
    RunFileReader reader(&schema);
    ASSERT_TRUE(reader.Open(run.path).ok());
    OvcStreamChecker checker(&schema);
    const uint64_t* row = nullptr;
    Ovc code = 0;
    while (reader.Next(&row, &code)) {
      ASSERT_TRUE(checker.Observe(row, code)) << checker.error();
    }
  }
}

TEST(ReplacementSelection, SortedInputYieldsSingleRun) {
  Schema schema(3);
  TempFileManager temp;
  ReplacementSelection rs(&schema, nullptr, &temp, /*capacity=*/64);
  RowBuffer table = MakeTable(schema, 5000, 10, /*seed=*/3, /*sorted=*/true);
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(rs.Add(table.row(i)).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  EXPECT_EQ(rs.run_count(), 1u);
}

TEST(ReplacementSelection, BaseTagFallbacksAmortize) {
  // The guarded comparisons (different base tags -> full key comparison)
  // must stay rare: well below one per input row.
  Schema schema(4);
  QueryCounters counters;
  TempFileManager temp;
  ReplacementSelection rs(&schema, &counters, &temp, /*capacity=*/512);
  RowBuffer table = MakeTable(schema, 20000, 8, /*seed=*/5);
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(rs.Add(table.row(i)).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  // row_comparisons counts: 1 per input row (run assignment) + fallbacks +
  // re-derivations. Allow 1.5x as the amortized ceiling.
  EXPECT_LE(counters.row_comparisons, 20000u * 3 / 2);
}

TEST(ReplacementSelectionAdversarial, ReverseSortedInput) {
  // Strictly descending input: every fresh row starts the next run, so run
  // lengths collapse to the memory size -- the classic worst case. Output
  // must stay perfectly coded.
  Schema schema(2);
  QueryCounters counters;
  TempFileManager temp;
  ReplacementSelection rs(&schema, &counters, &temp, /*capacity=*/64);
  for (uint64_t i = 0; i < 4000; ++i) {
    const uint64_t row[2] = {4000 - i, i};
    ASSERT_TRUE(rs.Add(row).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  std::vector<SpilledRun> runs = rs.TakeRuns();
  // Worst case: about N / capacity runs.
  EXPECT_GE(runs.size(), 4000u / 64 - 2);
  uint64_t total = 0;
  for (const SpilledRun& run : runs) {
    total += run.rows;
    RunFileReader reader(&schema);
    ASSERT_TRUE(reader.Open(run.path).ok());
    OvcStreamChecker checker(&schema);
    const uint64_t* row = nullptr;
    Ovc code = 0;
    while (reader.Next(&row, &code)) {
      ASSERT_TRUE(checker.Observe(row, code)) << checker.error();
    }
  }
  EXPECT_EQ(total, 4000u);
}

TEST(ReplacementSelectionAdversarial, ConstantInput) {
  // All-equal keys: everything is a duplicate of the first winner; one run.
  Schema schema(2);
  TempFileManager temp;
  QueryCounters counters;
  ReplacementSelection rs(&schema, &counters, &temp, /*capacity=*/32);
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t row[2] = {7, 7};
    ASSERT_TRUE(rs.Add(row).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  EXPECT_EQ(rs.run_count(), 1u);
}

TEST(ReplacementSelectionAdversarial, SawtoothInput) {
  Schema schema(2);
  TempFileManager temp;
  QueryCounters counters;
  ReplacementSelection rs(&schema, &counters, &temp, /*capacity=*/128);
  Rng rng(31);
  for (uint64_t i = 0; i < 10000; ++i) {
    const uint64_t row[2] = {(i * 37) % 1000, rng.Uniform(5)};
    ASSERT_TRUE(rs.Add(row).ok());
  }
  ASSERT_TRUE(rs.Finish().ok());
  std::vector<SpilledRun> runs = rs.TakeRuns();
  uint64_t total = 0;
  for (const SpilledRun& run : runs) {
    total += run.rows;
    RunFileReader reader(&schema);
    ASSERT_TRUE(reader.Open(run.path).ok());
    OvcStreamChecker checker(&schema);
    const uint64_t* row = nullptr;
    Ovc code = 0;
    while (reader.Next(&row, &code)) {
      ASSERT_TRUE(checker.Observe(row, code)) << checker.error();
    }
  }
  EXPECT_EQ(total, 10000u);
}

TEST(PlainPqSorter, MatchesReference) {
  Schema schema(3);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator comparator(&schema, &counters);
  RowBuffer table = MakeTable(schema, 500, 3, /*seed=*/9);
  std::vector<const uint64_t*> ptrs;
  for (size_t i = 0; i < table.size(); ++i) ptrs.push_back(table.row(i));
  PlainPqSorter sorter(&comparator);
  sorter.Reset(ptrs.data(), static_cast<uint32_t>(ptrs.size()));
  RowVec out;
  RowRef ref;
  while (sorter.Next(&ref)) {
    out.emplace_back(ref.cols, ref.cols + schema.total_columns());
  }
  RowVec expected = ReferenceSort(schema, table);
  ::ovc::testing::Canonicalize(&out);
  ::ovc::testing::Canonicalize(&expected);
  EXPECT_EQ(out, expected);
  // No N x K guarantee for the plain tree: with a low-cardinality domain it
  // must exceed the OVC comparison count (sanity-check the baseline is
  // actually more expensive).
  QueryCounters ovc_counters;
  KeyComparator ovc_comparator(&schema, &ovc_counters);
  PqSorter ovc_sorter(&codec, &ovc_comparator);
  ovc_sorter.Reset(ptrs.data(), static_cast<uint32_t>(ptrs.size()));
  while (ovc_sorter.Next(&ref)) {
  }
  EXPECT_GT(counters.column_comparisons, ovc_counters.column_comparisons);
}

/// Counts the pulls a merger makes on one of its inputs.
class CountingSource final : public MergeSource {
 public:
  explicit CountingSource(const InMemoryRun* run) : source_(run) {}
  bool Next(const uint64_t** row, Ovc* code) override {
    ++pulls;
    return source_.Next(row, code);
  }
  uint64_t pulls = 0;

 private:
  InMemoryRunSource source_;
};

TEST(PlainMerger, DoesNoWorkAfterReportingExhaustion) {
  // Pulling a drained merger again must neither pull its inputs nor play
  // another tournament pass.
  Schema schema(2);
  RowBuffer ta(2), tb(2);
  ::ovc::testing::AppendRows(&ta, {{1, 1}, {3, 1}, {5, 2}});
  ::ovc::testing::AppendRows(&tb, {{2, 1}, {3, 1}, {4, 4}});
  InMemoryRun a = RunFromSorted(schema, ta);
  InMemoryRun b = RunFromSorted(schema, tb);
  CountingSource sa(&a), sb(&b);
  QueryCounters counters;
  KeyComparator comparator(&schema, &counters);
  PlainMerger merger(&comparator, {&sa, &sb});
  RowRef ref;
  uint64_t n = 0;
  while (merger.Next(&ref)) ++n;
  EXPECT_EQ(n, 6u);
  const QueryCounters drained = counters;
  const uint64_t pulls = sa.pulls + sb.pulls;
  EXPECT_FALSE(merger.Next(&ref));
  EXPECT_FALSE(merger.Next(&ref));
  EXPECT_EQ(counters.column_comparisons, drained.column_comparisons);
  EXPECT_EQ(counters.code_comparisons, drained.code_comparisons);
  EXPECT_EQ(counters.row_comparisons, drained.row_comparisons);
  EXPECT_EQ(sa.pulls + sb.pulls, pulls);
}

}  // namespace
}  // namespace ovc::ablation
