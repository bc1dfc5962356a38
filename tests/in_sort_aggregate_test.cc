// In-sort aggregation (early aggregation during run generation and
// merging) and Napa-style aggregating LSM maintenance.

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/hash_aggregate.h"
#include "exec/in_sort_aggregate.h"
#include "exec/scan.h"
#include "sort/group_collapse.h"
#include "storage/lsm.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;

struct IsaParam {
  uint64_t rows;
  uint64_t distinct;
  uint64_t memory_rows;
  const char* name;
};

class InSortAggregateTest : public ::testing::TestWithParam<IsaParam> {};

TEST_P(InSortAggregateTest, MatchesReferenceWithValidCodes) {
  const auto p = GetParam();
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, p.rows, p.distinct, /*seed=*/401);
  QueryCounters counters;
  TempFileManager temp;
  BufferScan scan(&schema, &table);
  SortConfig config;
  config.memory_rows = p.memory_rows;
  config.fan_in = 4;  // exercise cascaded, collapsing merges
  InSortAggregate agg(&scan, /*group_prefix=*/2,
                      {{AggFn::kCount, 0},
                       {AggFn::kSum, 2},
                       {AggFn::kMin, 2},
                       {AggFn::kMax, 2}},
                      &counters, &temp, config);
  RowVec out = DrainValidated(&agg);

  // Reference.
  struct Ref {
    uint64_t count = 0, sum = 0;
    uint64_t min = ~uint64_t{0}, max = 0;
  };
  std::map<std::pair<uint64_t, uint64_t>, Ref> reference;
  for (size_t i = 0; i < table.size(); ++i) {
    Ref& r = reference[{table.row(i)[0], table.row(i)[1]}];
    const uint64_t v = table.row(i)[2];
    ++r.count;
    r.sum += v;
    r.min = std::min(r.min, v);
    r.max = std::max(r.max, v);
  }
  ASSERT_EQ(out.size(), reference.size());
  for (const auto& row : out) {
    const Ref& r = reference[{row[0], row[1]}];
    EXPECT_EQ(row[2], r.count);
    EXPECT_EQ(row[3], r.sum);
    EXPECT_EQ(row[4], r.min);
    EXPECT_EQ(row[5], r.max);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, InSortAggregateTest,
    ::testing::Values(IsaParam{5000, 8, 256, "spilling"},
                      IsaParam{5000, 8, 1 << 20, "in_memory"},
                      IsaParam{20000, 4, 128, "cascading"},
                      IsaParam{100, 100, 16, "mostly_distinct"},
                      IsaParam{1, 2, 16, "single_row"}),
    [](const ::testing::TestParamInfo<IsaParam>& info) {
      return info.param.name;
    });

TEST(InSortAggregate, DuplicateRemovalSpillsGroupsNotRows) {
  // With heavy duplication, early collapse spills far fewer rows than a
  // sort-then-dedup pipeline would: at most one row per group per run.
  Schema schema(2);
  RowBuffer table = MakeTable(schema, 20000, 3, /*seed=*/402);  // 9 groups
  QueryCounters counters;
  TempFileManager temp;
  BufferScan scan(&schema, &table);
  SortConfig config;
  config.memory_rows = 1000;
  InSortAggregate dedup(&scan, /*group_prefix=*/2, {}, &counters, &temp,
                        config);
  RowVec out = DrainValidated(&dedup);
  EXPECT_EQ(out.size(), 9u);
  // 20 runs x at most 9 groups each, not 20000 rows.
  EXPECT_LE(counters.rows_spilled, 20u * 9u);
}

TEST(InSortAggregate, GroupsStraddleMiniRunBoundaries) {
  // Mini-runs of 16 rows, so every memory batch merges many of them. Keys
  // i % 7 put every group in every mini-run; keys i / 10 put runs of ten
  // equal keys across mini-run boundaries. Each group must still come out
  // once, with all its rows counted, in memory and spilled.
  Schema schema(1, 1);
  for (const bool modulo : {true, false}) {
    for (const uint64_t memory_rows : {uint64_t{1} << 20, uint64_t{256}}) {
      SCOPED_TRACE(::testing::Message()
                   << (modulo ? "i % 7" : "i / 10") << ", memory "
                   << memory_rows);
      RowBuffer table(schema.total_columns());
      std::map<uint64_t, std::pair<uint64_t, uint64_t>> reference;
      for (uint64_t i = 0; i < 2000; ++i) {
        const uint64_t row[2] = {modulo ? i % 7 : i / 10, i};
        table.AppendRow(row);
        ++reference[row[0]].first;
        reference[row[0]].second += i;
      }
      QueryCounters counters;
      TempFileManager temp;
      BufferScan scan(&schema, &table);
      SortConfig config;
      config.memory_rows = memory_rows;
      config.mini_run_rows = 16;
      InSortAggregate agg(&scan, /*group_prefix=*/1,
                          {{AggFn::kCount, 0}, {AggFn::kSum, 1}}, &counters,
                          &temp, config);
      RowVec out = DrainValidated(&agg);
      ASSERT_EQ(out.size(), reference.size());
      for (const auto& row : out) {
        EXPECT_EQ(row[1], reference[row[0]].first) << row[0];
        EXPECT_EQ(row[2], reference[row[0]].second) << row[0];
      }
      EXPECT_EQ(counters.rows_spilled > 0, memory_rows < table.size());
    }
  }
}

TEST(InSortAggregate, RescanAfterClose) {
  Schema schema(1, 1);
  RowBuffer table = MakeTable(schema, 500, 4, /*seed=*/403);
  QueryCounters counters;
  TempFileManager temp;
  BufferScan scan(&schema, &table);
  InSortAggregate agg(&scan, 1, {{AggFn::kCount, 0}}, &counters, &temp);
  RowVec first = DrainValidated(&agg);
  RowVec second = DrainValidated(&agg);
  EXPECT_EQ(first, second);
}

TEST(HashAggregateFallback, CollapsesWhileGeneratingRuns) {
  // A group table of 16 overflows on 64 groups and degrades to the
  // sort-based plan. The fallback sort folds groups in every run it writes,
  // so it spills at most one row per group per run, not every input row.
  Schema schema(2, 1);
  constexpr uint64_t kRows = 20000;
  constexpr uint64_t kGroups = 64;  // 8 x 8 key values
  constexpr uint64_t kMemoryGroups = 16;
  RowBuffer table = MakeTable(schema, kRows, 8, /*seed=*/405);
  struct Ref {
    uint64_t count = 0, sum = 0;
    uint64_t min = ~uint64_t{0}, max = 0;
  };
  std::map<std::pair<uint64_t, uint64_t>, Ref> reference;
  for (size_t i = 0; i < table.size(); ++i) {
    Ref& r = reference[{table.row(i)[0], table.row(i)[1]}];
    const uint64_t v = table.row(i)[2];
    ++r.count;
    r.sum += v;
    r.min = std::min(r.min, v);
    r.max = std::max(r.max, v);
  }
  ASSERT_EQ(reference.size(), kGroups);

  QueryCounters counters;
  TempFileManager temp;
  BufferScan scan(&schema, &table);
  SortConfig config;
  config.memory_rows = 1000;
  HashAggregate agg(&scan, /*group_prefix=*/2,
                    {{AggFn::kCount, 0},
                     {AggFn::kSum, 2},
                     {AggFn::kMin, 2},
                     {AggFn::kMax, 2}},
                    kMemoryGroups, &counters, &temp, /*partitions=*/16,
                    FallbackPolicy::kSortMerge, config);
  RowVec out = DrainValidated(&agg, /*check_codes=*/false);
  ASSERT_EQ(out.size(), reference.size());
  for (const auto& row : out) {
    const Ref& r = reference[{row[0], row[1]}];
    EXPECT_EQ(row[2], r.count);
    EXPECT_EQ(row[3], r.sum);
    EXPECT_EQ(row[4], r.min);
    EXPECT_EQ(row[5], r.max);
  }
  EXPECT_EQ(counters.hash_agg_fallbacks, 1u);
  // The sort takes the resident groups plus the rest of the input.
  const uint64_t max_runs =
      (kRows + kMemoryGroups + config.memory_rows - 1) / config.memory_rows;
  EXPECT_GT(counters.rows_spilled, 0u);
  EXPECT_LE(counters.rows_spilled, max_runs * kGroups);
  EXPECT_LT(max_runs * kGroups, kRows);
}

TEST(CollapsingSink, FoldsAdjacentDuplicates) {
  Schema schema(1, 1);
  OvcCodec codec(&schema);
  InMemoryRun out(2);
  class Collect : public RunSink {
   public:
    explicit Collect(InMemoryRun* run) : run_(run) {}
    void Accept(const uint64_t* row, Ovc code) override {
      run_->Append(row, code);
    }
    InMemoryRun* run_;
  } sink(&out);
  CollapsingSink collapser(&schema, {StateMergeFn::kSum}, &sink);
  const uint64_t r1[2] = {5, 1};
  const uint64_t r2[2] = {5, 2};
  const uint64_t r3[2] = {7, 10};
  collapser.Accept(r1, codec.MakeInitial(r1));
  collapser.Accept(r2, codec.DuplicateCode());
  collapser.Accept(r3, codec.Make(0, 7));
  collapser.Flush();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.row(0)[0], 5u);
  EXPECT_EQ(out.row(0)[1], 3u);  // 1 + 2
  EXPECT_EQ(out.row(1)[0], 7u);
  EXPECT_EQ(out.row(1)[1], 10u);
  EXPECT_EQ(collapser.groups(), 2u);
}

TEST(LsmAggregating, CompactionMaintainsMaterializedView) {
  // Napa-style: ingest (key, delta) pairs; the forest maintains
  // sum(delta) per key through flushes, compactions, and scans.
  Schema schema(2, 1);
  QueryCounters counters;
  TempFileManager temp;
  LsmForest::Options options;
  options.memtable_rows = 128;
  options.collapse = true;
  options.collapse_fns = {StateMergeFn::kSum};
  LsmForest forest(&schema, &counters, &temp, options);

  std::map<std::pair<uint64_t, uint64_t>, uint64_t> reference;
  Rng rng(404);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k0 = rng.Uniform(8), k1 = rng.Uniform(8);
    const uint64_t delta = rng.Uniform(100);
    const uint64_t row[3] = {k0, k1, delta};
    forest.Insert(row);
    reference[{k0, k1}] += delta;
  }

  auto check = [&] {
    auto scan = forest.ScanAll();
    RowVec out = DrainValidated(scan.get());
    ASSERT_EQ(out.size(), reference.size());
    for (const auto& row : out) {
      EXPECT_EQ(row[2], (reference[{row[0], row[1]}]));
    }
  };
  check();            // across many runs, collapsed at scan time
  forest.CompactAll();
  EXPECT_EQ(forest.run_count(), 1u);
  check();            // fully collapsed into one run

  // The compacted run holds exactly one row per key.
  EXPECT_LE(forest.run_count(), 1u);
}

TEST(LsmAggregating, CollapseReducesCompactedSize) {
  Schema schema(1, 1);
  TempFileManager temp;
  QueryCounters counters;
  LsmForest::Options options;
  options.memtable_rows = 64;
  options.collapse = true;
  options.collapse_fns = {StateMergeFn::kSum};
  LsmForest forest(&schema, &counters, &temp, options);
  for (uint64_t i = 0; i < 10000; ++i) {
    const uint64_t row[2] = {i % 10, 1};
    forest.Insert(row);
  }
  forest.CompactAll();
  auto scan = forest.ScanAll();
  RowVec out = DrainValidated(scan.get());
  ASSERT_EQ(out.size(), 10u);
  for (const auto& row : out) {
    EXPECT_EQ(row[1], 1000u);  // count per key
  }
}

}  // namespace
}  // namespace ovc
