// Batched execution: RowBlock semantics, BlockCursor, and block-capacity
// invariance of every operator -- draining at capacities 1, 7 and 1024 must
// yield identical rows and codes (capacity 1 is the row-at-a-time stream),
// validated with OvcStreamChecker so codes are proven correct across block
// boundaries.

#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/ovc_checker.h"
#include "exec/aggregate.h"
#include "exec/dedup.h"
#include "exec/exchange.h"
#include "exec/filter.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/in_sort_aggregate.h"
#include "exec/limit.h"
#include "exec/merge_join.h"
#include "exec/nested_loops_join.h"
#include "exec/pivot.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/set_operation.h"
#include "exec/sort_operator.h"
#include "sort/run.h"
#include "storage/btree.h"
#include "storage/column_store.h"
#include "storage/lsm.h"
#include "storage/rid_index.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::ExpectCapacityInvariant;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::RunFromSorted;

/// A sorted, coded run over Schema(1, 1): `count` rows of each `key`, with
/// a running row number as payload so every row is distinguishable.
InMemoryRun GroupedRun(const Schema& schema,
                       std::vector<std::pair<uint64_t, uint32_t>> groups,
                       uint64_t payload_base) {
  RowBuffer rows(schema.total_columns());
  uint64_t seq = payload_base;
  for (const auto& [key, count] : groups) {
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t row[2] = {key, seq++};
      rows.AppendRow(row);
    }
  }
  return RunFromSorted(schema, rows);
}

TEST(RowBlock, AppendTruncateAndPointerStability) {
  RowBlock block(3, 4);
  EXPECT_EQ(block.width(), 3u);
  EXPECT_EQ(block.capacity(), 4u);
  EXPECT_TRUE(block.empty());

  const uint64_t r0[3] = {1, 2, 3};
  const uint64_t r1[3] = {4, 5, 6};
  block.Append(r0, 7);
  block.Append(r1, 9);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_FALSE(block.full());
  EXPECT_EQ(block.row(1)[2], 6u);
  EXPECT_EQ(block.code(0), 7u);
  EXPECT_EQ(block.code(1), 9u);

  // Rows are contiguous: row(1) is exactly width past row(0).
  EXPECT_EQ(block.row(0) + block.width(), block.row(1));

  // Clear/Truncate move the size only; storage stays in place.
  const uint64_t* before = block.row(0);
  block.Truncate(1);
  EXPECT_EQ(block.size(), 1u);
  block.Clear();
  block.Append(r1, 1);
  EXPECT_EQ(block.row(0), before);
  EXPECT_EQ(block.row(0)[0], 4u);

  // Bulk append with null codes zero-fills the code array.
  block.Clear();
  const uint64_t two_rows[6] = {1, 1, 1, 2, 2, 2};
  block.AppendContiguous(two_rows, nullptr, 2);
  EXPECT_EQ(block.size(), 2u);
  EXPECT_EQ(block.code(0), 0u);
  EXPECT_EQ(block.code(1), 0u);
}

TEST(BlockCursor, ServesTheStreamAcrossBlocksAndStaysAtEnd) {
  Schema schema(2, 1);
  // More rows than one block, so the stream crosses a refill.
  RowBuffer table = MakeTable(schema, 2500, 4, /*seed=*/13, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  scan.Open();
  BlockCursor cursor(&scan);
  RowRef ref;
  for (size_t i = 0; i < run.size(); ++i) {
    ASSERT_TRUE(cursor.Next(&ref)) << i;
    EXPECT_EQ(ref.cols[2], run.row(i)[2]);
    EXPECT_EQ(ref.ovc, run.code(i));
  }
  EXPECT_FALSE(cursor.Next(&ref));
  EXPECT_FALSE(cursor.Next(&ref));  // no pull past the end
  scan.Close();

  // Reset after a rescan serves the stream again from the top.
  scan.Open();
  cursor.Reset();
  ASSERT_TRUE(cursor.Next(&ref));
  EXPECT_EQ(ref.ovc, run.code(0));
  scan.Close();
}

TEST(CapacityInvariance, Scans) {
  Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 1234, 4, /*seed=*/29, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan run_scan(&schema, &run);
  EXPECT_EQ(ExpectCapacityInvariant(&run_scan).size(), table.size());
  BufferScan buffer_scan(&schema, &table);
  ExpectCapacityInvariant(&buffer_scan, /*check_codes=*/false);

  RleColumnStore store(&schema);
  store.Build(&run_scan);
  std::unique_ptr<Operator> rle = store.CreateScan();
  EXPECT_EQ(ExpectCapacityInvariant(rle.get()).size(), table.size());

  QueryCounters counters;
  BTree tree(&schema, &counters, /*node_capacity=*/16);
  RowBuffer unsorted = MakeTable(schema, 800, 6, /*seed=*/47);
  for (size_t i = 0; i < unsorted.size(); ++i) tree.Insert(unsorted.row(i));
  std::unique_ptr<Operator> btree = tree.Scan();
  EXPECT_EQ(ExpectCapacityInvariant(btree.get()).size(), unsorted.size());
}

TEST(CapacityInvariance, FilterProjectLimitDedup) {
  Schema in_schema(3, 1);
  RowBuffer table = MakeTable(in_schema, 3000, 5, /*seed=*/41,
                              /*sorted=*/true);
  InMemoryRun run = RunFromSorted(in_schema, table);
  RunScan scan(&in_schema, &run);
  FilterOperator filter(&scan, [](const uint64_t* row) {
    return row[3] % 3 != 0;  // drop about a third
  });
  ExpectCapacityInvariant(&filter);
  Schema out_schema(2, 0);
  ProjectOperator project(&filter, out_schema, {0, 1});
  ASSERT_TRUE(project.sorted());
  ExpectCapacityInvariant(&project);
  LimitOperator limit(&project, 800);
  EXPECT_EQ(ExpectCapacityInvariant(&limit).size(), 800u);
  DedupOperator dedup(&project);
  EXPECT_EQ(ExpectCapacityInvariant(&dedup).size(), 25u);  // 5 x 5 keys
}

TEST(CapacityInvariance, FilterSurvivesAllDroppedBlocks) {
  Schema schema(1, 0);
  RowBuffer table(1);
  for (uint64_t i = 0; i < 100; ++i) {
    table.AppendRow(&i);
  }
  BufferScan scan(&schema, &table);
  // Keeps only the last row: at capacity 10 the first 9 blocks are fully
  // dropped and NextBatch must keep pulling, not report a premature end.
  FilterOperator filter(&scan, [](const uint64_t* row) {
    return row[0] == 99;
  });
  RowVec rows = DrainValidated(&filter, /*check_codes=*/false, 10);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], 99u);
}

TEST(CapacityInvariance, FilterHandlesShrinkingBlockCapacity) {
  // The staging block must track the caller's capacity: after a pull with
  // a large block, a pull with a smaller one may not overflow it.
  Schema schema(2, 0);
  RowBuffer table = MakeTable(schema, 400, 4, /*seed=*/61, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  FilterOperator filter(&scan, [](const uint64_t*) { return true; });

  filter.Open();
  RowBlock big(schema.total_columns(), 100);
  RowBlock small(schema.total_columns(), 8);
  ASSERT_EQ(filter.NextBatch(&big), 100u);
  uint64_t total = 100;
  uint32_t n;
  while ((n = filter.NextBatch(&small)) > 0) {
    ASSERT_LE(n, small.capacity());
    total += n;
  }
  filter.Close();
  EXPECT_EQ(total, 400u);
}

TEST(CapacityInvariance, BlockPredicateMayMarkSurvivorsOnly) {
  // A block predicate that only sets keep[i] for survivors (never writes
  // zeroes) must work: the keep array is pre-zeroed per block, so stale
  // entries from earlier blocks cannot leak through.
  Schema schema(1, 0);
  RowBuffer table(1);
  for (uint64_t i = 0; i < 60; ++i) {
    table.AppendRow(&i);
  }
  BufferScan scan(&schema, &table);
  FilterOperator filter(
      &scan, [](const uint64_t* row) { return row[0] % 5 == 0; },
      [](const RowBlock& block, uint8_t* keep) {
        for (uint32_t i = 0; i < block.size(); ++i) {
          if (block.row(i)[0] % 5 == 0) keep[i] = 1;  // survivors only
        }
      });
  RowVec rows = DrainValidated(&filter, /*check_codes=*/false, 10);
  ASSERT_EQ(rows.size(), 12u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i][0], i * 5);
  }
}

TEST(CapacityInvariance, SortInMemoryAndSpilled) {
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 4000, 6, /*seed=*/43);
  TempFileManager temp;
  const RowVec expected = testing::ReferenceSort(schema, table);
  for (uint64_t memory_rows : {uint64_t{1} << 20, uint64_t{256}}) {
    BufferScan scan(&schema, &table);
    SortConfig config;
    config.memory_rows = memory_rows;
    SortOperator sort(&scan, nullptr, &temp, config);
    EXPECT_EQ(ExpectCapacityInvariant(&sort), expected)
        << "memory_rows=" << memory_rows;
  }
}

TEST(CapacityInvariance, FailedSortEndsWithAnEmptyBlock) {
  // A sort whose spill cannot open a file degrades: no rows, the error in
  // the temp manager's slot, and the end of stream clears the block.
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 2000, 6, /*seed=*/44);
  TempFileManager temp;
  std::filesystem::remove_all(temp.dir());
  BufferScan scan(&schema, &table);
  SortConfig config;
  config.memory_rows = 64;
  SortOperator sort(&scan, nullptr, &temp, config);
  sort.Open();
  RowBlock block(schema.total_columns(), 8);
  block.Append(table.row(0), 0);  // stale contents from an earlier pull
  EXPECT_EQ(sort.NextBatch(&block), 0u);
  EXPECT_TRUE(block.empty());
  sort.Close();
  EXPECT_FALSE(temp.first_error().ok());
}

TEST(CapacityInvariance, MergeJoinAllTypesWithGroupsLargerThanABlock) {
  // Left key 3 holds 1,100 rows and right key 6 holds 1,030, so both
  // cross the 1,024-row cursor blocks; key 1 makes a 40 x 30 = 1,200-row
  // output group, larger than any output block here.
  Schema schema(1, 1);
  InMemoryRun left_run =
      GroupedRun(schema, {{0, 5}, {1, 40}, {3, 1100}, {5, 30}}, 0);
  InMemoryRun right_run =
      GroupedRun(schema, {{1, 30}, {2, 4}, {3, 2}, {5, 1}, {6, 1030}}, 10000);
  const std::pair<JoinType, size_t> cases[] = {
      {JoinType::kInner, 3430},      {JoinType::kLeftOuter, 3435},
      {JoinType::kRightOuter, 4464}, {JoinType::kFullOuter, 4469},
      {JoinType::kLeftSemi, 1170},   {JoinType::kLeftAnti, 5},
      {JoinType::kRightSemi, 33},    {JoinType::kRightAnti, 1034},
  };
  for (const auto& [type, rows] : cases) {
    SCOPED_TRACE(JoinTypeName(type));
    RunScan left(&schema, &left_run), right(&schema, &right_run);
    QueryCounters counters;
    MergeJoin join(&left, &right, type, &counters);
    EXPECT_EQ(ExpectCapacityInvariant(&join).size(), rows);
  }
}

TEST(CapacityInvariance, LimitCutsAMergeJoinGroup) {
  // 1,500 rows of the inner join: the first 1,200 form key 1's group and
  // the limit's shrinking tail capacity cuts key 3's 2,200-row group.
  Schema schema(1, 1);
  InMemoryRun left_run = GroupedRun(schema, {{1, 40}, {3, 1100}}, 0);
  InMemoryRun right_run = GroupedRun(schema, {{1, 30}, {3, 2}}, 10000);
  RunScan left(&schema, &left_run), right(&schema, &right_run);
  QueryCounters counters;
  MergeJoin join(&left, &right, JoinType::kInner, &counters);
  RowVec full = DrainValidated(&join);
  ASSERT_EQ(full.size(), 3400u);
  LimitOperator limit(&join, 1500);
  RowVec cut = ExpectCapacityInvariant(&limit);
  EXPECT_EQ(cut, RowVec(full.begin(), full.begin() + 1500));
}

TEST(CapacityInvariance, SetOperations) {
  Schema schema(2, 0);
  RowBuffer lt = MakeTable(schema, 900, 6, /*seed=*/3, /*sorted=*/true);
  RowBuffer rt = MakeTable(schema, 700, 6, /*seed=*/4, /*sorted=*/true);
  InMemoryRun lrun = RunFromSorted(schema, lt);
  InMemoryRun rrun = RunFromSorted(schema, rt);
  for (SetOpType type :
       {SetOpType::kIntersect, SetOpType::kExcept, SetOpType::kUnion}) {
    for (bool all : {false, true}) {
      SCOPED_TRACE(static_cast<int>(type) * 2 + (all ? 1 : 0));
      RunScan left(&schema, &lrun), right(&schema, &rrun);
      SetOperation op(&left, &right, type, all, nullptr);
      ExpectCapacityInvariant(&op);
    }
  }
}

TEST(CapacityInvariance, InStreamAggregateBothBoundaryModes) {
  Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 3000, 4, /*seed=*/5, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  const std::vector<AggregateSpec> aggs = {{AggFn::kCount, 0},
                                           {AggFn::kSum, 3},
                                           {AggFn::kMin, 2},
                                           {AggFn::kMax, 3}};
  for (bool ovc_boundaries : {true, false}) {
    RunScan scan(&schema, &run);
    QueryCounters counters;
    InStreamAggregate::Options options;
    options.use_ovc_boundaries = ovc_boundaries;
    InStreamAggregate agg(&scan, /*group_prefix=*/2, aggs, &counters,
                          options);
    EXPECT_EQ(ExpectCapacityInvariant(&agg).size(), 16u);
  }
}

TEST(CapacityInvariance, InSortAggregateResidentAndSpilled) {
  Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 3000, 6, /*seed=*/6);
  TempFileManager temp;
  RowVec resident_rows;
  for (uint64_t memory_rows : {uint64_t{1} << 20, uint64_t{64}}) {
    SCOPED_TRACE(memory_rows);
    BufferScan scan(&schema, &table);
    QueryCounters counters;
    SortConfig config;
    config.memory_rows = memory_rows;
    config.fan_in = 4;  // intermediate merge levels when spilled
    InSortAggregate agg(&scan, /*group_prefix=*/2,
                        {{AggFn::kCount, 0}, {AggFn::kSum, 3}}, &counters,
                        &temp, config);
    RowVec rows = ExpectCapacityInvariant(&agg);
    if (resident_rows.empty()) {
      resident_rows = rows;
      EXPECT_EQ(counters.rows_spilled, 0u);
    } else {
      EXPECT_EQ(rows, resident_rows);
      EXPECT_GT(counters.rows_spilled, 0u);
    }
  }
}

TEST(CapacityInvariance, HashAggregateResidentPartitionedAndFallback) {
  Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 3000, 6, /*seed=*/81);
  TempFileManager temp;
  const std::vector<AggregateSpec> aggs = {{AggFn::kCount, 0},
                                           {AggFn::kSum, 3}};
  RowVec expected;
  const std::pair<uint64_t, FallbackPolicy> cases[] = {
      {uint64_t{1} << 20, FallbackPolicy::kPartition},
      {16, FallbackPolicy::kPartition},
      {16, FallbackPolicy::kSortMerge},
  };
  for (const auto& [memory_groups, fallback] : cases) {
    SCOPED_TRACE(memory_groups);
    BufferScan scan(&schema, &table);
    QueryCounters counters;
    HashAggregate agg(&scan, /*group_prefix=*/3, aggs, memory_groups,
                      &counters, &temp, /*partitions=*/4, fallback);
    RowVec rows = ExpectCapacityInvariant(&agg, /*check_codes=*/false);
    Canonicalize(&rows);
    if (expected.empty()) expected = rows;
    EXPECT_EQ(rows, expected);
  }
}

TEST(CapacityInvariance, OrderPreservingHashJoinAllTypes) {
  Schema ps(2, 1), bs(2, 1);
  RowBuffer pt = MakeTable(ps, 600, 6, /*seed=*/61, /*sorted=*/true);
  RowBuffer bt = MakeTable(bs, 150, 6, /*seed=*/62);
  InMemoryRun prun = RunFromSorted(ps, pt);
  for (JoinTypeHash type : {JoinTypeHash::kInner, JoinTypeHash::kLeftOuter,
                            JoinTypeHash::kLeftSemi, JoinTypeHash::kLeftAnti}) {
    SCOPED_TRACE(static_cast<int>(type));
    RunScan pscan(&ps, &prun);
    BufferScan bscan(&bs, &bt);
    QueryCounters counters;
    OrderPreservingHashJoin join(&pscan, &bscan, /*bind_columns=*/2, type,
                                 /*memory_rows=*/1 << 20, &counters);
    ExpectCapacityInvariant(&join);
  }
}

TEST(CapacityInvariance, GraceHashJoinResidentPartitionedAndSortFallback) {
  Schema ps(2, 1), bs(2, 1);
  RowBuffer pt = MakeTable(ps, 2000, 12, /*seed=*/71);
  RowBuffer bt = MakeTable(bs, 1500, 12, /*seed=*/72);
  TempFileManager temp;
  for (JoinTypeHash type : {JoinTypeHash::kInner, JoinTypeHash::kLeftSemi}) {
    RowVec expected;
    const std::pair<uint64_t, FallbackPolicy> cases[] = {
        {uint64_t{1} << 20, FallbackPolicy::kPartition},
        {100, FallbackPolicy::kPartition},
        {100, FallbackPolicy::kSortMerge},
    };
    for (const auto& [memory_rows, fallback] : cases) {
      SCOPED_TRACE(memory_rows);
      BufferScan pscan(&ps, &pt), bscan(&bs, &bt);
      QueryCounters counters;
      GraceHashJoin join(&pscan, &bscan, /*bind_columns=*/2, type,
                         memory_rows, &counters, &temp, /*partitions=*/8,
                         fallback);
      RowVec rows = ExpectCapacityInvariant(&join, /*check_codes=*/false);
      EXPECT_EQ(counters.hash_join_fallbacks > 0,
                fallback == FallbackPolicy::kSortMerge && memory_rows == 100);
      Canonicalize(&rows);
      if (expected.empty()) expected = rows;
      EXPECT_EQ(rows, expected);
    }
  }
}

TEST(CapacityInvariance, NestedLoopsJoinAllTypes) {
  Schema os(2, 1), is(3, 1);
  RowBuffer ot = MakeTable(os, 300, 3, /*seed=*/51, /*sorted=*/true);
  RowBuffer it = MakeTable(is, 200, 3, /*seed=*/52, /*sorted=*/true);
  InMemoryRun orun = RunFromSorted(os, ot);
  InMemoryRun irun = RunFromSorted(is, it);
  for (JoinTypeNlj type : {JoinTypeNlj::kInner, JoinTypeNlj::kLeftOuter,
                           JoinTypeNlj::kLeftSemi, JoinTypeNlj::kLeftAnti}) {
    SCOPED_TRACE(static_cast<int>(type));
    RunScan oscan(&os, &orun);
    QueryCounters counters;
    RunLookupSource lookup(&is, &irun, /*bind_columns=*/2, &counters);
    NestedLoopsJoin join(&oscan, &lookup, type, &counters);
    ExpectCapacityInvariant(&join);
  }
}

TEST(CapacityInvariance, Pivot) {
  Schema schema(1, 2);  // group key; tag and value payloads
  RowBuffer table = MakeTable(schema, 2500, 5, /*seed=*/9, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  PivotOperator pivot(&scan, /*group_prefix=*/1, /*tag_col=*/1,
                      /*value_col=*/2, {0, 1, 2, 3});
  EXPECT_EQ(ExpectCapacityInvariant(&pivot).size(), 5u);
}

TEST(CapacityInvariance, LsmForestScansPlainAndCollapsing) {
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 2000, 8, /*seed=*/21);
  TempFileManager temp;
  for (bool collapse : {false, true}) {
    SCOPED_TRACE(collapse);
    LsmForest::Options options;
    options.memtable_rows = 300;
    options.collapse = collapse;
    if (collapse) options.collapse_fns = {StateMergeFn::kSum};
    LsmForest forest(&schema, nullptr, &temp, options);
    for (size_t i = 0; i < table.size(); ++i) forest.Insert(table.row(i));
    std::unique_ptr<Operator> scan = forest.ScanAll();
    RowVec rows = ExpectCapacityInvariant(scan.get());
    EXPECT_EQ(rows.size(), collapse ? 64u : table.size());
  }
}

TEST(CapacityInvariance, RidScansMergesAndIntersection) {
  Schema table_schema(1, 2);
  RowBuffer table = MakeTable(table_schema, 3000, 4, /*seed=*/19);
  for (size_t i = 0; i < table.size(); ++i) {
    table.mutable_row(i)[1] = i % 7;
    table.mutable_row(i)[2] = i % 5;
  }
  RidIndex idx_a, idx_b;
  idx_a.Build(table, 1);
  idx_b.Build(table, 2);
  QueryCounters counters;

  std::unique_ptr<Operator> lookup = idx_a.Lookup(3);
  EXPECT_EQ(ExpectCapacityInvariant(lookup.get()).size(), 429u);
  std::unique_ptr<Operator> range = idx_a.RangeScan(2, 5, &counters);
  EXPECT_EQ(ExpectCapacityInvariant(range.get()).size(), 1714u);
  std::unique_ptr<Operator> multi = idx_b.MultiLookup({0, 4}, &counters);
  EXPECT_EQ(ExpectCapacityInvariant(multi.get()).size(), 1200u);

  std::unique_ptr<Operator> scan_a = idx_a.Lookup(3);
  std::unique_ptr<Operator> scan_b = idx_b.Lookup(2);
  std::unique_ptr<Operator> both =
      IntersectRidStreams(scan_a.get(), scan_b.get(), &counters);
  EXPECT_EQ(ExpectCapacityInvariant(both.get()).size(), 86u);
}

TEST(CapacityInvariance, MergeExchangeInlineAndThreaded) {
  Schema schema(2, 1);
  RowBuffer table = MakeTable(schema, 3000, 5, /*seed=*/93, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  for (bool threaded : {false, true}) {
    SCOPED_TRACE(threaded);
    RunScan scan(&schema, &run);
    std::vector<std::unique_ptr<RunScan>> scans;
    std::unique_ptr<SplitExchange> split;
    std::vector<Operator*> inputs;
    if (threaded) {
      // Producer threads need inputs of their own.
      for (int i = 0; i < 3; ++i) {
        scans.push_back(std::make_unique<RunScan>(&schema, &run));
        inputs.push_back(scans.back().get());
      }
    } else {
      // Inline: the merge pulls split partitions of one shared child.
      split = std::make_unique<SplitExchange>(
          &scan, 4, SplitExchange::Policy::kHashKey, nullptr);
      for (uint32_t i = 0; i < 4; ++i) inputs.push_back(split->partition(i));
    }
    MergeExchange::Options options;
    options.threaded = threaded;
    options.batch_rows = 100;
    QueryCounters counters;
    MergeExchange merge(inputs, &counters, options);
    EXPECT_EQ(ExpectCapacityInvariant(&merge).size(),
              table.size() * (threaded ? 3 : 1));
  }
}

TEST(OvcMergerBlocks, DevirtualizedMergerMatchesVirtualMerger) {
  Schema schema(2, 0);
  OvcCodec codec(&schema);
  KeyComparator comparator(&schema, nullptr);

  // Four sorted coded runs from disjoint-ish random tables.
  std::vector<std::unique_ptr<InMemoryRun>> runs;
  std::vector<RowBuffer> tables;
  for (uint64_t f = 0; f < 4; ++f) {
    tables.push_back(MakeTable(schema, 700 + 13 * f, 5, /*seed=*/53 + f,
                               /*sorted=*/true));
  }
  for (auto& t : tables) {
    runs.push_back(std::make_unique<InMemoryRun>(RunFromSorted(schema, t)));
  }

  // Virtual merger, row at a time.
  std::vector<InMemoryRunSource> va{InMemoryRunSource(runs[0].get()),
                                    InMemoryRunSource(runs[1].get()),
                                    InMemoryRunSource(runs[2].get()),
                                    InMemoryRunSource(runs[3].get())};
  std::vector<MergeSource*> vsources{&va[0], &va[1], &va[2], &va[3]};
  OvcMerger virtual_merger(&codec, &comparator, vsources);
  RowVec rows_virtual;
  std::vector<Ovc> codes_virtual;
  RowRef ref;
  while (virtual_merger.Next(&ref)) {
    rows_virtual.emplace_back(ref.cols, ref.cols + schema.total_columns());
    codes_virtual.push_back(ref.ovc);
  }

  // Devirtualized merger, block-sized output with an odd block size.
  std::vector<InMemoryRunSource> da{InMemoryRunSource(runs[0].get()),
                                    InMemoryRunSource(runs[1].get()),
                                    InMemoryRunSource(runs[2].get()),
                                    InMemoryRunSource(runs[3].get())};
  std::vector<InMemoryRunSource*> dsources{&da[0], &da[1], &da[2], &da[3]};
  OvcMergerT<InMemoryRunSource> devirt_merger(&codec, &comparator, dsources);
  OvcStreamChecker checker(&schema);
  RowVec rows_devirt;
  std::vector<Ovc> codes_devirt;
  RowBlock block(schema.total_columns(), 37);
  uint32_t n;
  while ((n = devirt_merger.NextBlock(&block)) > 0) {
    for (uint32_t i = 0; i < n; ++i) {
      rows_devirt.emplace_back(block.row(i),
                               block.row(i) + schema.total_columns());
      codes_devirt.push_back(block.code(i));
      ASSERT_TRUE(checker.Observe(block.row(i), block.code(i)))
          << checker.error();
    }
  }

  EXPECT_EQ(rows_devirt, rows_virtual);
  EXPECT_EQ(codes_devirt, codes_virtual);
  EXPECT_TRUE(checker.ok()) << checker.error();
}

}  // namespace
}  // namespace ovc
