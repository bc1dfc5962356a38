// Unary order-preserving operators: filter (Table 3), projection, duplicate
// removal, grouping/aggregation (Figure 4 semantics), pivot.

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "exec/aggregate.h"
#include "exec/dedup.h"
#include "exec/filter.h"
#include "exec/pivot.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort_operator.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::AppendRows;
using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::RunFromSorted;

TEST(Filter, Table3Golden) {
  // Table 3: of Table 1's rows, only the first and last pass the filter;
  // the survivors' codes are exactly the table's 405 and 309.
  Schema schema(4);
  RowBuffer rows(4);
  AppendRows(&rows, {
                        {5, 7, 3, 9},
                        {5, 7, 3, 12},
                        {5, 8, 4, 6},
                        {5, 9, 2, 7},
                        {5, 9, 2, 7},
                        {5, 9, 3, 4},
                        {5, 9, 3, 7},
                    });
  InMemoryRun run = RunFromSorted(schema, rows);
  RunScan scan(&schema, &run);
  uint64_t index = 0;
  FilterOperator filter(&scan, [&index](const uint64_t*) {
    return index++ == 0 || index == 7;  // keep rows 0 and 6
  });
  OvcCodec codec(&schema);
  filter.Open();
  RowBlock block(schema.total_columns());
  ASSERT_EQ(filter.NextBatch(&block), 2u);
  EXPECT_EQ(block.row(0)[3], 9u);
  EXPECT_EQ(codec.OffsetOf(block.code(0)), 0u);  // "4 5 405": arity-offset 4
  EXPECT_EQ(OvcCodec::ValueOf(block.code(0)), 5u);
  EXPECT_EQ(block.row(1)[1], 9u);
  EXPECT_EQ(codec.OffsetOf(block.code(1)), 1u);  // "3 9 309": arity-offset 3
  EXPECT_EQ(OvcCodec::ValueOf(block.code(1)), 9u);
  EXPECT_EQ(filter.NextBatch(&block), 0u);
  filter.Close();
}

struct FilterParam {
  uint64_t rows;
  uint64_t distinct;
  uint64_t keep_modulus;  // keep rows whose payload % modulus == 0
};

class FilterPropertyTest : public ::testing::TestWithParam<FilterParam> {};

TEST_P(FilterPropertyTest, OutputCodesValidAndNoComparisons) {
  const auto p = GetParam();
  Schema schema(4, 1);
  RowBuffer table =
      MakeTable(schema, p.rows, p.distinct, /*seed=*/p.rows, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  QueryCounters counters;
  FilterOperator filter(&scan, [&p](const uint64_t* row) {
    return row[4] % p.keep_modulus == 0;
  });
  RowVec out = DrainValidated(&filter);
  uint64_t expected = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    if (table.row(i)[4] % p.keep_modulus == 0) ++expected;
  }
  EXPECT_EQ(out.size(), expected);
  // Deriving output codes costs zero column comparisons.
  EXPECT_EQ(counters.column_comparisons, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FilterPropertyTest,
    ::testing::Values(FilterParam{1000, 3, 2}, FilterParam{1000, 3, 7},
                      FilterParam{1000, 2, 1000}, FilterParam{500, 100, 3},
                      FilterParam{1000, 3, 1}),
    [](const ::testing::TestParamInfo<FilterParam>& info) {
      return "rows" + std::to_string(info.param.rows) + "_mod" +
             std::to_string(info.param.keep_modulus);
    });

TEST(Project, KeyPrefixSurvivesWithClampedCodes) {
  Schema in(4, 1);
  RowBuffer table = MakeTable(in, 800, 3, /*seed=*/8, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(in, table);
  RunScan scan(&in, &run);
  // Keep key columns 0,1 and the payload.
  Schema out(2, 1);
  ProjectOperator project(&scan, out, {0, 1, 4});
  EXPECT_TRUE(project.sorted());
  EXPECT_TRUE(project.has_ovc());
  RowVec got = DrainValidated(&project);
  EXPECT_EQ(got.size(), table.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i][2], table.row(i)[4]);
  }
}

TEST(Project, NonPrefixProjectionLosesOrder) {
  Schema in(4, 0);
  RowBuffer table = MakeTable(in, 100, 3, /*seed=*/9, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(in, table);
  RunScan scan(&in, &run);
  Schema out(2, 0);
  ProjectOperator project(&scan, out, {2, 3});  // not a key prefix
  EXPECT_FALSE(project.sorted());
  EXPECT_FALSE(project.has_ovc());
  RowVec got = DrainValidated(&project, /*check_codes=*/false);
  EXPECT_EQ(got.size(), table.size());
}

TEST(Dedup, RemovesExactKeyDuplicatesCodeOnly) {
  Schema schema(3);
  RowBuffer table = MakeTable(schema, 2000, 2, /*seed=*/4, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  QueryCounters counters;
  DedupOperator dedup(&scan);
  RowVec out = DrainValidated(&dedup);
  // Reference: distinct keys.
  RowVec expected = ::ovc::testing::ToRowVec(table);
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  EXPECT_EQ(out, expected);
  EXPECT_EQ(dedup.duplicates_dropped(), table.size() - out.size());
  EXPECT_EQ(counters.column_comparisons, 0u);
  // With domain 2 and 2000 rows there must be duplicates.
  EXPECT_GT(dedup.duplicates_dropped(), 0u);
}

struct AggParam {
  uint64_t groups;
  uint64_t rows_per_group;
  bool use_ovc_boundaries;
};

class AggregateTest : public ::testing::TestWithParam<AggParam> {};

TEST_P(AggregateTest, GroupsAndAggregatesMatchReference) {
  const auto p = GetParam();
  Schema schema(4, 1);
  RowBuffer table(schema.total_columns());
  GenerateGroupedRows(schema, p.groups, p.rows_per_group,
                      /*distinct_per_column=*/6, /*seed=*/p.groups, &table);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);

  QueryCounters counters;
  InStreamAggregate::Options options;
  options.use_ovc_boundaries = p.use_ovc_boundaries;
  InStreamAggregate agg(
      &scan, /*group_prefix=*/4,
      {{AggFn::kCount, 0}, {AggFn::kSum, 4}, {AggFn::kMin, 4},
       {AggFn::kMax, 4}},
      &counters, options);
  RowVec out = DrainValidated(&agg, /*check_codes=*/true);
  ASSERT_EQ(out.size(), p.groups);
  for (const auto& row : out) {
    EXPECT_EQ(row[4], p.rows_per_group);          // count
    EXPECT_EQ(row[6], row[7] - p.rows_per_group + 1)  // min = max-(n-1):
        << "payload is a running row number within the generator";
    EXPECT_EQ(row[5],
              (row[6] + row[7]) * p.rows_per_group / 2);  // sum of range
  }
  if (p.use_ovc_boundaries) {
    // Boundary detection costs no column comparisons.
    EXPECT_EQ(counters.column_comparisons, 0u);
  } else if (p.groups * p.rows_per_group > p.groups) {
    EXPECT_GT(counters.column_comparisons, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AggregateTest,
    ::testing::Values(AggParam{50, 1, true}, AggParam{50, 20, true},
                      AggParam{1, 100, true}, AggParam{200, 3, true},
                      AggParam{50, 20, false}, AggParam{200, 3, false}),
    [](const ::testing::TestParamInfo<AggParam>& info) {
      return "groups" + std::to_string(info.param.groups) + "_size" +
             std::to_string(info.param.rows_per_group) +
             (info.param.use_ovc_boundaries ? "_ovc" : "_baseline");
    });

TEST(Aggregate, GroupPrefixShorterThanKey) {
  // Group on a prefix of the sort key; output codes clamp to the prefix.
  Schema schema(4);
  RowBuffer table = MakeTable(schema, 1000, 3, /*seed=*/6, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  QueryCounters counters;
  InStreamAggregate agg(&scan, /*group_prefix=*/2, {{AggFn::kCount, 0}},
                        &counters);
  RowVec out = DrainValidated(&agg);
  // Reference group count.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> reference;
  for (size_t i = 0; i < table.size(); ++i) {
    ++reference[{table.row(i)[0], table.row(i)[1]}];
  }
  ASSERT_EQ(out.size(), reference.size());
  for (const auto& row : out) {
    EXPECT_EQ(row[2], (reference[{row[0], row[1]}]));
  }
  EXPECT_EQ(counters.column_comparisons, 0u);
}

TEST(Pivot, RowsToColumns) {
  // (year, month, sales) -> (year, jan..apr sales).
  Schema schema(2, 1);  // keys: year, month; payload: sales
  RowBuffer table(3);
  AppendRows(&table, {
                         {2020, 1, 10},
                         {2020, 1, 5},
                         {2020, 3, 7},
                         {2021, 2, 20},
                         {2021, 4, 9},
                         {2021, 9, 99},  // unknown tag: ignored
                     });
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  PivotOperator pivot(&scan, /*group_prefix=*/1, /*tag_col=*/1,
                      /*value_col=*/2, {1, 2, 3, 4});
  RowVec out = DrainValidated(&pivot);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (::ovc::testing::Row({2020, 15, 0, 7, 0})));
  EXPECT_EQ(out[1], (::ovc::testing::Row({2021, 0, 20, 0, 9})));
}

TEST(SortOperator, EndToEndWithScan) {
  Schema schema(3, 1);
  RowBuffer table = MakeTable(schema, 3000, 4, /*seed=*/12);
  BufferScan scan(&schema, &table);
  QueryCounters counters;
  TempFileManager temp;
  SortConfig config;
  config.memory_rows = 256;
  SortOperator sort(&scan, &counters, &temp, config);
  RowVec out = DrainValidated(&sort);
  RowVec expected = ::ovc::testing::ReferenceSort(schema, table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
  EXPECT_GT(sort.spilled_runs(), 0u);
}

}  // namespace
}  // namespace ovc
