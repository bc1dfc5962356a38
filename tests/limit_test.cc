// LimitOperator: truncation semantics, order/code pass-through, and the
// batched path truncating mid-block.

#include <vector>

#include <gtest/gtest.h>

#include "core/ovc_checker.h"
#include "exec/limit.h"
#include "exec/scan.h"
#include "exec/sort_operator.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::RunFromSorted;

TEST(Limit, ZeroEmitsNothing) {
  Schema schema(2);
  RowBuffer table = MakeTable(schema, 100, 4, /*seed=*/3);
  BufferScan scan(&schema, &table);
  LimitOperator limit(&scan, 0);

  EXPECT_EQ(DrainAndCount(&limit), 0u);

  // One-row blocks agree.
  EXPECT_TRUE(DrainValidated(&limit, /*check_codes=*/false, 1).empty());
}

TEST(Limit, BeyondInputPassesEverythingThrough) {
  Schema schema(2);
  RowBuffer table = MakeTable(schema, 123, 4, /*seed=*/5);
  BufferScan scan(&schema, &table);
  LimitOperator limit(&scan, 10'000);

  EXPECT_EQ(DrainAndCount(&limit), 123u);
}

TEST(Limit, PreservesOrderAndCodes) {
  Schema schema(3);
  RowBuffer table = MakeTable(schema, 500, 4, /*seed=*/7, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  LimitOperator limit(&scan, 77);

  EXPECT_TRUE(limit.sorted());
  EXPECT_TRUE(limit.has_ovc());

  // DrainValidated feeds every surviving row through OvcStreamChecker: the
  // truncated stream must still be sorted with correct codes.
  RowVec rows = DrainValidated(&limit);
  ASSERT_EQ(rows.size(), 77u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], std::vector<uint64_t>(
                           table.row(i), table.row(i) + schema.total_columns()));
  }
}

TEST(Limit, BatchedPathTruncatesMidBlock) {
  Schema schema(2);
  RowBuffer table = MakeTable(schema, 300, 5, /*seed=*/9, /*sorted=*/true);
  InMemoryRun run = RunFromSorted(schema, table);
  RunScan scan(&schema, &run);
  // 130 = 2 full blocks of 50 + a 30-row truncation mid-block.
  LimitOperator limit(&scan, 130);

  limit.Open();
  OvcStreamChecker checker(&schema);
  RowBlock block(schema.total_columns(), /*capacity_rows=*/50);
  std::vector<uint32_t> block_sizes;
  uint32_t n;
  uint64_t total = 0;
  while ((n = limit.NextBatch(&block)) > 0) {
    block_sizes.push_back(n);
    for (uint32_t i = 0; i < n; ++i) {
      EXPECT_TRUE(checker.Observe(block.row(i), block.code(i)))
          << checker.error();
    }
    total += n;
  }
  // Exhausted limits keep answering 0.
  EXPECT_EQ(limit.NextBatch(&block), 0u);
  limit.Close();

  EXPECT_EQ(total, 130u);
  ASSERT_EQ(block_sizes.size(), 3u);
  EXPECT_EQ(block_sizes[0], 50u);
  EXPECT_EQ(block_sizes[1], 50u);
  EXPECT_EQ(block_sizes[2], 30u);  // truncated mid-block
  EXPECT_TRUE(checker.ok()) << checker.error();
}

TEST(Limit, RescanResetsTheCount) {
  Schema schema(2);
  RowBuffer table = MakeTable(schema, 50, 4, /*seed=*/11);
  BufferScan scan(&schema, &table);
  LimitOperator limit(&scan, 20);

  EXPECT_EQ(DrainAndCount(&limit), 20u);
  EXPECT_EQ(DrainAndCount(&limit), 20u);  // Open() resets emitted_
}

}  // namespace
}  // namespace ovc
