// Figure 6-style spill-stress suite: the same queries raced down a ladder
// of shrinking memory budgets, sort-based against hash-based plans, at
// parallelism 1 and 4. Every constrained run must produce exactly the
// rows of an unconstrained oracle run -- graceful degradation changes
// *how* a query executes (partition spills, mid-query hash->sort
// fallback), never *what* it returns -- and the spill/fallback counters
// must show the degradation actually happened.

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "exec/fallback_policy.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/scan.h"
#include "plan/plan_executor.h"
#include "sql/catalog.h"
#include "sql/session.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::ClaimTinyInputs;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

// Tables sized so the constrained budgets below are badly wrong: the
// aggregate sees 2000 groups, the join builds 2000 rows.
constexpr uint64_t kFactRows = 40000;
constexpr uint64_t kDimRows = 2000;
constexpr uint64_t kDistinctKeys = 2000;

constexpr const char* kAggregateQuery =
    "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k";
constexpr const char* kJoinQuery =
    "SELECT f.k, f.v, d.p FROM fact f JOIN dim d ON f.k = d.k";

class SpillStressTest : public ::testing::Test {
 protected:
  void RegisterTables(sql::Catalog* catalog) {
    sql::Catalog::GeneratedSpec spec;
    spec.distinct_per_column = kDistinctKeys;
    spec.seed = 7;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("fact", {"k", "v"}, Schema(1, 1),
                                        kFactRows, spec)
                    .ok());
    spec.seed = 8;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("dim", {"k", "p"}, Schema(1, 1),
                                        kDimRows, spec)
                    .ok());
  }

  /// Runs `query` under `options`, returning the canonicalized rows and
  /// (optionally) the session counters the run accumulated. `hash_plan`
  /// makes the catalog claim tiny inputs, so the planner picks the hash
  /// join or hash aggregate and the real input overflows its budget.
  RowVec RunQuery(const sql::SqlSession::Options& options,
                  const std::string& query,
                  QueryCounters* counters_out = nullptr,
                  bool hash_plan = false) {
    sql::Catalog catalog;
    RegisterTables(&catalog);
    sql::SqlSession session(&catalog, options);
    if (hash_plan) {
      ClaimTinyInputs(&catalog, {"fact", "dim"});
      sql::SqlResult<std::string> plan = session.Explain(query);
      EXPECT_TRUE(plan.ok() && (plan.value().find("hash-aggregate") !=
                                    std::string::npos ||
                                plan.value().find("hash-join(grace)") !=
                                    std::string::npos))
          << (plan.ok() ? plan.value() : plan.error().message);
    }
    sql::SqlResult<sql::QueryResult> got = session.Run(query);
    EXPECT_TRUE(got.ok()) << got.error().Render(query);
    if (!got.ok()) return {};
    if (counters_out != nullptr) *counters_out = *session.counters();
    RowVec rows = ToRowVec(got.value().result.rows);
    Canonicalize(&rows);
    return rows;
  }

  static sql::SqlSession::Options BaseOptions(uint32_t parallelism) {
    sql::SqlSession::Options options;
    options.validate = true;
    options.abort_on_violation = false;
    options.planner.parallelism = parallelism;
    return options;
  }
};

TEST_F(SpillStressTest, AggregateBudgetLadderMatchesOracle) {
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    const RowVec oracle = RunQuery(BaseOptions(parallelism), kAggregateQuery);
    ASSERT_EQ(oracle.size(), kDistinctKeys);

    for (uint64_t budget : {64u, 512u, 4096u}) {
      SCOPED_TRACE("hash budget " + std::to_string(budget));
      // Claimed-tiny inputs pin the hash-aggregate plan regardless of the
      // budget -- with true statistics the planner would sidestep the
      // stress by flipping to in-sort aggregation at plan time.
      sql::SqlSession::Options options = BaseOptions(parallelism);
      options.planner.hash_memory_rows = budget;
      QueryCounters counters;
      const RowVec rows =
          RunQuery(options, kAggregateQuery, &counters, /*hash_plan=*/true);
      EXPECT_EQ(rows, oracle);
      // Parallel plans split the groups across `parallelism` aggregate
      // instances; only when even a perfect split overflows every
      // instance's budget is a fallback guaranteed.
      if (budget * parallelism < kDistinctKeys) {
        EXPECT_GT(counters.hash_agg_fallbacks, 0u);
      } else if (budget >= kDistinctKeys) {
        EXPECT_EQ(counters.hash_agg_fallbacks, 0u);
      }
    }
  }
}

TEST_F(SpillStressTest, JoinBudgetLadderMatchesOracle) {
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    const RowVec oracle = RunQuery(BaseOptions(parallelism), kJoinQuery);
    ASSERT_FALSE(oracle.empty());

    for (uint64_t budget : {64u, 512u, 4096u}) {
      SCOPED_TRACE("hash budget " + std::to_string(budget));
      sql::SqlSession::Options options = BaseOptions(parallelism);
      options.planner.hash_memory_rows = budget;
      QueryCounters counters;
      const RowVec rows =
          RunQuery(options, kJoinQuery, &counters, /*hash_plan=*/true);
      EXPECT_EQ(rows, oracle);
      // Same split-aware bound as the aggregate ladder, over the build
      // side's rows.
      if (budget * parallelism < kDimRows) {
        EXPECT_GT(counters.hash_join_fallbacks, 0u);
      } else if (budget >= kDimRows) {
        EXPECT_EQ(counters.hash_join_fallbacks, 0u);
      }
    }
  }
}

TEST_F(SpillStressTest, PartitionPolicyRacesSortMergeDownTheLadder) {
  // The same ladder with the classic grace-partition policy: both
  // degradation strategies must agree with the oracle; partitioning shows
  // up as spilled bytes instead of fallbacks.
  const RowVec oracle = RunQuery(BaseOptions(1), kJoinQuery);
  for (uint64_t budget : {64u, 512u}) {
    SCOPED_TRACE("hash budget " + std::to_string(budget));
    sql::SqlSession::Options options = BaseOptions(1);
    options.planner.hash_memory_rows = budget;
    options.planner.fallback = FallbackPolicy::kPartition;
    QueryCounters counters;
    const RowVec rows =
        RunQuery(options, kJoinQuery, &counters, /*hash_plan=*/true);
    EXPECT_EQ(rows, oracle);
    EXPECT_EQ(counters.hash_join_fallbacks, 0u);
    EXPECT_GT(counters.bytes_spilled, 0u);
  }
}

TEST_F(SpillStressTest, SortBudgetLadderSpillsAndMatchesOracle) {
  // The sort-based side of the race: ORDER BY the fact table under
  // shrinking sort workspaces. Small budgets must spill runs (visible in
  // bytes_spilled) without changing a single output row.
  const std::string query = "SELECT k, v FROM fact ORDER BY k";
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    const RowVec oracle = RunQuery(BaseOptions(parallelism), query);
    ASSERT_EQ(oracle.size(), kFactRows);

    for (uint64_t budget : {256u, 1024u, 4096u}) {
      SCOPED_TRACE("sort budget " + std::to_string(budget));
      sql::SqlSession::Options options = BaseOptions(parallelism);
      options.planner.sort_config.memory_rows = budget;
      QueryCounters counters;
      const RowVec rows = RunQuery(options, query, &counters);
      EXPECT_EQ(rows, oracle);
      EXPECT_GT(counters.bytes_spilled, 0u);
    }
  }
}

TEST_F(SpillStressTest, FallbackSortInheritsSortBudgetAndStillAgrees) {
  // Both budgets constrained at once: the hash operators overflow and
  // fall back, and the fallback sorts themselves run under a tiny sort
  // workspace, so the continuation spills runs too.
  sql::SqlSession::Options options = BaseOptions(1);
  options.planner.hash_memory_rows = 64;
  options.planner.sort_config.memory_rows = 256;
  QueryCounters counters;
  const RowVec rows =
      RunQuery(options, kAggregateQuery, &counters, /*hash_plan=*/true);
  const RowVec oracle = RunQuery(BaseOptions(1), kAggregateQuery);
  EXPECT_EQ(rows, oracle);
  EXPECT_GT(counters.hash_agg_fallbacks, 0u);
  EXPECT_GT(counters.bytes_spilled, 0u);
}

/// Opens `op` and drains it without closing it.
RowVec DrainOpen(Operator* op) {
  const uint32_t width = op->schema().total_columns();
  op->Open();
  RowVec out;
  RowBlock block(width);
  while (op->NextBatch(&block) > 0) {
    for (uint32_t i = 0; i < block.size(); ++i) {
      out.emplace_back(block.row(i), block.row(i) + width);
    }
  }
  Canonicalize(&out);
  return out;
}

TEST_F(SpillStressTest, PartitionFilesGoAwayWithTheirQuery) {
  // Grace partitioning under a budget so small that partitions split again
  // and again. Each partition file is removed once it has been read back,
  // so a drained operator leaves the temp directory empty before it is
  // closed, and one destroyed mid-stream leaves nothing behind either.
  const Schema schema(1, 1);
  const RowBuffer fact = MakeTable(schema, kFactRows, kDistinctKeys, 7);
  const RowBuffer dim = MakeTable(schema, kDimRows, kDistinctKeys, 8);
  TempFileManager temp;
  const auto join = [&](BufferScan* probe, BufferScan* build,
                        uint64_t memory_rows, QueryCounters* counters) {
    return std::make_unique<GraceHashJoin>(
        probe, build, /*bind_columns=*/1, JoinTypeHash::kInner, memory_rows,
        counters, &temp, /*partitions=*/4, FallbackPolicy::kPartition);
  };
  const auto aggregate = [&](BufferScan* input, uint64_t memory_groups,
                             QueryCounters* counters) {
    return std::make_unique<HashAggregate>(
        input, /*group_prefix=*/1,
        std::vector<AggregateSpec>{{AggFn::kCount, 0}, {AggFn::kSum, 1}},
        memory_groups, counters, &temp, /*partitions=*/4,
        FallbackPolicy::kPartition);
  };

  BufferScan probe(&schema, &fact), build(&schema, &dim);
  QueryCounters counters;
  const RowVec joined =
      DrainOpen(join(&probe, &build, 1 << 20, &counters).get());
  ASSERT_EQ(counters.bytes_spilled, 0u);
  {
    auto op = join(&probe, &build, /*memory_rows=*/64, &counters);
    EXPECT_EQ(DrainOpen(op.get()), joined);
    EXPECT_GT(counters.bytes_spilled, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(temp.dir()));
    op->Close();
  }

  BufferScan input(&schema, &fact);
  counters = QueryCounters();
  const RowVec grouped =
      DrainOpen(aggregate(&input, 1 << 20, &counters).get());
  ASSERT_EQ(counters.bytes_spilled, 0u);
  {
    auto op = aggregate(&input, /*memory_groups=*/16, &counters);
    EXPECT_EQ(DrainOpen(op.get()), grouped);
    EXPECT_GT(counters.bytes_spilled, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(temp.dir()));
    op->Close();
  }

  // Abandoned after one block: the destructor removes what is left.
  {
    auto op = join(&probe, &build, /*memory_rows=*/64, &counters);
    op->Open();
    RowBlock block(op->schema().total_columns());
    ASSERT_GT(op->NextBatch(&block), 0u);
    EXPECT_FALSE(std::filesystem::is_empty(temp.dir()));
  }
  EXPECT_TRUE(std::filesystem::is_empty(temp.dir()));
  {
    auto op = aggregate(&input, /*memory_groups=*/16, &counters);
    op->Open();
    RowBlock block(op->schema().total_columns());
    ASSERT_GT(op->NextBatch(&block), 0u);
    EXPECT_FALSE(std::filesystem::is_empty(temp.dir()));
  }
  EXPECT_TRUE(std::filesystem::is_empty(temp.dir()));
}

}  // namespace
}  // namespace ovc
