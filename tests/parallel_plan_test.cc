// Exchange-parallel planning (Section 4.10): the planner's partitioned
// plan shapes -- parallel sort, parallel aggregation over co-located
// groups, co-partitioned parallel merge join -- validated row for row
// against the single-threaded oracle plans, with OvcStreamChecker
// verifying the merged output stream and per-worker counters rolling up
// exactly.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "plan/logical_plan.h"
#include "plan/plan_executor.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using plan::BufferSource;
using plan::ExecutionResult;
using plan::LogicalNode;
using plan::PhysicalAlg;
using plan::PhysicalPlan;
using plan::PlanBuilder;
using plan::PlanExecutor;
using plan::Planner;
using plan::PlannerOptions;
using plan::RunSource;
using ::ovc::testing::Canonicalize;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

class ParallelPlanTest : public ::testing::TestWithParam<bool> {
 protected:
  ParallelPlanTest()
      : schema_(2, 1),
        table_(MakeTable(schema_, 3000, 6, /*seed=*/11)),
        sorted_left_(MakeTable(schema_, 2000, 8, /*seed=*/12,
                               /*sorted=*/true)),
        sorted_right_(MakeTable(schema_, 1500, 8, /*seed=*/13,
                                /*sorted=*/true)),
        left_run_(testing::RunFromSorted(schema_, sorted_left_)),
        right_run_(testing::RunFromSorted(schema_, sorted_right_)) {}

  /// Runs `build()` twice -- serial oracle and parallel -- and returns
  /// both validated results plus the parallel physical plan's algorithms.
  struct Comparison {
    ExecutionResult serial;
    ExecutionResult parallel;
    const PhysicalPlan* parallel_plan;
  };

  Comparison RunBoth(const std::function<std::unique_ptr<LogicalNode>()>&
                         build,
                     PlannerOptions base = {}) {
    Comparison c;
    {
      PlannerOptions serial = base;
      serial.parallelism = 1;
      PlanExecutor::Options options;
      options.planner = serial;
      options.validate = true;
      PlanExecutor executor(&serial_counters_, &temp_, options);
      auto logical = build();
      c.serial = executor.Run(logical.get());
      EXPECT_TRUE(c.serial.ok()) << c.serial.validation_error;
    }
    {
      PlannerOptions par = base;
      par.parallelism = 4;
      par.exchange.threaded = GetParam();
      par.exchange.batch_rows = 128;
      PlanExecutor::Options options;
      options.planner = par;
      options.validate = true;
      parallel_executor_ =
          std::make_unique<PlanExecutor>(&parallel_counters_, &temp_, options);
      parallel_logical_ = build();
      c.parallel = parallel_executor_->Run(parallel_logical_.get());
      EXPECT_TRUE(c.parallel.ok()) << c.parallel.validation_error;
      c.parallel_plan = parallel_executor_->last_plan();
    }
    return c;
  }

  static void ExpectPartitioned(const PhysicalPlan& plan) {
    EXPECT_TRUE(plan.Uses(PhysicalAlg::kSplitExchange));
    EXPECT_TRUE(plan.Uses(PhysicalAlg::kMergeExchange));
    EXPECT_EQ(plan.parallel_workers(), 4u);
  }

  Schema schema_;
  RowBuffer table_;
  RowBuffer sorted_left_;
  RowBuffer sorted_right_;
  InMemoryRun left_run_;
  InMemoryRun right_run_;
  QueryCounters serial_counters_;
  QueryCounters parallel_counters_;
  TempFileManager temp_;
  std::unique_ptr<PlanExecutor> parallel_executor_;
  std::unique_ptr<LogicalNode> parallel_logical_;
};

TEST_P(ParallelPlanTest, ParallelSortMatchesSerialOracle) {
  auto c = RunBoth([this] {
    return PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
        .Sort()
        .Build();
  });
  ExpectPartitioned(*c.parallel_plan);
  EXPECT_TRUE(c.parallel_plan->Uses(PhysicalAlg::kSort));
  // Both streams were OvcStreamChecker-validated row for row by the
  // executor; contents must agree as multisets (equal-key rows may
  // interleave differently across partitions).
  RowVec serial = ToRowVec(c.serial.rows);
  RowVec parallel = ToRowVec(c.parallel.rows);
  EXPECT_EQ(parallel.size(), 3000u);
  Canonicalize(&serial);
  Canonicalize(&parallel);
  EXPECT_EQ(serial, parallel);
}

TEST_P(ParallelPlanTest, ParallelInSortAggregateMatchesSerialOracle) {
  PlannerOptions base;
  base.prefer_sort_based = true;  // unsorted input -> in-sort aggregation
  auto c = RunBoth(
      [this] {
        return PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
            .Aggregate(2, {{AggFn::kCount, 0}, {AggFn::kSum, 2}})
            .Build();
      },
      base);
  ExpectPartitioned(*c.parallel_plan);
  EXPECT_TRUE(c.parallel_plan->Uses(PhysicalAlg::kInSortAggregate));
  // Group keys are unique, so the merged order is fully deterministic:
  // exact row-for-row equality against the oracle.
  EXPECT_EQ(ToRowVec(c.parallel.rows), ToRowVec(c.serial.rows));
}

TEST_P(ParallelPlanTest, ParallelInStreamAggregateMatchesSerialOracle) {
  auto c = RunBoth([this] {
    return PlanBuilder::Scan(RunSource("sorted", &schema_, &left_run_))
        .Aggregate(1, {{AggFn::kCount, 0}, {AggFn::kMax, 2}})
        .Build();
  });
  ExpectPartitioned(*c.parallel_plan);
  EXPECT_TRUE(c.parallel_plan->Uses(PhysicalAlg::kInStreamAggregate));
  EXPECT_EQ(ToRowVec(c.parallel.rows), ToRowVec(c.serial.rows));
}

TEST_P(ParallelPlanTest, CoPartitionedMergeJoinMatchesSerialOracle) {
  auto c = RunBoth([this] {
    return PlanBuilder::Scan(RunSource("l", &schema_, &left_run_))
        .Join(PlanBuilder::Scan(RunSource("r", &schema_, &right_run_)),
              JoinType::kInner)
        .Build();
  });
  ExpectPartitioned(*c.parallel_plan);
  EXPECT_TRUE(c.parallel_plan->Uses(PhysicalAlg::kMergeJoin));
  RowVec serial = ToRowVec(c.serial.rows);
  RowVec parallel = ToRowVec(c.parallel.rows);
  EXPECT_EQ(serial.size(), parallel.size());
  Canonicalize(&serial);
  Canonicalize(&parallel);
  EXPECT_EQ(serial, parallel);
}

TEST_P(ParallelPlanTest, ParallelJoinOverUnsortedInputsInsertsSortsFirst) {
  // Sort-based fallback composes with the parallel shape: the
  // planner-inserted sorts become the splits' children -- below the
  // exchanges, running on producer threads with region counters -- and
  // the co-partitioned parallel join consumes their sorted coded output.
  PlannerOptions base;
  base.prefer_sort_based = true;
  auto c = RunBoth(
      [this] {
        RowBuffer* t = &table_;
        return PlanBuilder::Scan(BufferSource("l", &schema_, t))
            .Join(PlanBuilder::Scan(BufferSource("r", &schema_, t)),
                  JoinType::kLeftOuter)
            .Build();
      },
      base);
  ExpectPartitioned(*c.parallel_plan);
  EXPECT_EQ(c.parallel_plan->inserted_sorts(), 2u);
  RowVec serial = ToRowVec(c.serial.rows);
  RowVec parallel = ToRowVec(c.parallel.rows);
  Canonicalize(&serial);
  Canonicalize(&parallel);
  EXPECT_EQ(serial, parallel);
}

TEST_P(ParallelPlanTest, WorkerCountersRollUpExactly) {
  // Threaded and inline execution of the same parallel plan must account
  // identical comparison totals after the roll-up: the producer threads
  // only move rows, all metered work lands in some counters instance, and
  // none of it is lost or double-counted.
  // Two shapes: parallel sort, and -- the hard case -- a parallel merge
  // join over unsorted inputs, whose planner-inserted sorts sit *below*
  // the splitting exchanges and therefore run on producer threads (they
  // must be metered by region counters, never the session counters the
  // consumer-side merge uses concurrently).
  std::vector<std::function<std::unique_ptr<LogicalNode>()>> builds = {
      [this] {
        return PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
            .Sort()
            .Build();
      },
      [this] {
        return PlanBuilder::Scan(BufferSource("l", &schema_, &table_))
            .Join(PlanBuilder::Scan(BufferSource("r", &schema_, &table_)),
                  JoinType::kLeftSemi)
            .Build();
      }};
  QueryCounters threaded_counters, inline_counters;
  for (bool threaded : {true, false}) {
    PlannerOptions par;
    par.parallelism = 3;
    par.prefer_sort_based = true;  // join over unsorted -> sorts + merge
    par.exchange.threaded = threaded;
    PlanExecutor::Options options;
    options.planner = par;
    options.validate = false;
    QueryCounters* counters =
        threaded ? &threaded_counters : &inline_counters;
    PlanExecutor executor(counters, &temp_, options);
    for (auto& build : builds) {
      auto logical = build();
      ExecutionResult result = executor.Run(logical.get());
      EXPECT_EQ(result.row_count(), 3000u);
      // Worker counters were folded into the session counters and reset.
      for (const auto& wc : executor.last_plan()->worker_counters()) {
        EXPECT_EQ(wc->column_comparisons, 0u);
        EXPECT_EQ(wc->row_comparisons, 0u);
      }
    }
  }
  EXPECT_GT(threaded_counters.column_comparisons, 0u);
  EXPECT_EQ(threaded_counters.column_comparisons,
            inline_counters.column_comparisons);
  EXPECT_EQ(threaded_counters.row_comparisons,
            inline_counters.row_comparisons);
  EXPECT_EQ(threaded_counters.code_comparisons,
            inline_counters.code_comparisons);
}

TEST_P(ParallelPlanTest, ParallelPlanSupportsRepeatedRuns) {
  // The exchanges' lifecycle fixes in one picture: the same physical plan
  // re-opened end to end (MergeExchange re-open, SplitExchange child
  // rescan) produces the same validated result twice.
  PlannerOptions par;
  par.parallelism = 4;
  par.exchange.threaded = GetParam();
  PlanExecutor::Options options;
  options.planner = par;
  options.validate = true;
  PlanExecutor executor(nullptr, &temp_, options);
  auto logical = PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
                     .Sort()
                     .Build();
  PhysicalPlan plan = executor.Plan(logical.get());
  ExecutionResult first = executor.Run(&plan);
  ExecutionResult second = executor.Run(&plan);
  EXPECT_TRUE(first.ok()) << first.validation_error;
  EXPECT_TRUE(second.ok()) << second.validation_error;
  EXPECT_EQ(ToRowVec(first.rows), ToRowVec(second.rows));
  EXPECT_EQ(first.row_count(), 3000u);
}

TEST_P(ParallelPlanTest, PlanDestroyedMidStreamWithoutClose) {
  // Error-path teardown: a parallel plan destroyed after Open() with rows
  // still in flight (no Close()) must join its producer threads before
  // the worker operators they drive are freed -- PhysicalPlan destroys
  // operators in reverse construction order, parents first.
  PlannerOptions par;
  par.parallelism = 4;
  par.exchange.threaded = GetParam();
  par.exchange.queue_batches = 1;
  par.exchange.batch_rows = 16;
  Planner planner(nullptr, &temp_, par);
  auto logical = PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
                     .Sort()
                     .Build();
  {
    PhysicalPlan plan = planner.Plan(logical.get());
    plan.root()->Open();
    RowBlock block(plan.root()->schema().total_columns(), 10);
    ASSERT_EQ(plan.root()->NextBatch(&block), 10u);
    // ~PhysicalPlan with live producers blocked on tight queues.
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ParallelPlanTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "threaded" : "inline";
                         });

}  // namespace
}  // namespace ovc
