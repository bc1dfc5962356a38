// Exchange-parallel planning (Section 4.10): the planner's partitioned
// plan shapes -- parallel sort, parallel aggregation over co-located
// groups, co-partitioned parallel merge join -- validated row for row
// against the single-threaded oracle plans, with OvcStreamChecker
// verifying the merged output stream and per-worker counters rolling up
// exactly.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
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
        join_table_(MakeTable(schema_, 3000, 40, /*seed=*/14)),
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
  RowBuffer join_table_;
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
  // Sort-based fallback composes with the parallel shape: the splits
  // partition the raw inputs, and each planner-inserted sort runs once per
  // worker above its partition stream -- the worker's own sort produces
  // its partition's codes -- and the co-partitioned parallel join consumes
  // their sorted coded output. Still one inserted sort per input.
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

TEST_P(ParallelPlanTest, JoinGroupedOnItsKeyIsOneRegion) {
  // The co-partitioned pipeline: both raw inputs hash-split on the join
  // key, one sort per worker above each split, the merge join and the
  // in-stream aggregate in the same workers, and one merging exchange --
  // no gather and re-split on the key the workers are already
  // partitioned on.
  PlannerOptions base;
  base.prefer_sort_based = true;
  auto c = RunBoth(
      [this] {
        return PlanBuilder::Scan(BufferSource("l", &schema_, &join_table_))
            .Join(PlanBuilder::Scan(
                      BufferSource("r", &schema_, &join_table_)),
                  JoinType::kInner)
            .Aggregate(2, {{AggFn::kCount, 0}, {AggFn::kSum, 2}})
            .Build();
      },
      base);
  const PhysicalPlan& plan = *c.parallel_plan;
  ExpectPartitioned(plan);
  const auto uses = [&](PhysicalAlg alg) {
    return std::count(plan.algorithms().begin(), plan.algorithms().end(),
                      alg);
  };
  EXPECT_EQ(uses(PhysicalAlg::kMergeExchange), 1);
  EXPECT_EQ(uses(PhysicalAlg::kSplitExchange), 2);
  EXPECT_EQ(plan.inserted_sorts(), 2u);
  // Each per-worker sort reads its split directly: the next EXPLAIN line
  // is the raw input's split, one level deeper.
  const std::string explain = plan.ToString();
  std::vector<std::string> lines;
  for (size_t start = 0, end; start < explain.size(); start = end + 1) {
    end = explain.find('\n', start);
    lines.push_back(explain.substr(start, end - start));
  }
  int sorts = 0;
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    const size_t at = lines[i].find("sort(inserted, per worker)");
    if (at == std::string::npos) continue;
    ++sorts;
    EXPECT_EQ(lines[i + 1].find("split-exchange(hash) [unsorted]"), at + 2)
        << explain;
  }
  EXPECT_EQ(sorts, 2) << explain;
  EXPECT_EQ(explain.find("sort(inserted)"), std::string::npos) << explain;
  // N partition sorts plus one coded merge cost no more code comparisons
  // than the serial sorts: at most one more per input row. A sort of
  // N / 4 rows saves at most log2(4) comparisons per row, so every
  // per-worker sort's comparisons must have been counted too.
  const uint64_t input_rows = 2 * join_table_.size();
  EXPECT_LE(parallel_counters_.code_comparisons,
            serial_counters_.code_comparisons + input_rows);
  EXPECT_GE(parallel_counters_.code_comparisons + 2 * input_rows,
            serial_counters_.code_comparisons);
  // One output row per group key: the merged order is deterministic.
  EXPECT_EQ(ToRowVec(c.parallel.rows), ToRowVec(c.serial.rows));
}

TEST_P(ParallelPlanTest, OpenRegionsMatchSerialRowsAndCodes) {
  // Differential check of every open-region shape: a parallel merge join
  // of each type the region supports, grouped so the aggregate stays in
  // the join's workers (q == p, at join key arity 1 and 2) or must close
  // the region and re-split (q < p: a 2-column join key grouped on its
  // first column -- a group then spans partitions). q > p cannot be
  // built: a worker stream's key is exactly the p join key columns, and a
  // group prefix never exceeds its input's key. Rows and codes must
  // equal the serial plan's at every parallelism and batch size, with
  // OvcStreamChecker validating each stream.
  const Schema one_key(1, 1);
  const RowBuffer l1 = MakeTable(one_key, 1500, 300, /*seed=*/21);
  const RowBuffer r1 = MakeTable(one_key, 1200, 300, /*seed=*/22, true);
  const InMemoryRun r1_run = testing::RunFromSorted(one_key, r1);
  const RowBuffer l2 = MakeTable(schema_, 1500, 25, /*seed=*/23);
  const RowBuffer r2 = MakeTable(schema_, 1200, 25, /*seed=*/24, true);
  const InMemoryRun r2_run = testing::RunFromSorted(schema_, r2);
  struct Case {
    const Schema* schema;
    const RowBuffer* unsorted;
    const InMemoryRun* sorted;
    uint32_t group;
    bool stays;
  };
  const Case cases[] = {{&one_key, &l1, &r1_run, 1, true},
                        {&schema_, &l2, &r2_run, 2, true},
                        {&schema_, &l2, &r2_run, 1, false}};
  for (const Case& k : cases) {
    for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                          JoinType::kLeftSemi, JoinType::kLeftAnti}) {
      // Either input may be the unsorted one that is sorted per worker.
      for (bool unsorted_left : {true, false}) {
        const auto build = [&] {
          PlanBuilder u =
              PlanBuilder::Scan(BufferSource("u", k.schema, k.unsorted));
          PlanBuilder s =
              PlanBuilder::Scan(RunSource("s", k.schema, k.sorted));
          PlanBuilder join = unsorted_left ? std::move(u) : std::move(s);
          join.Join(unsorted_left ? std::move(s) : std::move(u), type);
          const uint32_t payload = k.schema->key_arity();
          join.Aggregate(k.group, {{AggFn::kCount, 0},
                                   {AggFn::kSum, payload},
                                   {AggFn::kMax, payload}});
          return join.Build();
        };
        const std::string what = std::string(JoinTypeName(type)) +
                                 " key=" +
                                 std::to_string(k.schema->key_arity()) +
                                 " group=" + std::to_string(k.group) +
                                 (unsorted_left ? " unsorted left"
                                                : " unsorted right");
        PlannerOptions serial;
        serial.prefer_sort_based = true;
        std::vector<Ovc> serial_codes;
        RowVec serial_rows;
        {
          auto logical = build();
          Planner planner(nullptr, &temp_, serial);
          PhysicalPlan plan = planner.Plan(logical.get());
          serial_rows = testing::DrainValidated(plan.root(), true,
                                                RowBlock::kDefaultRows,
                                                &serial_codes);
        }
        ASSERT_FALSE(serial_rows.empty()) << what;
        for (uint32_t workers : {2u, 3u, 4u}) {
          for (uint32_t batch_rows : {1u, 128u}) {
            PlannerOptions par = serial;
            par.parallelism = workers;
            par.exchange.threaded = GetParam();
            par.exchange.batch_rows = batch_rows;
            auto logical = build();
            Planner planner(nullptr, &temp_, par);
            PhysicalPlan plan = planner.Plan(logical.get());
            const auto merges = std::count(plan.algorithms().begin(),
                                           plan.algorithms().end(),
                                           PhysicalAlg::kMergeExchange);
            EXPECT_EQ(merges, k.stays ? 1 : 2) << what << "\n"
                                               << plan.ToString();
            std::vector<Ovc> codes;
            const RowVec rows = testing::DrainValidated(
                plan.root(), true, RowBlock::kDefaultRows, &codes);
            EXPECT_EQ(rows, serial_rows)
                << what << " workers=" << workers << " batch=" << batch_rows;
            EXPECT_EQ(codes, serial_codes)
                << what << " workers=" << workers << " batch=" << batch_rows;
          }
        }
      }
    }
  }
}

TEST_P(ParallelPlanTest, WorkerCountersRollUpExactly) {
  // Threaded and inline execution of the same parallel plan must account
  // identical comparison totals after the roll-up: the producer threads
  // only move rows, all metered work lands in some counters instance, and
  // none of it is lost or double-counted.
  // Three shapes: parallel sort; a parallel merge join over unsorted
  // inputs, whose planner-inserted sorts run once per worker above the
  // splits, on the worker threads (each must charge its worker's
  // counters, never the session counters the consumer-side merge uses
  // concurrently); and that join grouped on its key, whose per-worker
  // aggregate joins the same worker pipelines.
  const auto join = [this](bool grouped) {
    PlanBuilder b = PlanBuilder::Scan(BufferSource("l", &schema_, &table_));
    b.Join(PlanBuilder::Scan(BufferSource("r", &schema_, &table_)),
           JoinType::kLeftSemi);
    if (grouped) b.Aggregate(2, {{AggFn::kCount, 0}});
    return b.Build();
  };
  std::set<std::pair<uint64_t, uint64_t>> keys;
  for (size_t i = 0; i < table_.size(); ++i) {
    keys.insert({table_.row(i)[0], table_.row(i)[1]});
  }
  const std::vector<
      std::pair<std::function<std::unique_ptr<LogicalNode>()>, uint64_t>>
      builds = {
          {[this] {
             return PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
                 .Sort()
                 .Build();
           },
           3000},
          {[&] { return join(false); }, 3000},
          {[&] { return join(true); }, keys.size()}};
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
    for (const auto& [build, rows] : builds) {
      auto logical = build();
      ExecutionResult result = executor.Run(logical.get());
      EXPECT_EQ(result.row_count(), rows);
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
