// Planner unit tests: order-property propagation, interesting orders, and
// physical algorithm choice (sort elision when order + codes are available,
// hash fallback when they are not).

#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "plan/logical_plan.h"
#include "plan/order_property.h"
#include "plan/physical_plan.h"
#include "sql/binder.h"
#include "sql/catalog.h"
#include "sql/parser.h"
#include "storage/btree.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using plan::AnalyzePlan;
using plan::BufferSource;
using plan::BTreeSource;
using plan::LogicalNode;
using plan::LogicalOp;
using plan::OrderProperty;
using plan::OrderRequirement;
using plan::PhysicalAlg;
using plan::PhysicalPlan;
using plan::PlanBuilder;
using plan::PlanFacts;
using plan::Planner;
using plan::PlannerOptions;
using testing::RowVec;

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : schema_(2, 1),
        key_schema_(2, 0),
        table_(testing::MakeTable(schema_, 500, 4, /*seed=*/1)),
        key_table_(testing::MakeTable(key_schema_, 500, 4, /*seed=*/2)),
        tree_(&schema_, &counters_) {
    for (size_t i = 0; i < table_.size(); ++i) tree_.Insert(table_.row(i));
  }

  PhysicalPlan Plan(LogicalNode* root, PlannerOptions options = {}) {
    Planner planner(&counters_, &temp_, options);
    return planner.Plan(root);
  }

  Schema schema_;      // 2 keys + 1 payload
  Schema key_schema_;  // 2 keys, no payload
  RowBuffer table_;
  RowBuffer key_table_;
  QueryCounters counters_;
  TempFileManager temp_;
  BTree tree_;
};

TEST(OrderPropertyTest, Satisfaction) {
  OrderProperty unsorted = OrderProperty::Unsorted();
  OrderProperty sorted2 = OrderProperty::Sorted(2, /*ovc=*/false);
  OrderProperty coded2 = OrderProperty::Sorted(2, /*ovc=*/true);

  EXPECT_FALSE(unsorted.sorted());
  EXPECT_TRUE(sorted2.SortedOn(1));
  EXPECT_TRUE(sorted2.SortedOn(2));
  EXPECT_FALSE(sorted2.SortedOn(3));
  EXPECT_FALSE(sorted2.SortedWithCodes(2));
  EXPECT_TRUE(coded2.SortedWithCodes(2));

  EXPECT_TRUE(OrderRequirement::None().SatisfiedBy(unsorted));
  EXPECT_FALSE(OrderRequirement::Codes(1).SatisfiedBy(sorted2));
  EXPECT_TRUE(OrderRequirement::Codes(1).SatisfiedBy(coded2));
  OrderRequirement order_only{2, false};
  EXPECT_TRUE(order_only.SatisfiedBy(sorted2));

  EXPECT_EQ(coded2.ToString(), "sorted(2)+ovc");
  EXPECT_EQ(unsorted.ToString(), "unsorted");
}

TEST_F(PlannerTest, ScanPropertiesComeFromTheSource) {
  auto unsorted =
      PlanBuilder::Scan(BufferSource("t", &schema_, &table_)).Build();
  auto sorted = PlanBuilder::Scan(BTreeSource("bt", &tree_)).Build();

  EXPECT_EQ(AnalyzePlan(*unsorted, {}).order, OrderProperty::Unsorted());
  EXPECT_EQ(AnalyzePlan(*sorted, {}).order,
            OrderProperty::Sorted(2, /*ovc=*/true));
}

TEST_F(PlannerTest, SortIsElidedWhenInputSortedWithCodes) {
  auto logical = PlanBuilder::Scan(BTreeSource("bt", &tree_)).Sort().Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kElidedSort));
  EXPECT_FALSE(plan.Uses(PhysicalAlg::kSort));
  EXPECT_EQ(plan.elided_sorts(), 1u);
  EXPECT_EQ(plan.inserted_sorts(), 0u);
  EXPECT_EQ(plan.root_order(), OrderProperty::Sorted(2, true));
}

TEST_F(PlannerTest, SortMaterializesOverUnsortedInput) {
  auto logical =
      PlanBuilder::Scan(BufferSource("t", &schema_, &table_)).Sort().Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kSort));
  EXPECT_EQ(plan.explicit_sorts(), 1u);
  EXPECT_EQ(plan.root_order(), OrderProperty::Sorted(2, true));
}

TEST_F(PlannerTest, JoinPicksMergeWhenBothInputsSortedWithCodes) {
  auto logical = PlanBuilder::Scan(BTreeSource("l", &tree_))
                     .Join(PlanBuilder::Scan(BTreeSource("r", &tree_)),
                           JoinType::kInner)
                     .Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kMergeJoin));
  EXPECT_EQ(plan.inserted_sorts(), 0u);
  EXPECT_TRUE(plan.root_order().SortedWithCodes(2));
}

TEST_F(PlannerTest, JoinFallsBackToGraceHashOverUnsortedInputs) {
  auto logical =
      PlanBuilder::Scan(BufferSource("l", &schema_, &table_))
          .Join(PlanBuilder::Scan(BufferSource("r", &schema_, &table_)),
                JoinType::kInner)
          .Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kGraceHashJoin));
  EXPECT_EQ(plan.inserted_sorts(), 0u);
  EXPECT_EQ(plan.root_order(), OrderProperty::Unsorted());
}

TEST_F(PlannerTest, JoinPicksOrderPreservingHashWhenOnlyProbeSorted) {
  auto logical =
      PlanBuilder::Scan(BTreeSource("l", &tree_))
          .Join(PlanBuilder::Scan(BufferSource("r", &schema_, &table_)),
                JoinType::kInner)
          .Build();
  // The in-memory hash join aborts past its build budget, so it is opt-in.
  PlannerOptions options;
  options.assume_build_fits_memory = true;
  PhysicalPlan plan = Plan(logical.get(), options);

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kOrderPreservingHashJoin));
  EXPECT_EQ(plan.inserted_sorts(), 0u);
  // The order-preserving hash join carries probe order and codes through.
  EXPECT_TRUE(plan.root_order().SortedWithCodes(2));
}

TEST_F(PlannerTest, SortedProbeOverUnsortedBuildSortsOnlyTheBuildByDefault) {
  auto logical =
      PlanBuilder::Scan(BTreeSource("l", &tree_))
          .Join(PlanBuilder::Scan(BufferSource("r", &schema_, &table_)),
                JoinType::kInner)
          .Build();
  // Robust default: no residency assumption, so the unsorted build side is
  // sorted (spilling gracefully) and the probe's order is reused as-is.
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kMergeJoin));
  EXPECT_FALSE(plan.Uses(PhysicalAlg::kOrderPreservingHashJoin));
  EXPECT_FALSE(plan.Uses(PhysicalAlg::kGraceHashJoin));
  EXPECT_EQ(plan.inserted_sorts(), 1u);  // only the build side
  EXPECT_TRUE(plan.root_order().SortedWithCodes(2));
}

TEST_F(PlannerTest, PreferSortBasedInsertsSortsForMergeJoin) {
  auto logical =
      PlanBuilder::Scan(BufferSource("l", &schema_, &table_))
          .Join(PlanBuilder::Scan(BufferSource("r", &schema_, &table_)),
                JoinType::kInner)
          .Build();
  PlannerOptions options;
  options.prefer_sort_based = true;
  PhysicalPlan plan = Plan(logical.get(), options);

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kMergeJoin));
  EXPECT_EQ(plan.inserted_sorts(), 2u);
  EXPECT_TRUE(plan.root_order().SortedWithCodes(2));
}

TEST_F(PlannerTest, FullOuterJoinHasNoHashFallback) {
  auto logical =
      PlanBuilder::Scan(BufferSource("l", &schema_, &table_))
          .Join(PlanBuilder::Scan(BufferSource("r", &schema_, &table_)),
                JoinType::kFullOuter)
          .Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kMergeJoin));
  EXPECT_EQ(plan.inserted_sorts(), 2u);
}

TEST_F(PlannerTest, AggregateStreamsOverSortedInput) {
  auto logical = PlanBuilder::Scan(BTreeSource("bt", &tree_))
                     .Aggregate(1, {{AggFn::kCount, 0}})
                     .Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kInStreamAggregate));
  EXPECT_EQ(plan.inserted_sorts(), 0u);
  EXPECT_EQ(plan.root_order(), OrderProperty::Sorted(1, true));
}

TEST_F(PlannerTest, AggregateHashesOverUnsortedInputWithoutOrderInterest) {
  auto logical = PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
                     .Aggregate(1, {{AggFn::kCount, 0}})
                     .Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kHashAggregate));
  EXPECT_EQ(plan.root_order(), OrderProperty::Unsorted());
}

TEST_F(PlannerTest, InterestingOrderSwitchesAggregateToInSort) {
  // Distinct above wants order + codes, so the aggregation below absorbs
  // the disorder itself instead of hashing -- no explicit sort anywhere.
  auto logical = PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
                     .Aggregate(1, {{AggFn::kCount, 0}})
                     .Distinct()
                     .Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kInSortAggregate));
  EXPECT_TRUE(plan.Uses(PhysicalAlg::kDedup));
  EXPECT_FALSE(plan.Uses(PhysicalAlg::kSort));
  EXPECT_EQ(plan.inserted_sorts(), 0u);
  EXPECT_TRUE(plan.root_order().SortedWithCodes(1));
}

TEST_F(PlannerTest, DistinctUsesCodeOnlyDedupOverSortedInput) {
  auto logical =
      PlanBuilder::Scan(BTreeSource("bt", &tree_)).Distinct().Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kDedup));
  EXPECT_EQ(plan.inserted_sorts(), 0u);
}

TEST_F(PlannerTest, DistinctHashesOverUnsortedKeyOnlyInput) {
  auto logical =
      PlanBuilder::Scan(BufferSource("t", &key_schema_, &key_table_))
          .Distinct()
          .Build();
  PhysicalPlan plan = Plan(logical.get());
  EXPECT_TRUE(plan.Uses(PhysicalAlg::kHashDistinct));

  PlannerOptions options;
  options.prefer_sort_based = true;
  PhysicalPlan sort_plan = Plan(logical.get(), options);
  EXPECT_TRUE(sort_plan.Uses(PhysicalAlg::kInSortDistinct));
  EXPECT_TRUE(sort_plan.root_order().SortedWithCodes(2));
}

TEST_F(PlannerTest, DistinctWithPayloadsSortsThenDedups) {
  auto logical = PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
                     .Distinct()
                     .Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kDedup));
  EXPECT_EQ(plan.inserted_sorts(), 1u);
}

TEST_F(PlannerTest, SetOpInsertsSortsOnlyWhereNeeded) {
  BTree key_tree(&key_schema_, &counters_);
  for (size_t i = 0; i < key_table_.size(); ++i) {
    key_tree.Insert(key_table_.row(i));
  }
  auto logical =
      PlanBuilder::Scan(BTreeSource("l", &key_tree))
          .SetOp(PlanBuilder::Scan(BufferSource("r", &key_schema_,
                                                &key_table_)),
                 SetOpType::kIntersect, /*all=*/false)
          .Build();
  PhysicalPlan plan = Plan(logical.get());

  EXPECT_TRUE(plan.Uses(PhysicalAlg::kSetOperation));
  EXPECT_EQ(plan.inserted_sorts(), 1u);  // only the buffer side
  EXPECT_TRUE(plan.root_order().SortedWithCodes(2));
}

/// `a = value` on the first key column, as the SQL binder extracts it.
plan::KeyRange EqualityOnA(uint64_t value) {
  plan::KeyRange range;
  range.equal = {value};
  range.covers_predicate = true;
  range.text = "a = " + std::to_string(value);
  return range;
}

PlanBuilder FilterAEquals(PlanBuilder input, uint64_t value) {
  input.Filter([value](const uint64_t* row) { return row[0] == value; },
               nullptr, "a = " + std::to_string(value), EqualityOnA(value));
  return input;
}

TEST_F(PlannerTest, KeyRangeOverSortedScanSeeks) {
  plan::TableSource source = BTreeSource("bt", &tree_);
  source.stats.key_distinct = {4.0, 16.0};
  auto logical = FilterAEquals(PlanBuilder::Scan(source), 2).Build();
  PhysicalPlan plan = Plan(logical.get());

  const std::vector<PhysicalAlg> want = {PhysicalAlg::kScan,
                                         PhysicalAlg::kFilter};
  EXPECT_EQ(plan.algorithms(), want);
  EXPECT_EQ(plan.root_order(), OrderProperty::Sorted(2, /*ovc=*/true));
  const std::string text = plan.ToString();
  EXPECT_EQ(text.rfind("filter(a = 2) [sorted(2)+ovc]", 0), 0u) << text;
  EXPECT_NE(text.find("\n  scan(bt range a = 2) [sorted(2)+ovc]"),
            std::string::npos)
      << text;
  // The seek estimates rows / distinct(a) = 500 / 4, not the table size.
  EXPECT_NEAR(plan.node_estimates()[0].rows, 125.0, 1.0);

  RowVec got = testing::DrainValidated(plan.root());
  EXPECT_FALSE(got.empty());
  for (const auto& row : got) EXPECT_EQ(row[0], 2u);
}

TEST_F(PlannerTest, KeyRangeWithoutSeekableScanKeepsFullScan) {
  // Unsorted storage has no range factory.
  auto unsorted =
      FilterAEquals(PlanBuilder::Scan(BufferSource("t", &schema_, &table_)), 2)
          .Build();
  PhysicalPlan scan_plan = Plan(unsorted.get());
  EXPECT_EQ(scan_plan.ToString().find(" range "), std::string::npos)
      << scan_plan.ToString();
  EXPECT_NE(scan_plan.ToString().find("scan(t) [unsorted]"),
            std::string::npos);

  // Above a join the filter's input is not a scan.
  PlanBuilder join = PlanBuilder::Scan(BTreeSource("l", &tree_));
  join.Join(PlanBuilder::Scan(BTreeSource("r", &tree_)), JoinType::kInner);
  auto joined = FilterAEquals(std::move(join), 2).Build();
  PhysicalPlan join_plan = Plan(joined.get());
  EXPECT_TRUE(join_plan.Uses(PhysicalAlg::kMergeJoin));
  EXPECT_EQ(join_plan.ToString().find(" range "), std::string::npos)
      << join_plan.ToString();
}

TEST_F(PlannerTest, SeekKeepsOrderAndCodesForSortAndAggregate) {
  auto sorted =
      FilterAEquals(PlanBuilder::Scan(BTreeSource("bt", &tree_)), 1)
          .Sort()
          .Build();
  PhysicalPlan sort_plan = Plan(sorted.get());
  EXPECT_TRUE(sort_plan.Uses(PhysicalAlg::kElidedSort));
  EXPECT_FALSE(sort_plan.Uses(PhysicalAlg::kSort));
  EXPECT_NE(sort_plan.ToString().find(" range "), std::string::npos);

  auto grouped =
      FilterAEquals(PlanBuilder::Scan(BTreeSource("bt", &tree_)), 1)
          .Aggregate(2, {{AggFn::kCount, 0}})
          .Build();
  PhysicalPlan agg_plan = Plan(grouped.get());
  EXPECT_TRUE(agg_plan.Uses(PhysicalAlg::kInStreamAggregate))
      << agg_plan.ToString();
  EXPECT_EQ(agg_plan.inserted_sorts(), 0u);
  EXPECT_NE(agg_plan.ToString().find(" range "), std::string::npos);
  testing::DrainValidated(agg_plan.root());
}

TEST_F(PlannerTest, RequirementAnnotationsFollowInterestingOrders) {
  auto logical = PlanBuilder::Scan(BufferSource("t", &schema_, &table_))
                     .Filter([](const uint64_t*) { return true; })
                     .Aggregate(1, {{AggFn::kCount, 0}})
                     .Distinct()
                     .Build();
  const PlanFacts facts = AnalyzePlan(*logical, PlannerOptions());

  const PlanFacts& distinct = facts;
  const PlanFacts& aggregate = distinct.children[0];
  const PlanFacts& filter = aggregate.children[0];
  const PlanFacts& scan = filter.children[0];
  EXPECT_EQ(scan.node, logical->children[0]->children[0]->children[0].get());

  // Distinct wants its child sorted with codes on the aggregate's full key.
  EXPECT_EQ(aggregate.required.prefix, 1u);
  EXPECT_TRUE(aggregate.required.needs_ovc);
  // The aggregation wants its child ordered on the grouping prefix, and
  // the filter passes that wish through to the scan.
  EXPECT_EQ(filter.required.prefix, 1u);
  EXPECT_EQ(scan.required.prefix, 1u);
}

TEST_F(PlannerTest, InferenceMatchesConstructedPlans) {
  auto make_plans = [&](PlannerOptions options) {
    std::vector<std::unique_ptr<LogicalNode>> plans;
    plans.push_back(
        PlanBuilder::Scan(BufferSource("t", &schema_, &table_)).Sort().Build());
    plans.push_back(
        PlanBuilder::Scan(BTreeSource("bt", &tree_)).Sort().Build());
    plans.push_back(
        PlanBuilder::Scan(BufferSource("l", &schema_, &table_))
            .Join(PlanBuilder::Scan(BTreeSource("r", &tree_)),
                  JoinType::kInner)
            .Aggregate(1, {{AggFn::kSum, 2}})
            .Distinct()
            .Build());
    plans.push_back(
        PlanBuilder::Scan(BufferSource("t", &key_schema_, &key_table_))
            .Distinct()
            .TopK(10)
            .Build());
    for (auto& logical : plans) {
      PhysicalPlan plan = Plan(logical.get(), options);
      EXPECT_EQ(AnalyzePlan(*logical, options).order, plan.root_order())
          << plan.ToString();
    }
  };
  make_plans(PlannerOptions());
  PlannerOptions sort_based;
  sort_based.prefer_sort_based = true;
  make_plans(sort_based);
}

TEST_F(PlannerTest, ExplainMentionsChosenAlgorithms) {
  auto logical = PlanBuilder::Scan(BTreeSource("bt", &tree_))
                     .Sort()
                     .Aggregate(1, {{AggFn::kCount, 0}})
                     .Build();
  PhysicalPlan plan = Plan(logical.get());
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("in-stream-aggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("elided-sort"), std::string::npos) << text;
  EXPECT_NE(text.find("bt"), std::string::npos) << text;
}

// Planning only reads the logical tree: threads that plan one shared bound
// tree at once, each with its own counters and temp files and no lock, get
// the plans sequential planning gets. The trees reach both scan factories
// of the SQL catalog and the run's seek factory. A race here shows under
// TSan.
TEST(PlannerConcurrencyTest, ThreadsPlanOneSharedTreeWithoutALock) {
  sql::Catalog catalog;
  sql::Catalog::GeneratedSpec spec;
  spec.distinct_per_column = 100;
  spec.seed = 1;
  ASSERT_TRUE(catalog
                  .RegisterGenerated("lineitem", {"orderkey", "qty"},
                                     Schema(1, 1), 2000, spec)
                  .ok());
  spec.seed = 2;
  spec.sorted = true;
  ASSERT_TRUE(catalog
                  .RegisterGenerated("orders", {"orderkey", "custkey"},
                                     Schema(1, 1), 500, spec)
                  .ok());
  const char* const kSql[2] = {
      "SELECT o.orderkey, COUNT(*) AS n, SUM(l.qty) AS total "
      "FROM orders o INNER JOIN lineitem l ON o.orderkey = l.orderkey "
      "GROUP BY o.orderkey ORDER BY o.orderkey",
      "SELECT orderkey, custkey FROM orders WHERE orderkey = 17"};
  std::vector<sql::BoundQuery> bound;
  for (const char* text : kSql) {
    auto stmt = sql::ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << text;
    auto query = sql::Binder(&catalog).Bind(stmt.value().select);
    ASSERT_TRUE(query.ok()) << text;
    bound.push_back(std::move(query).value());
  }

  // reference[q][o]: statement q planned sequentially under options[o].
  PlannerOptions options[2];
  options[1].parallelism = 4;
  std::string reference[2][2];
  for (int q = 0; q < 2; ++q) {
    for (int o = 0; o < 2; ++o) {
      QueryCounters counters;
      TempFileManager temp;
      reference[q][o] = Planner(&counters, &temp, options[o])
                            .Plan(bound[q].plan.get())
                            .ToString();
    }
  }
  ASSERT_EQ(reference[0][0].find("merge-exchange"), std::string::npos)
      << reference[0][0];
  ASSERT_NE(reference[0][1].find("merge-exchange"), std::string::npos)
      << reference[0][1];
  ASSERT_NE(reference[1][0].find("scan(orders range orderkey = 17)"),
            std::string::npos)
      << reference[1][0];

  constexpr int kThreads = 4;
  constexpr int kPlansPerThread = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryCounters counters;
      TempFileManager temp;
      for (int i = 0; i < kPlansPerThread; ++i) {
        const int o = (t + i) % 2;
        for (int q = 0; q < 2; ++q) {
          const PhysicalPlan plan =
              Planner(&counters, &temp, options[o]).Plan(bound[q].plan.get());
          if (plan.ToString() != reference[q][o]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace ovc
