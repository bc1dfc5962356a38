// Observability tests: per-operator QueryProfile actuals cross-checked
// against oracle cardinalities at parallelism 1 and 4 (exact roll-up across
// exchange worker threads), timing sanity, JSON profile round-trips, the
// EXPLAIN ANALYZE rendering's stability for a fixed seed, and the
// estimate-versus-actual feedback loop into TableStats.

#include <cctype>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/profile.h"
#include "exec/filter.h"
#include "exec/profiled_operator.h"
#include "exec/scan.h"
#include "plan/logical_plan.h"
#include "plan/physical_plan.h"
#include "plan/plan_executor.h"
#include "sql/catalog.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using plan::BufferSource;
using plan::ExecutionResult;
using plan::LogicalNode;
using plan::PhysicalPlan;
using plan::PlanBuilder;
using plan::PlanExecutor;

using ovc::testing::ClaimTinyInputs;
using ovc::testing::JsonReader;
using ovc::testing::JsonValue;

/// Replaces every millisecond rendering ("12.345ms") with "?ms" -- the same
/// normalization tools/check_docs.sh applies, so EXPLAIN ANALYZE text is
/// comparable across runs.
std::string NormalizeMs(const std::string& text) {
  std::string out;
  size_t i = 0;
  while (i < text.size()) {
    if (std::isdigit(static_cast<unsigned char>(text[i]))) {
      size_t j = i;
      while (j < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[j])) ||
              text[j] == '.')) {
        ++j;
      }
      if (text.compare(j, 2, "ms") == 0) {
        out += "?ms";
        i = j + 2;
        continue;
      }
    }
    out.push_back(text[i++]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// PlanExecutor-level profiles: hand-built join + group-by.
// ---------------------------------------------------------------------------

class ProfileTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kFactRows = 2000;
  static constexpr uint64_t kDimRows = 400;

  ProfileTest()
      : fact_schema_(1, 2),
        dim_schema_(1, 1),
        fact_(testing::MakeTable(fact_schema_, kFactRows, 50, /*seed=*/21)),
        dim_(testing::MakeTable(dim_schema_, kDimRows, 50, /*seed=*/22)) {}

  /// fact JOIN dim on the key column, then COUNT per key -- the acceptance
  /// query shape (join + group-by).
  std::unique_ptr<LogicalNode> BuildJoinAgg() {
    return PlanBuilder::Scan(BufferSource("fact", &fact_schema_, &fact_))
        .Join(PlanBuilder::Scan(BufferSource("dim", &dim_schema_, &dim_)),
              JoinType::kInner)
        .Aggregate(1, {{AggFn::kCount, 0}})
        .Build();
  }

  PlanExecutor::Options MakeOptions(uint32_t parallelism) {
    PlanExecutor::Options options;
    options.validate = true;  // turns on the roll-up self-consistency checks
    options.planner.profile = true;
    options.planner.parallelism = parallelism;
    options.planner.exchange.batch_rows = 128;  // several batches per worker
    return options;
  }

  /// Oracle result: the same logical plan, serial and un-profiled.
  testing::RowVec OracleRows() {
    QueryCounters counters;
    PlanExecutor::Options options;
    options.validate = true;
    PlanExecutor executor(&counters, &temp_, options);
    auto logical = BuildJoinAgg();
    ExecutionResult result = executor.Run(logical.get());
    EXPECT_TRUE(result.ok()) << result.validation_error;
    testing::RowVec rows = testing::ToRowVec(result.rows);
    testing::Canonicalize(&rows);
    return rows;
  }

  Schema fact_schema_;
  Schema dim_schema_;
  RowBuffer fact_;
  RowBuffer dim_;
  TempFileManager temp_;
};

TEST_F(ProfileTest, ActualRowsMatchOracleCardinalities) {
  const testing::RowVec oracle = OracleRows();
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    QueryCounters counters;
    PlanExecutor executor(&counters, &temp_, MakeOptions(parallelism));
    auto logical = BuildJoinAgg();
    ExecutionResult result = executor.Run(logical.get());
    ASSERT_TRUE(result.ok()) << result.validation_error;

    testing::RowVec rows = testing::ToRowVec(result.rows);
    testing::Canonicalize(&rows);
    EXPECT_EQ(rows, oracle);

    const QueryProfile* profile = executor.last_plan()->profile();
    ASSERT_NE(profile, nullptr);
    EXPECT_EQ(profile->runs(), 1u);
    // Root actuals equal the materialized result -- even at parallelism 4,
    // where the root's rows pass through the merging exchange.
    EXPECT_EQ(profile->ActualRows(profile->root()), oracle.size());
    // Scan actuals equal the full table cardinalities: the split-exchange
    // partition slices must roll up without losing or double-counting rows.
    for (int i = 0; i < static_cast<int>(profile->nodes().size()); ++i) {
      const QueryProfile::Node& node = profile->nodes()[i];
      if (node.table == "fact") {
        EXPECT_EQ(profile->ActualRows(i), kFactRows);
      } else if (node.table == "dim") {
        EXPECT_EQ(profile->ActualRows(i), kDimRows);
      }
    }
    // With profiling on, *all* operator work is attributed to plan nodes:
    // the per-node totals must reproduce the session counters exactly.
    EXPECT_TRUE(profile->TreeCounterTotals() == counters);
    EXPECT_GT(counters.column_comparisons + counters.code_comparisons, 0u);
  }
}

TEST_F(ProfileTest, RepeatedRunsDoNotDoubleCountActuals) {
  QueryCounters counters;
  PlanExecutor executor(&counters, &temp_, MakeOptions(1));
  auto logical = BuildJoinAgg();
  PhysicalPlan plan = executor.Plan(logical.get(), MakeOptions(1).planner);

  const ExecutionResult first = executor.Run(&plan);
  const uint64_t rows_first = plan.profile()->ActualRows(plan.profile()->root());
  const ExecutionResult second = executor.Run(&plan);
  const uint64_t rows_second =
      plan.profile()->ActualRows(plan.profile()->root());

  // FinishRun resets the slices: the second run's actuals replace the
  // first's instead of accumulating.
  EXPECT_EQ(first.row_count(), second.row_count());
  EXPECT_EQ(rows_first, first.row_count());
  EXPECT_EQ(rows_second, second.row_count());
  EXPECT_EQ(plan.profile()->runs(), 2u);
}

TEST_F(ProfileTest, TimingsAreInclusiveAndBounded) {
  QueryCounters counters;
  PlanExecutor executor(&counters, &temp_, MakeOptions(1));
  auto logical = BuildJoinAgg();
  ExecutionResult result = executor.Run(logical.get());
  ASSERT_TRUE(result.ok()) << result.validation_error;

  const QueryProfile* profile = executor.last_plan()->profile();
  ASSERT_NE(profile, nullptr);
  EXPECT_GT(profile->wall_ns(), 0u);
  // Serial plan: every node's inclusive time is bounded by the run's wall
  // clock (generous slack for tick-rate conversion rounding), and a parent
  // never reports less inclusive time than any child -- the parent's timed
  // window contains the child's. Small inputs keep every wrapper inside
  // the timing warmup, so times here are exact, not sampled.
  const uint64_t slack = profile->wall_ns() / 2 + 2'000'000;
  for (int i = 0; i < static_cast<int>(profile->nodes().size()); ++i) {
    const QueryProfile::Node& node = profile->nodes()[i];
    EXPECT_LE(profile->ActualNs(i), profile->wall_ns() + slack);
    for (int child : node.children) {
      EXPECT_LE(profile->ActualNs(child), profile->ActualNs(i) + slack)
          << "child " << child << " of node " << i;
    }
  }
}

TEST(OperatorStats, OneExpensiveEarlyPullIsCountedOnce) {
  // One expensive first pull (like a sort opened lazily on its first pull),
  // then 1,000 cheap ones. Scaling every timed tick by calls / timed calls
  // would multiply the first pull by ~11; the warmup window is timed
  // exactly and must stay unscaled.
  constexpr uint64_t kFirstTicks = 20'000'000;
  Schema schema(1);
  RowBuffer table(1);
  for (uint64_t i = 0; i < 1001; ++i) table.AppendRow(&i);
  BufferScan scan(&schema, &table);
  FilterOperator slow_first(&scan, [](const uint64_t* row) {
    const uint64_t t0 = ProfileTicks();
    while (row[0] == 0 && ProfileTicks() - t0 < kFirstTicks) {
    }
    return true;
  });
  OperatorStats stats;
  ProfiledOperator wrapper(&slow_first, &stats);
  wrapper.Open();
  RowBlock block(1, /*capacity_rows=*/1);  // one row per pull
  while (wrapper.NextBatch(&block) > 0) {
  }
  wrapper.Close();
  EXPECT_EQ(stats.rows_out, 1001u);
  EXPECT_EQ(stats.next_calls, 1002u);  // every row, then the end of stream
  // Only relations between the measured ticks are asserted, so a preempted
  // pull cannot fail the test; the synthetic case below pins the arithmetic.
  EXPECT_EQ(stats.warmup_calls, kTimeWarmupCalls);
  EXPECT_GE(stats.warmup_ticks, kFirstTicks);
  const double post_warmup_calls =
      static_cast<double>(stats.next_calls - stats.warmup_calls);
  EXPECT_EQ(stats.scaled_next_ticks() - stats.warmup_ticks,
            static_cast<uint64_t>(static_cast<double>(stats.next_ticks) *
                                  post_warmup_calls /
                                  static_cast<double>(stats.next_timed)));
}

TEST(OperatorStats, SampleScalesOnlyPostWarmupCallsAcrossMergedSlices) {
  // A slice as the wrapper leaves it after 1,000 calls, the first costing
  // 1,000,000 ticks and every other one 100: the 32 warmup calls are timed
  // exactly, and 61 of the 968 later calls were sampled.
  OperatorStats slice;
  slice.next_calls = 1000;
  slice.warmup_calls = kTimeWarmupCalls;
  slice.warmup_ticks = 1'000'000 + 31 * 100;
  slice.next_timed = 61;
  slice.next_ticks = 61 * 100;
  EXPECT_EQ(slice.scaled_next_ticks(), 1'000'000u + 999 * 100);
  OperatorStats merged;
  merged.Merge(slice);
  merged.Merge(slice);
  EXPECT_EQ(merged.scaled_next_ticks(), 2 * (1'000'000u + 999 * 100));
}

TEST_F(ProfileTest, JsonProfileRoundTrips) {
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    QueryCounters counters;
    PlanExecutor executor(&counters, &temp_, MakeOptions(parallelism));
    auto logical = BuildJoinAgg();
    ExecutionResult result = executor.Run(logical.get());
    ASSERT_TRUE(result.ok()) << result.validation_error;
    const QueryProfile* profile = executor.last_plan()->profile();
    ASSERT_NE(profile, nullptr);

    JsonValue root = JsonReader(profile->ToJson()).Parse();
    ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
    EXPECT_DOUBLE_EQ(root.at("runs").number, 1.0);
    EXPECT_NEAR(root.at("wall_ms").number,
                static_cast<double>(profile->wall_ns()) / 1e6, 1e-3);
    EXPECT_NEAR(root.at("worst_q_error").number, profile->WorstQError(),
                1e-3);

    // The JSON plan tree mirrors the profile: same labels, actuals, and
    // counter attribution, node for node.
    uint64_t json_rows_sum = 0;
    uint64_t json_col_cmp_sum = 0;
    int json_nodes = 0;
    const std::function<void(const JsonValue&)> walk =
        [&](const JsonValue& node) {
          ASSERT_EQ(node.kind, JsonValue::Kind::kObject);
          ++json_nodes;
          EXPECT_FALSE(node.at("op").str.empty());
          EXPECT_GE(node.at("q_error").number, 1.0);
          EXPECT_GE(node.at("time_ms").number, 0.0);
          json_rows_sum += static_cast<uint64_t>(node.at("actual_rows").number);
          json_col_cmp_sum += static_cast<uint64_t>(
              node.at("counters").at("column_comparisons").number);
          for (const JsonValue& child : node.at("children").array) {
            walk(child);
          }
        };
    walk(root.at("plan"));

    EXPECT_EQ(json_nodes, static_cast<int>(profile->nodes().size()));
    EXPECT_EQ(json_col_cmp_sum,
              profile->TreeCounterTotals().column_comparisons);
    uint64_t profile_rows_sum = 0;
    for (int i = 0; i < static_cast<int>(profile->nodes().size()); ++i) {
      profile_rows_sum += profile->ActualRows(i);
    }
    EXPECT_EQ(json_rows_sum, profile_rows_sum);

    // The root JSON node is the plan root.
    EXPECT_EQ(static_cast<uint64_t>(root.at("plan").at("actual_rows").number),
              profile->ActualRows(profile->root()));
  }
}

// ---------------------------------------------------------------------------
// SQL-level EXPLAIN ANALYZE and the feedback loop.
// ---------------------------------------------------------------------------

class SqlProfileTest : public ::testing::Test {
 protected:
  void RegisterTables(sql::Catalog* catalog) {
    sql::Catalog::GeneratedSpec spec;
    spec.distinct_per_column = 100;
    spec.seed = 1;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("lineitem",
                                        {"orderkey", "qty", "price"},
                                        Schema(1, 2), 2000, spec)
                    .ok());
    spec.seed = 2;
    spec.sorted = true;
    ASSERT_TRUE(catalog
                    ->RegisterGenerated("orders", {"orderkey", "custkey"},
                                        Schema(1, 1), 500, spec)
                    .ok());
  }

  sql::SqlSession MakeSession(const sql::Catalog* catalog,
                              uint32_t parallelism) {
    plan::PlanExecutor::Options options;
    options.validate = true;
    options.abort_on_violation = false;
    options.planner.parallelism = parallelism;
    return sql::SqlSession(catalog, options);
  }

  static constexpr const char* kJoinGroupBy =
      "EXPLAIN ANALYZE SELECT l.orderkey, COUNT(*) AS n, SUM(l.qty) AS q "
      "FROM lineitem l JOIN orders o ON l.orderkey = o.orderkey "
      "GROUP BY l.orderkey ORDER BY l.orderkey";
};

TEST_F(SqlProfileTest, ExplainAnalyzeRendersActualsOnEveryLine) {
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    sql::Catalog catalog;
    RegisterTables(&catalog);
    sql::SqlSession session = MakeSession(&catalog, parallelism);

    sql::SqlResult<sql::QueryResult> got = session.Run(kJoinGroupBy);
    ASSERT_TRUE(got.ok()) << got.error().Render(kJoinGroupBy);
    const sql::QueryResult& result = got.value();

    // EXPLAIN ANALYZE returns the annotated plan, not rows.
    EXPECT_TRUE(result.is_explain);
    EXPECT_EQ(result.result.row_count(), 0u);
    EXPECT_FALSE(result.profile_json.empty());

    // Every plan line carries rows=est/actual and the counter annotations;
    // the trailer carries wall time and the worst q-error.
    ASSERT_FALSE(result.explain_text.empty());
    size_t lines = 0;
    size_t start = 0;
    while (start < result.explain_text.size()) {
      size_t end = result.explain_text.find('\n', start);
      if (end == std::string::npos) end = result.explain_text.size();
      const std::string line = result.explain_text.substr(start, end - start);
      start = end + 1;
      if (line.empty()) continue;
      ++lines;
      if (line.rfind("--", 0) == 0) {
        EXPECT_NE(line.find("wall="), std::string::npos) << line;
        EXPECT_NE(line.find("worst-q-error="), std::string::npos) << line;
      } else {
        EXPECT_NE(line.find("rows="), std::string::npos) << line;
        EXPECT_NE(line.find("/"), std::string::npos) << line;
        EXPECT_NE(line.find("time="), std::string::npos) << line;
        EXPECT_NE(line.find("cmp="), std::string::npos) << line;
        EXPECT_NE(line.find("spill="), std::string::npos) << line;
      }
    }
    EXPECT_GE(lines, 4u) << result.explain_text;
    if (parallelism == 4) {
      // The parallel shape is profiled too: exchange operators appear as
      // plan lines with their own actuals.
      EXPECT_NE(result.explain_text.find("exchange"), std::string::npos)
          << result.explain_text;
    }
  }
}

TEST_F(SqlProfileTest, ExplainAnalyzeStableForFixedSeed) {
  // Two fresh sessions over identically-seeded catalogs must render the
  // same EXPLAIN ANALYZE text modulo timings -- row counts, counters, and
  // q-errors are all deterministic for a fixed seed.
  std::vector<std::string> normalized;
  for (int attempt = 0; attempt < 2; ++attempt) {
    sql::Catalog catalog;
    RegisterTables(&catalog);
    sql::SqlSession session = MakeSession(&catalog, /*parallelism=*/1);
    sql::SqlResult<sql::QueryResult> got = session.Run(kJoinGroupBy);
    ASSERT_TRUE(got.ok()) << got.error().Render(kJoinGroupBy);
    normalized.push_back(NormalizeMs(got.value().explain_text));
    EXPECT_NE(normalized.back().find("?ms"), std::string::npos);
  }
  EXPECT_EQ(normalized[0], normalized[1]);
}

TEST_F(SqlProfileTest, FeedbackFlowsIntoTableStats) {
  sql::Catalog catalog;
  RegisterTables(&catalog);
  sql::SqlSession session = MakeSession(&catalog, /*parallelism=*/1);

  sql::SqlResult<sql::QueryResult> got = session.Run(kJoinGroupBy);
  ASSERT_TRUE(got.ok()) << got.error().Render(kJoinGroupBy);

  // The profiled run recorded per-table estimate-vs-actual observations.
  const auto& feedback = session.table_feedback();
  ASSERT_TRUE(feedback.count("lineitem")) << feedback.size();
  ASSERT_TRUE(feedback.count("orders"));
  EXPECT_DOUBLE_EQ(feedback.at("lineitem").actual_rows, 2000.0);
  EXPECT_DOUBLE_EQ(feedback.at("orders").actual_rows, 500.0);
  EXPECT_GE(feedback.at("lineitem").q_error, 1.0);
  EXPECT_EQ(feedback.at("lineitem").runs, 1u);

  // ApplyFeedbackTo writes the observations into the catalog's TableStats
  // for later planning sessions.
  session.ApplyFeedbackTo(&catalog);
  const sql::CatalogTable* lineitem = catalog.Find("lineitem");
  ASSERT_NE(lineitem, nullptr);
  EXPECT_DOUBLE_EQ(lineitem->source.stats.observed_rows, 2000.0);
  EXPECT_EQ(lineitem->source.stats.feedback_runs, 1u);
}

TEST_F(SqlProfileTest, FeedbackFlipsJoinFromGraceHashToMergeAfterOneRun) {
  // The planner-consumes-feedback loop, end to end: the catalog lies that
  // both join inputs are tiny, so the cost-based planner picks grace hash
  // under a 64-row budget. The first (profiled) run overflows mid-query --
  // graceful degradation finishes it via the sort-merge fallback -- and
  // its observed cardinalities, fed back into the catalog, flip the very
  // next plan to sort + merge join.
  // Both inputs unsorted (a sorted input would make merge join nearly
  // free and decide the race by itself), both claiming 50 rows.
  sql::Catalog catalog;
  sql::Catalog::GeneratedSpec spec;
  spec.distinct_per_column = 100;
  spec.seed = 31;
  ASSERT_TRUE(catalog
                  .RegisterGenerated("lineitem", {"orderkey", "qty"},
                                     Schema(1, 1), 2000, spec)
                  .ok());
  spec.seed = 32;
  ASSERT_TRUE(catalog
                  .RegisterGenerated("orders", {"orderkey", "custkey"},
                                     Schema(1, 1), 500, spec)
                  .ok());
  ClaimTinyInputs(&catalog, {"lineitem", "orders"});

  plan::PlanExecutor::Options options;
  options.validate = true;
  options.abort_on_violation = false;
  options.planner.hash_memory_rows = 64;
  sql::SqlSession session(&catalog, options);

  const std::string query =
      "SELECT l.orderkey, o.custkey FROM lineitem l "
      "JOIN orders o ON l.orderkey = o.orderkey";

  // Mis-estimated plan: hash join, believing both sides fit the budget.
  sql::SqlResult<std::string> before = session.Explain(query);
  ASSERT_TRUE(before.ok());
  EXPECT_NE(before.value().find("hash-join(grace)"), std::string::npos)
      << before.value();

  // The profiled run overflows the 64-row build budget and completes via
  // the mid-query fallback.
  sql::SqlResult<sql::QueryResult> run =
      session.Run("EXPLAIN ANALYZE " + query);
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  EXPECT_GE(session.counters()->hash_join_fallbacks, 1u);
  EXPECT_NE(run.value().explain_text.find("!fallback(hash->sort)"),
            std::string::npos)
      << run.value().explain_text;

  // Feed the observed cardinalities back; the next plan avoids the hash
  // join entirely.
  session.ApplyFeedbackTo(&catalog);
  sql::SqlResult<std::string> after = session.Explain(query);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().find("merge-join"), std::string::npos)
      << after.value();
  EXPECT_EQ(after.value().find("hash-join(grace)"), std::string::npos)
      << after.value();
}

}  // namespace
}  // namespace ovc
