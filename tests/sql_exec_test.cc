// End-to-end SQL front-end tests: every supported clause combination runs
// through SqlSession and is cross-checked row-for-row against the
// equivalent hand-built PlanBuilder plan, with OvcStreamChecker validation
// on, at parallelism 1 and 4. Also asserts the acceptance property: an
// ORDER BY over a pre-sorted coded table plans as an elided sort.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "plan/logical_plan.h"
#include "plan/plan_executor.h"
#include "sql/catalog.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace ovc::sql {
namespace {

using ovc::testing::RowVec;
using ovc::testing::ToRowVec;
using plan::PlanBuilder;

plan::PlanExecutor::Options MakeOptions(uint32_t parallelism) {
  plan::PlanExecutor::Options options;
  options.validate = true;
  options.abort_on_violation = false;
  options.planner.parallelism = parallelism;
  return options;
}

class SqlExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Payload columns carry the running row number (see GenerateRows), so
    // e.g. lineitem.qty equals the pre-sort row id.
    Catalog::GeneratedSpec spec;
    spec.distinct_per_column = 100;
    spec.seed = 1;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("lineitem",
                                       {"orderkey", "qty", "price"},
                                       Schema(1, 2), 2000, spec)
                    .ok());
    spec.seed = 2;
    spec.sorted = true;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("orders", {"orderkey", "custkey"},
                                       Schema(1, 1), 500, spec)
                    .ok());
    spec = Catalog::GeneratedSpec();
    spec.distinct_per_column = 8;
    spec.seed = 3;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("hits", {"site", "day", "visitor"},
                                       Schema(3, 0), 3000, spec)
                    .ok());
    spec.seed = 4;
    spec.sorted = true;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("events", {"site", "day", "visitor"},
                                       Schema(3, 0), 2000, spec)
                    .ok());
    spec = Catalog::GeneratedSpec();
    spec.distinct_per_column = 32;
    spec.seed = 5;
    ASSERT_TRUE(
        catalog_.RegisterGenerated("s1", {"a", "b"}, Schema(2, 0), 1500, spec)
            .ok());
    spec.seed = 6;
    ASSERT_TRUE(
        catalog_.RegisterGenerated("s2", {"a", "b"}, Schema(2, 0), 1500, spec)
            .ok());
    spec = Catalog::GeneratedSpec();
    spec.distinct_per_column = 6;
    spec.seed = 7;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("wide", {"a", "b", "c"}, Schema(2, 1),
                                       2000, spec)
                    .ok());
  }

  plan::TableSource Source(const std::string& name) const {
    const CatalogTable* table = catalog_.Find(name);
    EXPECT_NE(table, nullptr) << name;
    return table->source;
  }

  /// Runs `sql_text` through SqlSession and `hand` (the binder-equivalent
  /// hand-built plan) through PlanExecutor at parallelism 1 and 4;
  /// expects validated streams and row-for-row equal results.
  void CheckSql(const std::string& sql_text,
                const std::function<std::unique_ptr<plan::LogicalNode>()>&
                    hand) {
    RowVec rows_at_1;
    for (uint32_t parallelism : {1u, 4u}) {
      SCOPED_TRACE("parallelism " + std::to_string(parallelism));
      const plan::PlanExecutor::Options options = MakeOptions(parallelism);

      SqlSession session(&catalog_, options);
      SqlResult<QueryResult> got = session.Run(sql_text);
      ASSERT_TRUE(got.ok()) << got.error().Render(sql_text);
      EXPECT_TRUE(got.value().result.ok())
          << got.value().result.validation_error;

      QueryCounters counters;
      TempFileManager temp;
      plan::PlanExecutor executor(&counters, &temp, options);
      std::unique_ptr<plan::LogicalNode> logical = hand();
      plan::ExecutionResult want = executor.Run(logical.get());
      EXPECT_TRUE(want.ok()) << want.validation_error;

      const RowVec got_rows = ToRowVec(got.value().result.rows);
      const RowVec want_rows = ToRowVec(want.rows);
      ASSERT_EQ(got_rows.size(), want_rows.size());
      EXPECT_EQ(got_rows, want_rows);

      if (parallelism == 1) {
        rows_at_1 = got_rows;
      } else {
        // Serial and exchange-parallel plans agree on the multiset.
        RowVec serial = rows_at_1, parallel = got_rows;
        ovc::testing::Canonicalize(&serial);
        ovc::testing::Canonicalize(&parallel);
        EXPECT_EQ(serial, parallel);
      }
    }
  }

  Catalog catalog_;
};

TEST_F(SqlExecTest, SelectStar) {
  CheckSql("SELECT * FROM lineitem", [&] {
    return PlanBuilder::Scan(Source("lineitem")).Build();
  });
}

TEST_F(SqlExecTest, ProjectionReorder) {
  CheckSql("SELECT qty, orderkey FROM lineitem", [&] {
    return PlanBuilder::Scan(Source("lineitem"))
        .Project(Schema(1, 1), {1, 0})
        .Build();
  });
}

TEST_F(SqlExecTest, WhereConjunction) {
  CheckSql(
      "SELECT * FROM lineitem WHERE qty < 600 AND orderkey >= 10 "
      "AND qty != price",
      [&] {
        return PlanBuilder::Scan(Source("lineitem"))
            .Filter([](const uint64_t* row) {
              return row[1] < 600 && row[0] >= 10 && row[1] != row[2];
            })
            .Build();
      });
}

TEST_F(SqlExecTest, WhereColumnVsColumn) {
  CheckSql("SELECT a, b FROM s1 WHERE a = b", [&] {
    return PlanBuilder::Scan(Source("s1"))
        .Filter([](const uint64_t* row) { return row[0] == row[1]; })
        .Build();
  });
}

TEST_F(SqlExecTest, JoinSortedProbe) {
  // orders is pre-sorted with codes; the planner sorts lineitem once and
  // merge joins. SELECT * drops the internal match-indicator column.
  CheckSql(
      "SELECT * FROM orders o INNER JOIN lineitem l "
      "ON o.orderkey = l.orderkey",
      [&] {
        PlanBuilder right = PlanBuilder::Scan(Source("lineitem"));
        return PlanBuilder::Scan(Source("orders"))
            .Join(std::move(right), JoinType::kInner)
            .Project(Schema(1, 3), {0, 1, 2, 3})
            .Build();
      });

  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::unique_ptr<PreparedQuery>> prepared = session.Prepare(
      "SELECT * FROM orders o INNER JOIN lineitem l "
      "ON o.orderkey = l.orderkey");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared.value()->physical->Uses(plan::PhysicalAlg::kMergeJoin));
  EXPECT_NE(prepared.value()->explain_text().find("merge-join"),
            std::string::npos);
}

TEST_F(SqlExecTest, JoinOnNonLeadingColumnRearranges) {
  // l.qty is a payload column: the binder projects lineitem so qty is the
  // key before joining against orders' leading key.
  CheckSql(
      "SELECT * FROM lineitem l INNER JOIN orders o ON l.qty = o.orderkey",
      [&] {
        PlanBuilder right = PlanBuilder::Scan(Source("orders"));
        return PlanBuilder::Scan(Source("lineitem"))
            .Project(Schema(1, 2), {1, 0, 2})
            .Join(std::move(right), JoinType::kInner)
            .Project(Schema(1, 3), {0, 1, 2, 3})
            .Build();
      });
}

TEST_F(SqlExecTest, GroupByLeadingKeyAllAggregates) {
  CheckSql(
      "SELECT orderkey, COUNT(*) AS n, SUM(qty) AS s, MIN(qty) AS lo, "
      "MAX(price) AS hi FROM lineitem GROUP BY orderkey",
      [&] {
        return PlanBuilder::Scan(Source("lineitem"))
            .Aggregate(1, {{AggFn::kCount, 0},
                           {AggFn::kSum, 1},
                           {AggFn::kMin, 1},
                           {AggFn::kMax, 2}})
            .Build();
      });
}

TEST_F(SqlExecTest, GroupByNonLeadingColumnRearranges) {
  // b is the second key column: the binder projects (b, c) -- grouping key
  // plus the single aggregate input -- before aggregating.
  CheckSql("SELECT b, SUM(c) AS s FROM wide GROUP BY b", [&] {
    return PlanBuilder::Scan(Source("wide"))
        .Project(Schema(1, 1), {1, 2})
        .Aggregate(1, {{AggFn::kSum, 1}})
        .Build();
  });
}

TEST_F(SqlExecTest, CountDistinct) {
  // The paper's web-analytics shape: distinct over (site, day, visitor),
  // then a streaming count per (site, day) -- no projection needed when
  // the key is already exactly the distinct key.
  CheckSql(
      "SELECT site, day, COUNT(DISTINCT visitor) AS v FROM hits "
      "GROUP BY site, day",
      [&] {
        return PlanBuilder::Scan(Source("hits"))
            .Distinct()
            .Aggregate(2, {{AggFn::kCount, 0}})
            .Build();
      });
}

TEST_F(SqlExecTest, SelectDistinct) {
  CheckSql("SELECT DISTINCT day FROM hits", [&] {
    return PlanBuilder::Scan(Source("hits"))
        .Project(Schema(1, 0), {1})
        .Distinct()
        .Build();
  });
}

TEST_F(SqlExecTest, OrderByPreSortedTableElidesSort) {
  CheckSql("SELECT * FROM events ORDER BY site, day", [&] {
    return PlanBuilder::Scan(Source("events")).Sort().Build();
  });

  // Acceptance: the EXPLAIN shows the sort elided, and no sort ran.
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::unique_ptr<PreparedQuery>> prepared =
      session.Prepare("SELECT * FROM events ORDER BY site, day");
  ASSERT_TRUE(prepared.ok());
  const plan::PhysicalPlan& physical = *prepared.value()->physical;
  EXPECT_TRUE(physical.Uses(plan::PhysicalAlg::kElidedSort));
  EXPECT_FALSE(physical.Uses(plan::PhysicalAlg::kSort));
  EXPECT_EQ(physical.inserted_sorts(), 0u);
  EXPECT_EQ(physical.elided_sorts(), 1u);
  EXPECT_NE(prepared.value()->explain_text().find("elided-sort"),
            std::string::npos);
}

TEST_F(SqlExecTest, OrderByDescendingAndNonPrefix) {
  // ORDER BY keys that are not the select list's leading columns: the
  // binder sorts on a rearranged key and restores the select order after.
  CheckSql("SELECT orderkey, qty FROM lineitem ORDER BY qty DESC, orderkey",
           [&] {
             return PlanBuilder::Scan(Source("lineitem"))
                 .Project(Schema(1, 1), {0, 1})
                 .Project(Schema({SortDirection::kDescending,
                                  SortDirection::kAscending},
                                 0),
                          {1, 0})
                 .Sort()
                 .Project(Schema(1, 1), {1, 0})
                 .Build();
           });
}

TEST_F(SqlExecTest, OrderByAlias) {
  CheckSql(
      "SELECT site, COUNT(*) AS n FROM hits GROUP BY site ORDER BY n, site",
      [&] {
        return PlanBuilder::Scan(Source("hits"))
            .Aggregate(1, {{AggFn::kCount, 0}})
            .Project(Schema(2, 0), {1, 0})
            .Sort()
            .Project(Schema(1, 1), {1, 0})
            .Build();
      });
}

TEST_F(SqlExecTest, LimitWithoutOrder) {
  CheckSql("SELECT * FROM lineitem LIMIT 7", [&] {
    return PlanBuilder::Scan(Source("lineitem")).Limit(7).Build();
  });
}

TEST_F(SqlExecTest, OrderByLimit) {
  CheckSql("SELECT * FROM events ORDER BY site, day, visitor LIMIT 5", [&] {
    return PlanBuilder::Scan(Source("events")).Sort().Limit(5).Build();
  });
}

TEST_F(SqlExecTest, SetOperations) {
  const char* kinds[] = {"INTERSECT", "EXCEPT", "UNION ALL"};
  const SetOpType types[] = {SetOpType::kIntersect, SetOpType::kExcept,
                             SetOpType::kUnion};
  const bool alls[] = {false, false, true};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(kinds[i]);
    CheckSql(
        std::string("SELECT a, b FROM s1 ") + kinds[i] +
            " SELECT a, b FROM s2",
        [&] {
          PlanBuilder right = PlanBuilder::Scan(Source("s2"));
          return PlanBuilder::Scan(Source("s1"))
              .SetOp(std::move(right), types[i], alls[i])
              .Build();
        });
  }
}

TEST_F(SqlExecTest, SetOpWithOrderAndLimit) {
  CheckSql(
      "SELECT a, b FROM s1 INTERSECT SELECT a, b FROM s2 "
      "ORDER BY a, b LIMIT 10",
      [&] {
        PlanBuilder right = PlanBuilder::Scan(Source("s2"));
        return PlanBuilder::Scan(Source("s1"))
            .SetOp(std::move(right), SetOpType::kIntersect, false)
            .Sort()
            .Limit(10)
            .Build();
      });
}

TEST_F(SqlExecTest, JoinWhereGroupOrderLimit) {
  // The kitchen sink: join + filter + aggregation + order + limit. In the
  // join output, l.qty sits at column 2 (key, o.custkey, l.qty, l.price).
  CheckSql(
      "SELECT o.orderkey, COUNT(*) AS n FROM orders o "
      "INNER JOIN lineitem l ON o.orderkey = l.orderkey "
      "WHERE l.qty < 1500 GROUP BY o.orderkey "
      "ORDER BY o.orderkey LIMIT 20",
      [&] {
        PlanBuilder right = PlanBuilder::Scan(Source("lineitem"));
        return PlanBuilder::Scan(Source("orders"))
            .Join(std::move(right), JoinType::kInner)
            .Filter([](const uint64_t* row) { return row[2] < 1500; })
            .Aggregate(1, {{AggFn::kCount, 0}})
            .Sort()
            .Limit(20)
            .Build();
      });
}

TEST_F(SqlExecTest, KeyPredicateOverSortedTableSeeks) {
  // A WHERE on the leading key of a sorted, coded table scans only the
  // key range; the filter above keeps the whole predicate.
  CheckSql("SELECT * FROM orders WHERE orderkey = 17 AND custkey > 100", [&] {
    return PlanBuilder::Scan(Source("orders"))
        .Filter([](const uint64_t* row) {
          return row[0] == 17 && row[1] > 100;
        })
        .Build();
  });
  CheckSql("SELECT * FROM events WHERE site = 3 AND day < 4", [&] {
    return PlanBuilder::Scan(Source("events"))
        .Filter([](const uint64_t* row) { return row[0] == 3 && row[1] < 4; })
        .Build();
  });

  SqlSession session(&catalog_, MakeOptions(1));
  const auto explain = [&](const std::string& sql) {
    SqlResult<std::string> text = session.Explain(sql);
    EXPECT_TRUE(text.ok()) << sql;
    return text.ok() ? text.value() : std::string();
  };
  const std::string seek =
      explain("SELECT * FROM orders WHERE orderkey = 17 AND custkey > 100");
  EXPECT_NE(seek.find("filter(orderkey = 17 and custkey > 100) "),
            std::string::npos)
      << seek;
  EXPECT_NE(seek.find("  scan(orders range orderkey = 17) [sorted(1)+ovc]"),
            std::string::npos)
      << seek;
  EXPECT_NE(explain("SELECT * FROM events WHERE site = 3 AND day < 4")
                .find("scan(events range site = 3 and day <= 3)"),
            std::string::npos);

  // No seek: a payload column, an unsorted table, a WHERE above a join.
  const std::pair<const char*, const char*> full_scans[] = {
      {"SELECT * FROM orders WHERE custkey = 17", "scan(orders) "},
      {"SELECT * FROM lineitem WHERE orderkey = 17", "scan(lineitem) "},
      {"SELECT * FROM orders o INNER JOIN lineitem l "
       "ON o.orderkey = l.orderkey WHERE o.orderkey = 17",
       "scan(orders) "}};
  for (const auto& [sql, scan] : full_scans) {
    const std::string text = explain(sql);
    EXPECT_EQ(text.find(" range "), std::string::npos) << text;
    EXPECT_NE(text.find(scan), std::string::npos) << text;
  }
}

TEST_F(SqlExecTest, OrderByOverSeekKeepsElidedSort) {
  const char* sql =
      "SELECT orderkey, custkey FROM orders "
      "WHERE orderkey >= 10 AND orderkey < 20 ORDER BY orderkey";
  CheckSql(sql, [&] {
    return PlanBuilder::Scan(Source("orders"))
        .Filter([](const uint64_t* row) { return row[0] >= 10 && row[0] < 20; })
        .Sort()
        .Build();
  });
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::unique_ptr<PreparedQuery>> prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared.value()->physical->Uses(plan::PhysicalAlg::kElidedSort));
  EXPECT_FALSE(prepared.value()->physical->Uses(plan::PhysicalAlg::kSort));
  EXPECT_NE(prepared.value()->explain_text().find(
                "scan(orders range 10 <= orderkey <= 19)"),
            std::string::npos)
      << prepared.value()->explain_text();
}

TEST_F(SqlExecTest, GroupByOverSeekStreamsAggregate) {
  // The in-stream aggregate reads group boundaries from codes, so it is
  // only planned when the seek kept order and codes.
  const char* sql =
      "SELECT orderkey, COUNT(*) AS n FROM orders WHERE orderkey < 40 "
      "GROUP BY orderkey";
  CheckSql(sql, [&] {
    return PlanBuilder::Scan(Source("orders"))
        .Filter([](const uint64_t* row) { return row[0] < 40; })
        .Aggregate(1, {{AggFn::kCount, 0}})
        .Build();
  });
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::unique_ptr<PreparedQuery>> prepared = session.Prepare(sql);
  ASSERT_TRUE(prepared.ok());
  const plan::PhysicalPlan& physical = *prepared.value()->physical;
  EXPECT_TRUE(physical.Uses(plan::PhysicalAlg::kInStreamAggregate));
  EXPECT_EQ(physical.inserted_sorts(), 0u);
  EXPECT_NE(prepared.value()->explain_text().find(
                "scan(orders range orderkey <= 39) [sorted(1)+ovc]"),
            std::string::npos)
      << prepared.value()->explain_text();
}

TEST_F(SqlExecTest, ParallelPlansUseExchanges) {
  SqlSession session(&catalog_, MakeOptions(4));
  // The ORDER BY gives the aggregation an interesting order, so the
  // planner picks the sort-based aggregate and its exchange-parallel
  // shape (hash-split on the grouping prefix, merged back in order).
  SqlResult<std::string> explain = session.Explain(
      "SELECT site, day, COUNT(*) AS n FROM hits GROUP BY site, day "
      "ORDER BY site, day");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.value().find("merge-exchange"), std::string::npos)
      << explain.value();
  EXPECT_NE(explain.value().find("split-exchange"), std::string::npos);
}

TEST_F(SqlExecTest, PreparedQueryReruns) {
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::unique_ptr<PreparedQuery>> prepared = session.Prepare(
      "SELECT orderkey, COUNT(*) AS n FROM lineitem GROUP BY orderkey");
  ASSERT_TRUE(prepared.ok());
  QueryResult first = session.Run(prepared.value().get());
  QueryResult second = session.Run(prepared.value().get());
  EXPECT_GT(first.result.row_count(), 0u);
  EXPECT_EQ(ToRowVec(first.result.rows), ToRowVec(second.result.rows));
  ASSERT_EQ(first.columns.size(), 2u);
  EXPECT_EQ(first.columns[0], "orderkey");
  EXPECT_EQ(first.columns[1], "n");
}

TEST_F(SqlExecTest, ExplainStatementReturnsPlanText) {
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<QueryResult> result =
      session.Run("EXPLAIN SELECT * FROM events ORDER BY site");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().is_explain);
  EXPECT_EQ(result.value().result.row_count(), 0u);
  EXPECT_NE(result.value().explain_text.find("elided-sort"),
            std::string::npos);
}

// --- Cost model surfacing --------------------------------------------------

TEST_F(SqlExecTest, ExplainShowsCostAnnotations) {
  // Every physical node's EXPLAIN line carries the cost model's
  // {rows=... cost=...} estimate (docs/COST_MODEL.md shows worked
  // examples; tools/check_docs.sh keeps them in sync with this output).
  SqlSession session(&catalog_, MakeOptions(1));
  SqlResult<std::string> explain = session.Explain(
      "SELECT * FROM orders o INNER JOIN lineitem l "
      "ON o.orderkey = l.orderkey");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain.value().find("{rows="), std::string::npos)
      << explain.value();
  EXPECT_NE(explain.value().find("cost="), std::string::npos);
  // The scan of lineitem reports the catalog's exact row count.
  EXPECT_NE(explain.value().find("{rows=2000"), std::string::npos)
      << explain.value();
}

// --- Binder errors ---------------------------------------------------------

TEST_F(SqlExecTest, BinderErrors) {
  SqlSession session(&catalog_, MakeOptions(1));

  auto expect_error = [&](const std::string& sql_text,
                          const std::string& message_part, uint32_t line,
                          uint32_t column) {
    SqlResult<QueryResult> result = session.Run(sql_text);
    ASSERT_FALSE(result.ok()) << "unexpectedly bound: " << sql_text;
    EXPECT_NE(result.error().message.find(message_part), std::string::npos)
        << result.error().message;
    EXPECT_EQ(result.error().line, line) << result.error().ToString();
    EXPECT_EQ(result.error().column, column) << result.error().ToString();
  };

  expect_error("SELECT * FROM nope", "unknown table 'nope'", 1, 15);
  expect_error("SELECT zap FROM lineitem", "unknown column 'zap'", 1, 8);
  // After an equi-join the key column is one output column reachable via
  // both input names, so unqualified `a` is NOT ambiguous -- but the two
  // payload columns named b are.
  expect_error(
      "SELECT a FROM s1 INNER JOIN s2 ON s1.a = s2.a WHERE b = 1",
      "ambiguous column 'b'", 1, 53);
  expect_error("SELECT qty FROM lineitem GROUP BY orderkey",
               "must appear in GROUP BY", 1, 8);
  expect_error(
      "SELECT site, COUNT(DISTINCT visitor), COUNT(*) FROM hits "
      "GROUP BY site",
      "COUNT(DISTINCT) cannot be combined", 1, 14);
  expect_error("SELECT COUNT(*) FROM hits", "aggregates require GROUP BY", 1,
               8);
  expect_error("SELECT a, b FROM s1 UNION SELECT orderkey FROM orders",
               "set operation inputs have 2 vs 1 columns", 1, 21);
  expect_error("SELECT a FROM s1 ORDER BY b",
               "ORDER BY column 'b' is not in the select list", 1, 27);
  expect_error("SELECT * FROM hits GROUP BY site",
               "SELECT * cannot be combined", 1, 15);
  expect_error("SELECT s1.a FROM s1 INNER JOIN s2 ON s1.a = s1.b",
               "join condition must compare a column of each input", 1, 38);
}

}  // namespace
}  // namespace ovc::sql
