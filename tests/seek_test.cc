// Differential tests for the key-range seek: a WHERE clause that bounds
// the leading key columns of a sorted, coded table plans as `filter` over
// `scan(t range ...)`, and that plan must return exactly the rows and codes
// of the full scan plus filter -- for in-memory runs and B-trees, at block
// capacities 1, 7 and 1024, with every stream validated by
// OvcStreamChecker. Each lookup must also stay within the binary-search
// bound of 2 * ceil(log2 N) + 2 column comparisons (per key column only
// for a bounded column after an equality prefix).

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "plan/logical_plan.h"
#include "plan/physical_plan.h"
#include "sql/binder.h"
#include "sql/catalog.h"
#include "sql/parser.h"
#include "storage/btree.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using plan::LogicalNode;
using plan::LogicalOp;
using plan::PhysicalPlan;
using plan::Planner;
using testing::RowVec;

/// One table registered twice: as an in-memory run ("<name>_run") and as a
/// B-tree ("<name>_tree") over the same rows.
struct Table {
  Table(Schema s, const RowBuffer& rows) : schema(std::move(s)) {
    RowBuffer sorted = rows;
    SortRowsForTest(schema, &sorted);
    run = std::make_unique<InMemoryRun>(
        testing::RunFromSorted(schema, sorted));
    tree = std::make_unique<BTree>(&schema, nullptr);
    for (size_t i = 0; i < rows.size(); ++i) tree->Insert(rows.row(i));
  }

  Schema schema;
  std::unique_ptr<InMemoryRun> run;
  std::unique_ptr<BTree> tree;
};

/// Keys of `t` (one ascending key, one payload): even values 2..2000 drawn
/// at random, so odd keys are absent; 1,500 duplicates of 1000, a run that
/// crosses blocks at every capacity; both ends of the value domain.
RowBuffer MakeAscendingRows() {
  RowBuffer rows(2);
  Rng rng(11);
  uint64_t id = 0;
  auto add = [&](uint64_t k) {
    const uint64_t row[2] = {k, id++};
    rows.AppendRow(row);
  };
  for (int i = 0; i < 3; ++i) add(0);
  for (int i = 0; i < 3000; ++i) add(2 + 2 * rng.Uniform(1000));
  for (int i = 0; i < 1500; ++i) add(1000);
  add(UINT64_MAX - 1);
  add(UINT64_MAX);
  add(UINT64_MAX);
  return rows;
}

/// Rows of `d`: key (a descending, b ascending) plus payload c.
RowBuffer MakeDescendingRows() {
  RowBuffer rows(3);
  Rng rng(12);
  for (uint64_t i = 0; i < 3000; ++i) {
    const uint64_t row[3] = {rng.Uniform(16), rng.Uniform(40), i};
    rows.AppendRow(row);
  }
  return rows;
}

class SeekTest : public ::testing::Test {
 protected:
  SeekTest()
      : asc_(Schema(1, 1), MakeAscendingRows()),
        desc_(Schema({SortDirection::kDescending, SortDirection::kAscending},
                     1),
              MakeDescendingRows()) {
    Register("t", asc_, {"k", "v"});
    Register("d", desc_, {"a", "b", "c"});
  }

  void Register(const std::string& name, const Table& table,
                const std::vector<std::string>& columns) {
    ASSERT_TRUE(catalog_
                    .Register(plan::RunSource(name + "_run", &table.schema,
                                              table.run.get()),
                              columns)
                    .ok());
    ASSERT_TRUE(catalog_
                    .Register(plan::BTreeSource(name + "_tree",
                                                table.tree.get()),
                              columns)
                    .ok());
  }

  std::unique_ptr<LogicalNode> Bind(const std::string& sql) {
    auto stmt = sql::ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << sql;
    auto bound = sql::Binder(&catalog_).Bind(stmt.value().select);
    EXPECT_TRUE(bound.ok()) << sql;
    return std::move(bound.value().plan);
  }

  /// Runs `SELECT * FROM <table> WHERE <where>` over both sources as
  /// planned (expecting a seek iff `seeks`, when given) and with the key
  /// range dropped (full scan + filter), and requires identical rows and
  /// codes. Returns the row count.
  size_t Check(const std::string& table, const std::string& where,
               std::optional<bool> seeks) {
    size_t rows = 0;
    for (const char* kind : {"_run", "_tree"}) {
      SCOPED_TRACE(table + kind + " WHERE " + where);
      const std::string sql =
          "SELECT * FROM " + table + kind + " WHERE " + where;
      std::unique_ptr<LogicalNode> seek_plan = Bind(sql);
      std::unique_ptr<LogicalNode> scan_plan = Bind(sql);
      if (scan_plan->op != LogicalOp::kFilter) {
        ADD_FAILURE() << "expected a filter at the plan root";
        return 0;
      }
      scan_plan->key_range.reset();

      QueryCounters counters;
      PhysicalPlan seek = Planner(&counters, &temp_).Plan(seek_plan.get());
      PhysicalPlan scan = Planner(nullptr, &temp_).Plan(scan_plan.get());
      const bool seeking =
          seek.ToString().find(" range ") != std::string::npos;
      if (seeks.has_value()) {
        EXPECT_EQ(seeking, *seeks) << seek.ToString();
      }
      EXPECT_EQ(scan.ToString().find(" range "), std::string::npos);

      for (const uint32_t capacity : {1u, 7u, 1024u}) {
        std::vector<Ovc> seek_codes, scan_codes;
        counters.Reset();
        const RowVec got = testing::DrainValidated(
            seek.root(), /*check_codes=*/true, capacity, &seek_codes);
        const RowVec want = testing::DrainValidated(
            scan.root(), /*check_codes=*/true, capacity, &scan_codes);
        EXPECT_EQ(got, want) << "capacity " << capacity;
        EXPECT_EQ(seek_codes, scan_codes) << "capacity " << capacity;
        rows = got.size();
        if (!seeking) continue;
        const plan::KeyRange& range = *seek_plan->key_range;
        if (range.covers_predicate) {
          // The range is the whole predicate: the seek alone must return
          // exactly the filtered rows and codes, no more.
          std::unique_ptr<Operator> alone =
              seek_plan->children[0]->source.range_factory(range, nullptr);
          std::vector<Ovc> alone_codes;
          EXPECT_EQ(testing::DrainValidated(alone.get(), /*check_codes=*/true,
                                            capacity, &alone_codes),
                    want)
              << "capacity " << capacity;
          EXPECT_EQ(alone_codes, scan_codes) << "capacity " << capacity;
        }
        // At most two binary searches over N rows: 2 * ceil(log2 N) + 2
        // probes. That bounds the column comparisons too, except for a
        // bounded column after an equality prefix: there both searches
        // compare up to the range's key columns per probe. (An equality
        // range searches once and takes its end from the stored codes.)
        const double n = static_cast<double>(seek_plan->children[0]
                                                 ->source.stats.row_count);
        const double probes = 2 * std::ceil(std::log2(n)) + 2;
        const bool wide = range.bounded && range.columns() > 1;
        EXPECT_LE(counters.row_comparisons, probes);
        EXPECT_LE(counters.column_comparisons,
                  (wide ? range.columns() : 1) * probes);
      }
    }
    return rows;
  }

  Table asc_;
  Table desc_;
  sql::Catalog catalog_;
  TempFileManager temp_;
};

TEST_F(SeekTest, ComparisonOperators) {
  EXPECT_GT(Check("t", "k = 1000", true), 1500u);  // plus drawn 1000s
  EXPECT_GT(Check("t", "k < 10", true), 3u);
  EXPECT_GT(Check("t", "k <= 10", true), Check("t", "k < 10", true));
  EXPECT_GT(Check("t", "k > 1000", true), 3u);
  EXPECT_GT(Check("t", "k >= 1000", true), Check("t", "k > 1000", true));
  EXPECT_GT(Check("t", "k > 100 AND k <= 400", true), 0u);
  EXPECT_GT(Check("t", "k >= 1000 AND k <= 1000", true), 1500u);
}

TEST_F(SeekTest, ContradictionsAndAbsentKeys) {
  EXPECT_EQ(Check("t", "k > 5 AND k < 3", true), 0u);
  EXPECT_EQ(Check("t", "k = 4 AND k = 6", true), 0u);
  EXPECT_EQ(Check("t", "k = 7", true), 0u);     // odd: never drawn
  EXPECT_EQ(Check("t", "k = 2001", true), 0u);  // past the drawn values
}

TEST_F(SeekTest, LiteralOnTheLeft) {
  EXPECT_EQ(Check("t", "1000 = k", true), Check("t", "k = 1000", true));
  EXPECT_EQ(Check("t", "10 > k", true), Check("t", "k < 10", true));
  EXPECT_EQ(Check("t", "1000 <= k", true), Check("t", "k >= 1000", true));
}

TEST_F(SeekTest, BoundsAtBothEndsOfTheDomain) {
  EXPECT_EQ(Check("t", "k = 0", true), 3u);
  EXPECT_EQ(Check("t", "k <= 0", true), 3u);
  EXPECT_EQ(Check("t", "k < 0", true), 0u);
  EXPECT_EQ(Check("t", "k >= 0", false), 4506u);  // bounds nothing
  EXPECT_EQ(Check("t", "k = 18446744073709551615", true), 2u);
  EXPECT_EQ(Check("t", "k >= 18446744073709551614", true), 3u);
  EXPECT_EQ(Check("t", "k > 18446744073709551615", true), 0u);
  EXPECT_EQ(Check("t", "k < 18446744073709551615", true), 4504u);
}

TEST_F(SeekTest, ResidualConjunctsStayInTheFilter) {
  const size_t all = Check("t", "k = 1000", true);
  const size_t some = Check("t", "k = 1000 AND v >= 3003", true);
  EXPECT_GT(some, 0u);
  EXPECT_LT(some, all);
  EXPECT_EQ(Check("t", "k = 1000 AND k <> 1000", true), 0u);
}

TEST_F(SeekTest, DescendingKeyColumn) {
  EXPECT_GT(Check("d", "a = 3", true), 0u);
  EXPECT_GT(Check("d", "a > 12", true), 0u);
  EXPECT_GT(Check("d", "a <= 2", true), 0u);
  EXPECT_GT(Check("d", "a >= 4 AND a < 9", true), 0u);
  EXPECT_EQ(Check("d", "a = 99", true), 0u);
  EXPECT_EQ(Check("d", "a > 9 AND a < 4", true), 0u);
}

TEST_F(SeekTest, TwoColumnPrefix) {
  EXPECT_GT(Check("d", "a = 3 AND b = 7", true), 0u);
  EXPECT_GT(Check("d", "b = 7 AND 3 = a", true), 0u);
  EXPECT_EQ(Check("d", "a = 3 AND b = 77", true), 0u);
  EXPECT_GT(Check("d", "a = 3 AND b > 10 AND b <= 20", true), 0u);
  EXPECT_GT(Check("d", "a = 3 AND b = 7 AND c > 100", true), 0u);
}

TEST_F(SeekTest, NoLeadingKeyBoundMeansNoSeek) {
  EXPECT_GT(Check("d", "b = 7", false), 0u);   // not a key prefix
  EXPECT_GT(Check("d", "c > 100", false), 0u);  // payload column
  EXPECT_GT(Check("t", "k <> 1000", false), 0u);
  EXPECT_GT(Check("t", "k = v", false), 0u);
}

TEST_F(SeekTest, RandomConjunctionsMatchFullScan) {
  // Conjunctions of column-versus-literal comparisons on key and payload
  // columns, literal on either side, values around and beyond the data:
  // whatever range the binder extracts, the seek must keep every
  // qualifying row.
  struct Column {
    std::string table;
    std::string name;
    uint64_t domain;  // literals are drawn from [0, domain)
  };
  const Column columns[] = {{"t", "k", 2004}, {"t", "v", 4510},
                            {"d", "a", 17},   {"d", "b", 41},
                            {"d", "c", 3001}};
  const char* ops[] = {"=", "<", "<=", ">", ">=", "<>"};
  Rng rng(99);
  for (int q = 0; q < 120; ++q) {
    const std::string table = q % 2 == 0 ? "t" : "d";
    std::string where;
    for (uint64_t i = 0, n = 1 + rng.Uniform(3); i < n; ++i) {
      const Column* col;
      do {
        col = &columns[rng.Uniform(5)];
      } while (col->table != table);
      const uint64_t pick = rng.Uniform(10);
      const uint64_t value = pick == 0   ? 0
                             : pick == 1 ? UINT64_MAX
                                         : rng.Uniform(col->domain);
      const std::string op = ops[rng.Uniform(6)];
      const std::string lit = std::to_string(value);
      if (i > 0) where += " AND ";
      where += rng.Uniform(2) == 0 ? col->name + " " + op + " " + lit
                                   : lit + " " + op + " " + col->name;
    }
    Check(table, where, std::nullopt);
  }
}

}  // namespace
}  // namespace ovc
