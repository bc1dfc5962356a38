// Robustness and edge-case coverage: descending sort directions end to
// end, saturated 48-bit value images, B-tree mutation fuzzing against a
// reference container, and missing, torn or corrupt spill files.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/aggregate.h"
#include "exec/dedup.h"
#include "exec/filter.h"
#include "exec/merge_join.h"
#include "exec/scan.h"
#include "exec/sort_operator.h"
#include "plan/logical_plan.h"
#include "sort/run_file.h"
#include "sql/catalog.h"
#include "sql/session.h"
#include "storage/btree.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::ReferenceSort;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

// ---------------------------------------------------------------------------
// Descending sort directions.

struct DirectionParam {
  std::vector<SortDirection> directions;
  const char* name;
};

class DescendingTest : public ::testing::TestWithParam<DirectionParam> {};

TEST_P(DescendingTest, SortDedupAggregatePipeline) {
  Schema schema(GetParam().directions, /*payload_columns=*/1);
  RowBuffer table = MakeTable(schema, 3000, 5, /*seed=*/301);
  QueryCounters counters;
  TempFileManager temp;
  BufferScan scan(&schema, &table);
  SortConfig config;
  config.memory_rows = 256;
  SortOperator sort(&scan, &counters, &temp, config);
  InStreamAggregate agg(&sort, /*group_prefix=*/2, {{AggFn::kCount, 0}},
                        &counters);
  // DrainValidated's checker runs over the descending schema: both
  // sortedness and codes must respect the directions.
  RowVec out = DrainValidated(&agg);
  EXPECT_GT(out.size(), 1u);
  uint64_t total = 0;
  for (const auto& row : out) total += row[2];
  EXPECT_EQ(total, table.size());
}

TEST_P(DescendingTest, MergeJoinWithDirections) {
  Schema schema(GetParam().directions, /*payload_columns=*/1);
  RowBuffer lt = MakeTable(schema, 500, 4, /*seed=*/302);
  RowBuffer rt = MakeTable(schema, 400, 4, /*seed=*/303);
  QueryCounters counters;
  TempFileManager temp;
  BufferScan lscan(&schema, &lt), rscan(&schema, &rt);
  SortOperator lsort(&lscan, &counters, &temp, SortConfig());
  SortOperator rsort(&rscan, &counters, &temp, SortConfig());
  MergeJoin join(&lsort, &rsort, JoinType::kInner, &counters);
  RowVec out = DrainValidated(&join);

  // Reference: nested loops on raw tables.
  uint64_t expected = 0;
  const uint32_t arity = schema.key_arity();
  for (size_t i = 0; i < lt.size(); ++i) {
    for (size_t j = 0; j < rt.size(); ++j) {
      bool equal = true;
      for (uint32_t c = 0; c < arity; ++c) {
        if (lt.row(i)[c] != rt.row(j)[c]) {
          equal = false;
          break;
        }
      }
      if (equal) ++expected;
    }
  }
  EXPECT_EQ(out.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Directions, DescendingTest,
    ::testing::Values(
        DirectionParam{{SortDirection::kDescending,
                        SortDirection::kDescending,
                        SortDirection::kDescending},
                       "all_desc"},
        DirectionParam{{SortDirection::kAscending,
                        SortDirection::kDescending,
                        SortDirection::kAscending},
                       "mixed"},
        DirectionParam{{SortDirection::kDescending,
                        SortDirection::kAscending,
                        SortDirection::kAscending},
                       "desc_first"}),
    [](const ::testing::TestParamInfo<DirectionParam>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Saturated value images (column values beyond the 48-bit value field).

TEST(Saturation, SortAndDedupWithHugeValues) {
  Schema schema(2, 1);
  RowBuffer table(schema.total_columns());
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    uint64_t* row = table.AppendRow();
    // Mix tiny values with values far beyond 2^48, plus near-saturation
    // neighbors that collide in the 48-bit image.
    switch (rng.Uniform(4)) {
      case 0:
        row[0] = rng.Uniform(4);
        break;
      case 1:
        row[0] = OvcCodec::kValueMask + rng.Uniform(4);
        break;
      case 2:
        row[0] = ~uint64_t{0} - rng.Uniform(4);
        break;
      default:
        row[0] = OvcCodec::kValueMask - rng.Uniform(2);
        break;
    }
    row[1] = rng.Uniform(3) * OvcCodec::kValueMask;
    row[2] = i;
  }
  QueryCounters counters;
  TempFileManager temp;
  BufferScan scan(&schema, &table);
  SortConfig config;
  config.memory_rows = 128;
  SortOperator sort(&scan, &counters, &temp, config);
  DedupOperator dedup(&sort);
  RowVec out = DrainValidated(&dedup);

  RowVec expected = ReferenceSort(schema, table);
  // Reference dedup on keys.
  RowVec keys;
  for (const auto& row : expected) {
    if (keys.empty() || keys.back()[0] != row[0] || keys.back()[1] != row[1]) {
      keys.push_back(row);
    }
  }
  ASSERT_EQ(out.size(), keys.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i][0], keys[i][0]);
    EXPECT_EQ(out[i][1], keys[i][1]);
  }
}

TEST(Saturation, FilterTheoremStillHolds) {
  // The max rule with a lossy monotone value image: random sorted stream of
  // saturating values, random filters, checker-validated output.
  Schema schema(3);
  RowBuffer table(schema.total_columns());
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    uint64_t* row = table.AppendRow();
    for (int c = 0; c < 3; ++c) {
      row[c] = OvcCodec::kValueMask - 2 + rng.Uniform(5);
    }
  }
  SortRowsForTest(schema, &table);
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  InMemoryRun run(schema.total_columns());
  for (size_t i = 0; i < table.size(); ++i) {
    Ovc code = i == 0 ? codec.MakeInitial(table.row(i))
                      : codec.MakeFromRow(
                            table.row(i),
                            cmp.FirstDifference(table.row(i - 1),
                                                table.row(i), 0));
    run.Append(table.row(i), code);
  }
  RunScan scan(&schema, &run);
  uint64_t index = 0;
  FilterOperator filter(&scan, [&index](const uint64_t*) {
    return (index++ % 3) == 1;
  });
  DrainValidated(&filter);
}

// ---------------------------------------------------------------------------
// B-tree mutation fuzzing.

TEST(BTreeFuzz, RandomInsertDeleteAgainstMultiset) {
  Schema schema(2, 1);
  QueryCounters counters;
  BTree tree(&schema, &counters, /*node_capacity=*/8);
  std::multiset<std::pair<uint64_t, uint64_t>> reference;
  Rng rng(41);
  for (int op = 0; op < 5000; ++op) {
    const uint64_t k0 = rng.Uniform(16);
    const uint64_t k1 = rng.Uniform(16);
    const uint64_t row[3] = {k0, k1, static_cast<uint64_t>(op)};
    if (rng.Chance(2, 3) || reference.empty()) {
      tree.Insert(row);
      reference.emplace(k0, k1);
    } else {
      const bool tree_deleted = tree.Delete(row);
      auto it = reference.find({k0, k1});
      const bool ref_deleted = it != reference.end();
      if (ref_deleted) reference.erase(it);
      ASSERT_EQ(tree_deleted, ref_deleted) << "op " << op;
    }
    ASSERT_EQ(tree.size(), reference.size()) << "op " << op;
    // Periodically validate the whole stream (sortedness + codes).
    if (op % 500 == 499) {
      auto scan = tree.Scan();
      RowVec rows = DrainValidated(scan.get());
      ASSERT_EQ(rows.size(), reference.size());
      auto ref_it = reference.begin();
      for (const auto& r : rows) {
        ASSERT_EQ(r[0], ref_it->first);
        ASSERT_EQ(r[1], ref_it->second);
        ++ref_it;
      }
    }
  }
  // Theorem-based delete fixups never compare columns: a delete-only phase
  // must not move the compared-fixup counter (insert fixups may compare in
  // the equal-code case; delete fixups are pure max).
  const uint64_t compared_before = tree.compared_code_fixups();
  while (!reference.empty()) {
    const auto [k0, k1] = *reference.begin();
    reference.erase(reference.begin());
    const uint64_t row[3] = {k0, k1, 0};
    ASSERT_TRUE(tree.Delete(row));
  }
  EXPECT_EQ(tree.compared_code_fixups(), compared_before);
  EXPECT_EQ(tree.size(), 0u);
}

TEST(BTreeFuzz, DeleteEverything) {
  Schema schema(1, 0);
  BTree tree(&schema, nullptr, /*node_capacity=*/4);
  for (uint64_t i = 0; i < 500; ++i) {
    const uint64_t row[1] = {i % 37};
    tree.Insert(row);
  }
  for (uint64_t pass = 0; pass < 40; ++pass) {
    for (uint64_t k = 0; k < 37; ++k) {
      const uint64_t row[1] = {k};
      tree.Delete(row);
    }
  }
  EXPECT_EQ(tree.size(), 0u);
  auto scan = tree.Scan();
  EXPECT_TRUE(DrainValidated(scan.get()).empty());
}

// ---------------------------------------------------------------------------
// Failure behavior: corrupted or missing spill files.

TEST(FailureInjection, MissingRunFileReportsError) {
  Schema schema(2);
  RunFileReader reader(&schema);
  Status s = reader.Open("/nonexistent/path/run-0");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(FailureInjection, WriterToUnwritablePathReportsError) {
  Schema schema(2);
  RunFileWriter writer(&schema, nullptr);
  Status s = writer.Open("/nonexistent-dir/run-0");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

/// Writes `table` (sorted) as a run file and returns each row's end offset
/// in the file.
std::vector<uint64_t> WriteRunWithRowEnds(const Schema& schema,
                                          const RowBuffer& table,
                                          const std::string& path) {
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  RunFileWriter writer(&schema, nullptr);
  EXPECT_TRUE(writer.Open(path).ok());
  std::vector<uint64_t> ends;
  uint64_t end = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    const uint32_t offset =
        i == 0 ? 0 : cmp.FirstDifference(table.row(i - 1), table.row(i), 0);
    EXPECT_TRUE(
        writer.Append(table.row(i), codec.MakeFromRow(table.row(i), offset))
            .ok());
    end += 2 + (schema.total_columns() - offset) * 8;
    ends.push_back(end);
  }
  EXPECT_TRUE(writer.Close().ok());
  return ends;
}

TEST(FailureInjection, TruncatedRunFileEndsStreamWithRecordedError) {
  // A run file torn mid-row, past the first I/O block: every whole row
  // before the tear comes back, then the reader records the short read
  // and ends the stream (the degrade contract) instead of aborting.
  Schema schema(2, 1);
  RowBuffer table =
      MakeTable(schema, 20000, 16, /*seed=*/33, /*sorted=*/true);
  TempFileManager temp;
  const std::string path = temp.NewPath("run");
  const std::vector<uint64_t> ends = WriteRunWithRowEnds(schema, table, path);
  size_t whole = 0;
  while (ends[whole] <= kBlockBytes + 100) ++whole;
  std::filesystem::resize_file(path, ends[whole - 1] + 3);

  RunFileReader reader(&schema, &temp);
  ASSERT_TRUE(reader.Open(path).ok());
  const uint64_t* row = nullptr;
  Ovc code = 0;
  size_t n = 0;
  while (reader.Next(&row, &code)) {
    ASSERT_LT(n, whole);
    for (uint32_t c = 0; c < schema.total_columns(); ++c) {
      ASSERT_EQ(row[c], table.row(n)[c]) << n << "," << c;
    }
    ++n;
  }
  EXPECT_EQ(n, whole);
  const Status error = temp.first_error();
  EXPECT_EQ(error.code(), StatusCode::kIoError);
  EXPECT_NE(error.message().find("short read"), std::string::npos)
      << error.ToString();
  EXPECT_FALSE(reader.Next(&row, &code));
}

TEST(FailureInjection, OffsetBeyondKeyArityReportsCorruptRunFile) {
  // A prefix offset larger than the key arity cannot come from a writer.
  // Checked with 4 KiB behind the bad row (decoded in place in the block)
  // and with the bad row last in the file (decoded through Read).
  Schema schema(2, 1);
  for (const size_t trailing : {size_t{0}, size_t{4096}}) {
    SCOPED_TRACE(trailing);
    TempFileManager temp;
    const std::string path = temp.NewPath("run");
    FileWriter file;
    ASSERT_TRUE(file.Open(path).ok());
    const uint16_t good = 0;
    const uint64_t cols[3] = {1, 2, 3};
    ASSERT_TRUE(file.Write(&good, sizeof(good)).ok());
    ASSERT_TRUE(file.Write(cols, sizeof(cols)).ok());
    const uint16_t bad = 3;
    ASSERT_TRUE(file.Write(&bad, sizeof(bad)).ok());
    const std::string padding(trailing, '\0');
    ASSERT_TRUE(file.Write(padding.data(), padding.size()).ok());
    ASSERT_TRUE(file.Close().ok());

    RunFileReader reader(&schema, &temp);
    ASSERT_TRUE(reader.Open(path).ok());
    const uint64_t* row = nullptr;
    Ovc code = 0;
    ASSERT_TRUE(reader.Next(&row, &code));
    EXPECT_EQ(row[2], 3u);
    EXPECT_FALSE(reader.Next(&row, &code));
    const Status error = temp.first_error();
    EXPECT_EQ(error.code(), StatusCode::kIoError);
    EXPECT_NE(error.message().find("corrupt run file"), std::string::npos)
        << error.ToString();
  }
}

/// Scan wrapper that, at the end of its input, tears the last row of every
/// run file spilled so far under `dir`: the sort above it then merges torn
/// runs.
class TearSpilledRunsAtEnd : public Operator {
 public:
  TearSpilledRunsAtEnd(std::unique_ptr<Operator> child, std::string dir,
                       int* torn)
      : child_(std::move(child)), dir_(std::move(dir)), torn_(torn) {}
  void Open() override {
    child_->Open();
    done_ = false;
  }
  uint32_t NextBatch(RowBlock* out) override {
    const uint32_t n = child_->NextBatch(out);
    if (n == 0 && !done_) {
      done_ = true;
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(dir_)) {
        if (!entry.is_regular_file() ||
            entry.path().filename().string().rfind("run-", 0) != 0) {
          continue;
        }
        std::filesystem::resize_file(entry.path(), entry.file_size() - 1);
        ++*torn_;
      }
    }
    return n;
  }
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  bool sorted() const override { return child_->sorted(); }
  bool has_ovc() const override { return child_->has_ovc(); }

 private:
  std::unique_ptr<Operator> child_;
  std::string dir_;
  int* torn_;
  bool done_ = false;
};

TEST(FailureInjection, SpillingOrderByOverTornRunsReportsSqlError) {
  Schema schema(1, 1);
  RowBuffer table = MakeTable(schema, 10000, 500, /*seed=*/34);
  TempFileManager root;
  int torn = 0;
  plan::TableSource source = plan::BufferSource("t", &schema, &table);
  auto scan = source.factory;
  source.factory = [scan, &root, &torn] {
    return std::make_unique<TearSpilledRunsAtEnd>(scan(), root.dir(), &torn);
  };
  sql::Catalog catalog;
  ASSERT_TRUE(catalog.Register(source, {"k", "v"}).ok());

  sql::SqlSession::Options options;
  options.validate = true;
  options.abort_on_violation = false;
  // A tiny sort workspace so the ORDER BY spills many runs.
  options.planner.sort_config.memory_rows = 256;
  sql::SqlSession session(&catalog, options, &root);
  sql::SqlResult<sql::QueryResult> got =
      session.Run("SELECT k, v FROM t ORDER BY k, v");
  EXPECT_GT(torn, 0);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.error().message.find("execution failed"), std::string::npos)
      << got.error().message;
  EXPECT_NE(got.error().message.find("short read"), std::string::npos)
      << got.error().message;
}

}  // namespace
}  // namespace ovc
