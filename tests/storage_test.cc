// Storage substrates (Section 4.11): B-tree with code maintenance, LSM
// forest, RLE column store, RID-list secondary index.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "storage/btree.h"
#include "storage/column_store.h"
#include "storage/lsm.h"
#include "storage/rid_index.h"
#include "exec/scan.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::ReferenceSort;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

struct BTreeParam {
  uint64_t rows;
  uint64_t distinct;
  uint32_t node_capacity;
};

class BTreeTest : public ::testing::TestWithParam<BTreeParam> {};

TEST_P(BTreeTest, InsertedRowsScanSortedWithValidCodes) {
  const auto p = GetParam();
  Schema schema(3, 1);
  QueryCounters counters;
  BTree tree(&schema, &counters, p.node_capacity);
  RowBuffer table = MakeTable(schema, p.rows, p.distinct, /*seed=*/p.rows);
  for (size_t i = 0; i < table.size(); ++i) {
    tree.Insert(table.row(i));
  }
  EXPECT_EQ(tree.size(), p.rows);
  auto scan = tree.Scan();
  QueryCounters scan_counters;
  RowVec out = DrainValidated(scan.get());
  RowVec expected = ReferenceSort(schema, table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
  // Scans cost zero comparisons: codes come straight from storage.
  EXPECT_EQ(scan_counters.column_comparisons, 0u);
  if (p.rows > p.node_capacity) {
    EXPECT_GT(tree.height(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreeTest,
    ::testing::Values(BTreeParam{100, 4, 4}, BTreeParam{2000, 4, 8},
                      BTreeParam{2000, 100, 64}, BTreeParam{5000, 2, 16},
                      BTreeParam{1, 4, 4}),
    [](const ::testing::TestParamInfo<BTreeParam>& info) {
      return "rows" + std::to_string(info.param.rows) + "_domain" +
             std::to_string(info.param.distinct) + "_cap" +
             std::to_string(info.param.node_capacity);
    });

TEST(BTree, DeleteFixesCodesWithoutComparisons) {
  Schema schema(3);
  QueryCounters counters;
  BTree tree(&schema, &counters, 8);
  RowBuffer table = MakeTable(schema, 1000, 3, /*seed=*/7);
  for (size_t i = 0; i < table.size(); ++i) tree.Insert(table.row(i));

  // Delete every third row (by key); each delete's successor fixup is free.
  const uint64_t fixups_before = tree.compared_code_fixups();
  uint64_t deleted = 0;
  for (size_t i = 0; i < table.size(); i += 3) {
    if (tree.Delete(table.row(i))) ++deleted;
  }
  EXPECT_GT(deleted, 0u);
  EXPECT_EQ(tree.compared_code_fixups(), fixups_before)
      << "delete fixups must never compare columns (pure theorem)";
  EXPECT_EQ(tree.size(), 1000 - deleted);

  // The surviving stream is still perfectly coded.
  auto scan = tree.Scan();
  DrainValidated(scan.get());
}

TEST(BTree, DeleteFirstAndLastMaintainCodes) {
  Schema schema(2);
  BTree tree(&schema, nullptr, 4);
  for (uint64_t i = 0; i < 50; ++i) {
    const uint64_t row[2] = {i / 5, i % 5};
    tree.Insert(row);
  }
  const uint64_t first[2] = {0, 0};
  const uint64_t last[2] = {9, 4};
  EXPECT_TRUE(tree.Delete(first));
  EXPECT_TRUE(tree.Delete(last));
  EXPECT_FALSE(tree.Delete(last));  // already gone
  auto scan = tree.Scan();
  RowVec out = DrainValidated(scan.get());
  EXPECT_EQ(out.size(), 48u);
}

TEST(BTree, RangeScanRebasesFirstCode) {
  Schema schema(2, 1);
  BTree tree(&schema, nullptr, 8);
  for (uint64_t i = 0; i < 300; ++i) {
    const uint64_t row[3] = {i % 10, i / 10, i};
    tree.Insert(row);
  }
  const uint64_t low[3] = {3, 0, 0};
  const uint64_t high[3] = {6, 29, 0};
  auto scan = tree.RangeScan(schema.key_arity(), low, high, nullptr);
  RowVec out = DrainValidated(scan.get());
  EXPECT_EQ(out.size(), 4 * 30u);  // first columns 3..6
  for (const auto& row : out) {
    EXPECT_GE(row[0], 3u);
    EXPECT_LE(row[0], 6u);
  }
}

TEST(BTree, DuplicateKeysSupported) {
  Schema schema(1, 1);
  BTree tree(&schema, nullptr, 4);
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t row[2] = {7, i};
    tree.Insert(row);
  }
  auto scan = tree.Scan();
  RowVec out = DrainValidated(scan.get());
  EXPECT_EQ(out.size(), 100u);
}

TEST(Lsm, IngestFlushScanRoundtrip) {
  Schema schema(3, 1);
  QueryCounters counters;
  TempFileManager temp;
  LsmForest::Options options;
  options.memtable_rows = 128;
  LsmForest forest(&schema, &counters, &temp, options);
  RowBuffer table = MakeTable(schema, 2000, 5, /*seed=*/14);
  for (size_t i = 0; i < table.size(); ++i) forest.Insert(table.row(i));
  EXPECT_GT(forest.run_count(), 1u);

  auto scan = forest.ScanAll();
  RowVec out = DrainValidated(scan.get());
  RowVec expected = ReferenceSort(schema, table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
}

TEST(Lsm, CompactionPreservesContentAndCodes) {
  Schema schema(2);
  TempFileManager temp;
  LsmForest::Options options;
  options.memtable_rows = 64;
  LsmForest forest(&schema, nullptr, &temp, options);
  RowBuffer table = MakeTable(schema, 1000, 3, /*seed=*/15);
  for (size_t i = 0; i < table.size(); ++i) forest.Insert(table.row(i));
  forest.Flush();
  const size_t runs_before = forest.run_count();
  ASSERT_GT(runs_before, 1u);
  forest.CompactAll();
  EXPECT_EQ(forest.run_count(), 1u);
  EXPECT_EQ(forest.compactions(), 1u);
  auto scan = forest.ScanAll();
  RowVec out = DrainValidated(scan.get());
  RowVec expected = ReferenceSort(schema, table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
}

TEST(Lsm, AutoCompactionTrigger) {
  Schema schema(2);
  TempFileManager temp;
  LsmForest::Options options;
  options.memtable_rows = 32;
  options.compaction_trigger = 4;
  LsmForest forest(&schema, nullptr, &temp, options);
  RowBuffer table = MakeTable(schema, 1000, 3, /*seed=*/16);
  for (size_t i = 0; i < table.size(); ++i) forest.Insert(table.row(i));
  EXPECT_GT(forest.compactions(), 0u);
  EXPECT_LT(forest.run_count(), 5u);
}

TEST(ColumnStore, ScanProducesCodesWithoutComparisons) {
  Schema schema(4, 1);
  QueryCounters counters;
  RowBuffer table = MakeTable(schema, 3000, 3, /*seed=*/17, /*sorted=*/true);
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
  RunScan input(&schema, &run);
  RleColumnStore store(&schema);
  store.Build(&input);
  EXPECT_EQ(store.rows(), 3000u);
  // Sorted low-cardinality data compresses: far fewer segments than cells.
  EXPECT_LT(store.total_segments(), 3000ull * 4 / 2);

  auto scan = store.CreateScan();
  RowVec out = DrainValidated(scan.get());
  EXPECT_EQ(out, ToRowVec(table));
  EXPECT_EQ(counters.column_comparisons, 0u);
}

TEST(ColumnStore, EmptyStore) {
  Schema schema(2);
  RleColumnStore store(&schema);
  RowBuffer empty(2);
  BufferScan scan_in(&schema, &empty);
  // Build requires sorted+ovc input; use an empty run scan instead.
  InMemoryRun run(2);
  RunScan input(&schema, &run);
  store.Build(&input);
  auto scan = store.CreateScan();
  RowVec out = DrainValidated(scan.get());
  EXPECT_TRUE(out.empty());
}

TEST(RidIndex, LookupAndRangeMergeAreValidRidStreams) {
  Schema table_schema(2, 1);
  RowBuffer table = MakeTable(table_schema, 1000, 8, /*seed=*/18);
  RidIndex index;
  index.Build(table, /*column=*/1);
  EXPECT_LE(index.distinct_values(), 8u);
  EXPECT_GT(index.compressed_bytes(), 0u);
  // Delta-varint compression: far fewer than 8 bytes per RID.
  EXPECT_LT(index.compressed_bytes(), 1000u * 4);

  // Single-value lookup: exactly the rows holding that value.
  QueryCounters counters;
  auto lookup = index.Lookup(3);
  RowVec rids = DrainValidated(lookup.get());
  uint64_t expected = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    if (table.row(i)[1] == 3) ++expected;
  }
  EXPECT_EQ(rids.size(), expected);

  // Range scan: union of values 2..5, sorted by RID.
  auto range = index.RangeScan(2, 5, &counters);
  RowVec range_rids = DrainValidated(range.get());
  uint64_t expected_range = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    if (table.row(i)[1] >= 2 && table.row(i)[1] <= 5) ++expected_range;
  }
  EXPECT_EQ(range_rids.size(), expected_range);
}

TEST(RidIndex, IndexIntersectionMatchesPredicateConjunction) {
  Schema table_schema(1, 2);  // one key, two indexed payload columns
  RowBuffer table = MakeTable(table_schema, 2000, 4, /*seed=*/19);
  // Overwrite payloads with indexable values.
  for (size_t i = 0; i < table.size(); ++i) {
    table.mutable_row(i)[1] = i % 7;
    table.mutable_row(i)[2] = i % 5;
  }
  RidIndex idx_a, idx_b;
  idx_a.Build(table, 1);
  idx_b.Build(table, 2);

  QueryCounters counters;
  auto scan_a = idx_a.Lookup(3);   // rows with col1 == 3
  auto scan_b = idx_b.Lookup(2);   // rows with col2 == 2
  auto intersection = IntersectRidStreams(scan_a.get(), scan_b.get(),
                                          &counters);
  RowVec rids = DrainValidated(intersection.get());
  uint64_t expected = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    if (table.row(i)[1] == 3 && table.row(i)[2] == 2) ++expected;
  }
  EXPECT_EQ(rids.size(), expected);
}

TEST(RidIndex, MultiLookupMergesInList) {
  Schema table_schema(1, 1);
  RowBuffer table = MakeTable(table_schema, 500, 3, /*seed=*/20);
  for (size_t i = 0; i < table.size(); ++i) {
    table.mutable_row(i)[1] = i % 9;
  }
  RidIndex index;
  index.Build(table, 1);
  auto scan = index.MultiLookup({1, 4, 8}, nullptr);
  RowVec rids = DrainValidated(scan.get());
  uint64_t expected = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    const uint64_t v = table.row(i)[1];
    if (v == 1 || v == 4 || v == 8) ++expected;
  }
  EXPECT_EQ(rids.size(), expected);
}

}  // namespace
}  // namespace ovc
