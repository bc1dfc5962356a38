// Row substrate: schema, buffers, counting comparators, generators.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/temp_file.h"
#include "row/comparator.h"
#include "row/generator.h"
#include "row/row_buffer.h"
#include "row/schema.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::AppendRows;
using ::ovc::testing::MakeTable;

TEST(Schema, LayoutAndNormalization) {
  Schema schema({SortDirection::kAscending, SortDirection::kDescending}, 3);
  EXPECT_EQ(schema.key_arity(), 2u);
  EXPECT_EQ(schema.payload_columns(), 3u);
  EXPECT_EQ(schema.total_columns(), 5u);
  EXPECT_FALSE(schema.all_ascending());
  EXPECT_EQ(schema.Normalize(0, 42), 42u);
  EXPECT_EQ(schema.Normalize(1, 42), ~uint64_t{42});
  EXPECT_EQ(schema.Denormalize(1, schema.Normalize(1, 42)), 42u);
  EXPECT_EQ(schema.ToString(), "key(asc,desc)+payload(3)");
}

TEST(Schema, Equality) {
  EXPECT_TRUE(Schema(3, 1) == Schema(3, 1));
  EXPECT_FALSE(Schema(3, 1) == Schema(3, 2));
  EXPECT_FALSE(Schema(3, 1) == Schema(2, 1));
  EXPECT_FALSE((Schema({SortDirection::kDescending}, 1) == Schema(1, 1)));
}

TEST(RowBuffer, AppendAndAccess) {
  RowBuffer buffer(3);
  EXPECT_TRUE(buffer.empty());
  uint64_t r1[3] = {1, 2, 3};
  buffer.AppendRow(r1);
  uint64_t* r2 = buffer.AppendRow();
  r2[0] = 4;
  r2[1] = 5;
  r2[2] = 6;
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.row(0)[2], 3u);
  EXPECT_EQ(buffer.row(1)[0], 4u);
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
}

// The append contract at widths 1 and 3: value v of row r is r * 10 + v.
class RowBufferContract : public ::testing::TestWithParam<uint32_t> {
 protected:
  static std::vector<uint64_t> RowValues(uint32_t width, uint64_t r) {
    std::vector<uint64_t> row(width);
    for (uint32_t v = 0; v < width; ++v) row[v] = r * 10 + v;
    return row;
  }
  static void ExpectRows(const RowBuffer& buffer, uint64_t rows) {
    ASSERT_EQ(buffer.size(), rows);
    for (uint64_t r = 0; r < rows; ++r) {
      for (uint32_t v = 0; v < buffer.width(); ++v) {
        ASSERT_EQ(buffer.row(r)[v], r * 10 + v) << "row " << r;
      }
    }
  }
};

TEST_P(RowBufferContract, AppendsWithinReserveRowsNeverMoveARow) {
  const uint32_t width = GetParam();
  RowBuffer buffer(width);
  buffer.ReserveRows(1000);
  std::vector<const uint64_t*> pointers;
  for (uint64_t r = 0; r < 1000; ++r) {
    if (r % 2 == 0) {
      buffer.AppendRow(RowValues(width, r).data());
    } else {
      uint64_t* row = buffer.AppendRow();
      const std::vector<uint64_t> values = RowValues(width, r);
      std::copy(values.begin(), values.end(), row);
    }
    pointers.push_back(buffer.row(r));
  }
  for (uint64_t r = 0; r < 1000; ++r) EXPECT_EQ(buffer.row(r), pointers[r]);
  ExpectRows(buffer, 1000);
}

TEST_P(RowBufferContract, ContentsSurviveManyGrowths) {
  const uint32_t width = GetParam();
  RowBuffer one_by_one(width);
  for (uint64_t r = 0; r < 5000; ++r) {
    one_by_one.AppendRow(RowValues(width, r).data());
  }
  ExpectRows(one_by_one, 5000);

  // Batches of 37 rows: most growths happen inside an AppendRows call.
  RowBuffer batched(width);
  std::vector<uint64_t> batch;
  uint64_t r = 0;
  while (r < 5000) {
    batch.clear();
    for (uint64_t i = 0; i < 37 && r < 5000; ++i, ++r) {
      const std::vector<uint64_t> values = RowValues(width, r);
      batch.insert(batch.end(), values.begin(), values.end());
    }
    batched.AppendRows(batch.data(), batch.size() / width);
  }
  ExpectRows(batched, 5000);
}

TEST_P(RowBufferContract, ClearEmptiesAndAppendsAgain) {
  const uint32_t width = GetParam();
  RowBuffer buffer(width);
  for (uint64_t r = 0; r < 100; ++r) {
    buffer.AppendRow(RowValues(width, r + 7).data());
  }
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.empty());
  for (uint64_t r = 0; r < 300; ++r) {
    buffer.AppendRow(RowValues(width, r).data());
  }
  ExpectRows(buffer, 300);
}

TEST_P(RowBufferContract, MovedFromBufferIsEmpty) {
  const uint32_t width = GetParam();
  RowBuffer source(width);
  for (uint64_t r = 0; r < 50; ++r) {
    source.AppendRow(RowValues(width, r).data());
  }
  RowBuffer moved(std::move(source));
  ExpectRows(moved, 50);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  source.AppendRow(RowValues(width, 0).data());
  ExpectRows(source, 1);
  RowBuffer assigned(width);
  assigned = std::move(moved);
  ExpectRows(assigned, 50);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
}

INSTANTIATE_TEST_SUITE_P(Widths, RowBufferContract, ::testing::Values(1u, 3u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "width" + std::to_string(info.param);
                         });

TEST(KeyComparator, CountsColumnComparisons) {
  Schema schema(4, 1);
  QueryCounters counters;
  KeyComparator cmp(&schema, &counters);
  const uint64_t a[5] = {1, 2, 3, 4, 99};
  const uint64_t b[5] = {1, 2, 9, 9, 99};
  EXPECT_LT(cmp.Compare(a, b), 0);
  // Stops at the first difference: columns 0, 1, 2 inspected.
  EXPECT_EQ(counters.column_comparisons, 3u);
  EXPECT_EQ(counters.row_comparisons, 1u);
  counters.Reset();
  EXPECT_EQ(cmp.FirstDifference(a, b, 1), 2u);
  EXPECT_EQ(counters.column_comparisons, 2u);
  counters.Reset();
  EXPECT_EQ(cmp.FirstDifference(a, a, 0), 4u);  // equal keys
  EXPECT_EQ(counters.column_comparisons, 4u);
  // Payload column never inspected.
}

TEST(KeyComparator, DescendingColumns) {
  Schema schema({SortDirection::kDescending}, 0);
  KeyComparator cmp(&schema, nullptr);
  const uint64_t a[1] = {10};
  const uint64_t b[1] = {20};
  // Descending: 20 sorts before 10.
  EXPECT_GT(cmp.Compare(a, b), 0);
}

TEST(Generator, DeterministicAndShaped) {
  Schema schema(3, 1);
  RowBuffer t1 = MakeTable(schema, 500, 4, /*seed=*/11);
  RowBuffer t2 = MakeTable(schema, 500, 4, /*seed=*/11);
  ASSERT_EQ(t1.size(), t2.size());
  for (size_t i = 0; i < t1.size(); ++i) {
    for (uint32_t c = 0; c < schema.total_columns(); ++c) {
      ASSERT_EQ(t1.row(i)[c], t2.row(i)[c]) << i << "," << c;
    }
  }
  // Few distinct values per key column.
  for (size_t i = 0; i < t1.size(); ++i) {
    for (uint32_t c = 0; c < 3; ++c) {
      EXPECT_LT(t1.row(i)[c], 4u);
    }
  }
  // Payload is the row number.
  EXPECT_EQ(t1.row(42)[3], 42u);
}

TEST(Generator, SortedOutputIsSorted) {
  Schema schema(4);
  RowBuffer t = MakeTable(schema, 300, 3, /*seed=*/5, /*sorted=*/true);
  KeyComparator cmp(&schema, nullptr);
  for (size_t i = 1; i < t.size(); ++i) {
    EXPECT_LE(cmp.Compare(t.row(i - 1), t.row(i)), 0) << i;
  }
}

TEST(Generator, GroupedRowsHaveExactRatio) {
  Schema schema(4, 1);
  RowBuffer t(schema.total_columns());
  GenerateGroupedRows(schema, /*groups=*/100, /*rows_per_group=*/7,
                      /*distinct_per_column=*/8, /*seed=*/3, &t);
  ASSERT_EQ(t.size(), 700u);
  KeyComparator cmp(&schema, nullptr);
  uint64_t groups = 1;
  uint64_t current = 1;
  for (size_t i = 1; i < t.size(); ++i) {
    const int c = cmp.Compare(t.row(i - 1), t.row(i));
    ASSERT_LE(c, 0);
    if (c < 0) {
      EXPECT_EQ(current, 7u);
      current = 1;
      ++groups;
    } else {
      ++current;
    }
  }
  EXPECT_EQ(groups, 100u);
}

TEST(Rng, DeterministicStreams) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.Uniform(10), 10u);
    const uint64_t v = a.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(TempFiles, WriteReadRoundtrip) {
  TempFileManager temp;
  const std::string path = temp.NewPath("unit");
  FileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.WriteU64(123456789ull).ok());
  ASSERT_TRUE(writer.WriteU32(42).ok());
  ASSERT_TRUE(writer.Close().ok());

  FileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint64_t v64 = 0;
  uint32_t v32 = 0;
  EXPECT_FALSE(reader.AtEof());
  ASSERT_TRUE(reader.ReadU64(&v64).ok());
  ASSERT_TRUE(reader.ReadU32(&v32).ok());
  EXPECT_EQ(v64, 123456789ull);
  EXPECT_EQ(v32, 42u);
  EXPECT_TRUE(reader.AtEof());
  ASSERT_TRUE(reader.Close().ok());
}

TEST(TempFiles, WriteLargerThanOneBlock) {
  // One Write spanning several I/O blocks, starting mid-block, comes back
  // intact through reads that also span blocks.
  TempFileManager temp;
  const std::string path = temp.NewPath("unit");
  std::vector<uint8_t> big(3 * kBlockBytes + 5);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i * 7);
  FileWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.WriteU32(42).ok());
  ASSERT_TRUE(writer.Write(big.data(), big.size()).ok());
  ASSERT_TRUE(writer.WriteU64(123456789ull).ok());
  EXPECT_EQ(writer.bytes_written(), 4 + big.size() + 8);
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(std::filesystem::file_size(path), 4 + big.size() + 8);

  FileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  uint32_t v32 = 0;
  ASSERT_TRUE(reader.ReadU32(&v32).ok());
  EXPECT_EQ(v32, 42u);
  std::vector<uint8_t> back(big.size());
  ASSERT_TRUE(reader.Read(back.data(), back.size()).ok());
  EXPECT_EQ(back, big);
  EXPECT_FALSE(reader.AtEof());
  uint64_t v64 = 0;
  ASSERT_TRUE(reader.ReadU64(&v64).ok());
  EXPECT_EQ(v64, 123456789ull);
  EXPECT_TRUE(reader.AtEof());
  // Past the end: a short read is an error, not silence.
  Status past = reader.ReadU64(&v64);
  EXPECT_EQ(past.code(), StatusCode::kIoError);
  ASSERT_TRUE(reader.Close().ok());
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
  StatusOr<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  StatusOr<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace ovc
