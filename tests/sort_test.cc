// External merge sort: run files, mini-run generation, spilling and merge
// cascading, segmented sort.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/ovc_checker.h"
#include "pq/loser_tree.h"
#include "row/row_block.h"
#include "sort/external_sort.h"
#include "sort/group_collapse.h"
#include "sort/run_file.h"
#include "sort/run_generation.h"
#include "sort/segmented_sort.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::MakeTable;
using ::ovc::testing::ReferenceSort;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

TEST(RunFile, RoundtripPreservesRowsAndCodes) {
  Schema schema(3, 2);
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  TempFileManager temp;
  QueryCounters counters;
  RowBuffer table = MakeTable(schema, 300, 3, /*seed=*/1, /*sorted=*/true);

  RunFileWriter writer(&schema, &counters);
  const std::string path = temp.NewPath("run");
  ASSERT_TRUE(writer.Open(path).ok());
  std::vector<Ovc> codes;
  for (size_t i = 0; i < table.size(); ++i) {
    Ovc code = i == 0 ? codec.MakeInitial(table.row(i))
                      : codec.MakeFromRow(
                            table.row(i),
                            cmp.FirstDifference(table.row(i - 1), table.row(i),
                                                0));
    codes.push_back(code);
    ASSERT_TRUE(writer.Append(table.row(i), code).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_EQ(writer.rows(), 300u);
  EXPECT_EQ(counters.rows_spilled, 300u);
  // Prefix truncation: strictly fewer bytes than full rows.
  EXPECT_LT(counters.bytes_spilled,
            300 * (schema.total_columns() * 8 + 2));

  RunFileReader reader(&schema);
  ASSERT_TRUE(reader.Open(path).ok());
  const uint64_t* row = nullptr;
  Ovc code = 0;
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(reader.Next(&row, &code)) << i;
    for (uint32_t c = 0; c < schema.total_columns(); ++c) {
      ASSERT_EQ(row[c], table.row(i)[c]) << i << "," << c;
    }
    ASSERT_EQ(code, codes[i]) << i;
  }
  EXPECT_FALSE(reader.Next(&row, &code));
}

/// Writes `table` (sorted) to a run file at `path`, coding each row against
/// its predecessor; returns the codes written.
std::vector<Ovc> WriteSortedRun(const Schema& schema, const RowBuffer& table,
                                const std::string& path,
                                QueryCounters* counters) {
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  RunFileWriter writer(&schema, counters);
  EXPECT_TRUE(writer.Open(path).ok());
  std::vector<Ovc> codes;
  for (size_t i = 0; i < table.size(); ++i) {
    codes.push_back(
        i == 0 ? codec.MakeInitial(table.row(i))
               : codec.MakeFromRow(table.row(i),
                                   cmp.FirstDifference(table.row(i - 1),
                                                       table.row(i), 0)));
    EXPECT_TRUE(writer.Append(table.row(i), codes.back()).ok());
  }
  EXPECT_TRUE(writer.Close().ok());
  return codes;
}

TEST(RunFile, RoundtripAcrossBlockBoundaries) {
  // Enough rows for several I/O blocks; prefix truncation makes row sizes
  // vary, so rows straddle block boundaries on both the write and the
  // read side.
  for (const uint32_t arity : {1u, 3u}) {
    SCOPED_TRACE(arity);
    Schema schema(arity, 1);
    OvcCodec codec(&schema);
    TempFileManager temp;
    QueryCounters counters;
    RowBuffer table =
        MakeTable(schema, 20000, 16, /*seed=*/7, /*sorted=*/true);
    const std::string path = temp.NewPath("run");
    const std::vector<Ovc> codes =
        WriteSortedRun(schema, table, path, &counters);

    uint64_t start = 0;
    uint64_t straddling = 0;
    for (Ovc code : codes) {
      const uint64_t end =
          start + 2 + (schema.total_columns() - codec.OffsetOf(code)) * 8;
      if (start / kBlockBytes != (end - 1) / kBlockBytes) ++straddling;
      start = end;
    }
    ASSERT_EQ(start, counters.bytes_spilled);
    EXPECT_EQ(std::filesystem::file_size(path), counters.bytes_spilled);
    EXPECT_GT(counters.bytes_spilled, 2 * kBlockBytes);
    EXPECT_GT(straddling, 0u);

    RunFileReader reader(&schema, &temp);
    ASSERT_TRUE(reader.Open(path).ok());
    const uint64_t* row = nullptr;
    Ovc code = 0;
    for (size_t i = 0; i < table.size(); ++i) {
      ASSERT_TRUE(reader.Next(&row, &code)) << i;
      for (uint32_t c = 0; c < schema.total_columns(); ++c) {
        ASSERT_EQ(row[c], table.row(i)[c]) << i << "," << c;
      }
      ASSERT_EQ(code, codes[i]) << i;
    }
    EXPECT_FALSE(reader.Next(&row, &code));
    EXPECT_TRUE(temp.first_error().ok()) << temp.first_error().ToString();
  }
}

TEST(RunFile, OnDiskFormatIsPinned) {
  // Per row: the 16-bit prefix offset, then the key columns past the
  // shared prefix and every payload column, 64-bit little-endian.
  Schema schema(2, 1);
  RowBuffer table(schema.total_columns());
  const uint64_t rows[3][3] = {{1, 2, 9}, {1, 3, 8}, {1, 3, 7}};
  for (const auto& r : rows) table.AppendRow(r);
  TempFileManager temp;
  const std::string path = temp.NewPath("run");
  WriteSortedRun(schema, table, path, nullptr);

  const std::vector<uint8_t> expected = {
      // {1, 2, 9}: offset 0, both key columns, payload.
      0, 0,  1, 0, 0, 0, 0, 0, 0, 0,  2, 0, 0, 0, 0, 0, 0, 0,
      9, 0, 0, 0, 0, 0, 0, 0,
      // {1, 3, 8}: offset 1, second key column, payload.
      1, 0,  3, 0, 0, 0, 0, 0, 0, 0,  8, 0, 0, 0, 0, 0, 0, 0,
      // {1, 3, 7}: duplicate key, offset 2, payload only.
      2, 0,  7, 0, 0, 0, 0, 0, 0, 0};
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, expected);
}

struct ExternalSortParam {
  uint64_t rows;
  uint64_t memory_rows;
  uint32_t fan_in;
  const char* name;
  uint32_t mini_run_rows = 1024;
};

class ExternalSortTest : public ::testing::TestWithParam<ExternalSortParam> {};

TEST_P(ExternalSortTest, SortsCorrectly) {
  const auto p = GetParam();
  Schema schema(4, 1);
  QueryCounters counters;
  TempFileManager temp;
  RowBuffer table = MakeTable(schema, p.rows, 4, /*seed=*/p.rows);

  SortConfig config;
  config.memory_rows = p.memory_rows;
  config.fan_in = p.fan_in;
  config.mini_run_rows = p.mini_run_rows;

  ExternalSort sort(&schema, &counters, &temp, config);
  for (size_t i = 0; i < table.size(); ++i) {
    sort.Add(table.row(i));
  }
  ASSERT_TRUE(sort.Finish().ok());

  OvcStreamChecker checker(&schema);
  RowVec out;
  RowRef ref;
  while (sort.Next(&ref)) {
    out.emplace_back(ref.cols, ref.cols + schema.total_columns());
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
  }
  RowVec expected = ReferenceSort(schema, table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);

  // Column comparisons across run generation and all merge levels stay
  // within N x K per processed level; with at most 2 extra levels this is
  // a loose but meaningful ceiling.
  const uint64_t levels = 2 + sort.intermediate_merge_levels();
  EXPECT_LE(counters.column_comparisons,
            p.rows * schema.key_arity() * levels);
  if (p.rows > p.memory_rows) {
    EXPECT_GT(sort.spilled_runs(), 0u);
  } else {
    EXPECT_EQ(sort.spilled_runs(), 0u);
  }
  if (sort.spilled_runs() > p.fan_in) {
    EXPECT_GT(sort.intermediate_merge_levels(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ExternalSortTest,
    ::testing::Values(
        ExternalSortParam{5000, 512, 8, "pq_spill"},
        ExternalSortParam{400, 512, 8, "pq_memory"},
        // 36 runs at fan-in 4 cascade through intermediate merge levels.
        ExternalSortParam{9000, 256, 4, "cascade"},
        // Several mini-runs per memory batch (64 of 512 rows), so run
        // generation merges mini-runs: in memory and spilled.
        ExternalSortParam{500, 512, 8, "mini64_memory", 64},
        ExternalSortParam{5000, 512, 8, "mini64_spill", 64}),
    [](const ::testing::TestParamInfo<ExternalSortParam>& info) {
      return info.param.name;
    });

/// RunSink collecting a run's rows and codes.
class CollectSink : public RunSink {
 public:
  explicit CollectSink(uint32_t width) : run(width) {}
  void Accept(const uint64_t* row, Ovc code) override {
    run.Append(row, code);
  }
  InMemoryRun run;
};

TEST(BatchSorter, MiniRunsMatchSingleTournamentRowForRowAndCodeForCode) {
  // Few distinct values per column, so many duplicates (full-key ones too).
  // The payload is the input position, so the row-for-row match also checks
  // that both sorts are stable.
  //
  // The N x K column-comparison bound needs exact codes. Two inputs here
  // have lossy ones: values at and above 2^48 - 1 share one saturated
  // 48-bit image, and a descending column normalizes v to ~v, which puts
  // its small values above the saturation point. Codes that tie on a
  // saturated image re-compare the column at their offset, in the single
  // tournament and in mini-runs alike, so those inputs check the match
  // only.
  const uint64_t kSaturated = OvcCodec::kValueMask;
  const uint64_t kExact[] = {0, 1, 7, 1000, kSaturated - 2, kSaturated - 1};
  const uint64_t kLossy[] = {0,          7,           kSaturated - 1,
                             kSaturated, kSaturated + 1, ~uint64_t{0}};
  struct Input {
    const char* name;
    const uint64_t* values;
    SortDirection middle;
    bool exact;
  };
  const Input kInputs[] = {
      {"exact", kExact, SortDirection::kAscending, true},
      {"saturated", kLossy, SortDirection::kAscending, false},
      {"descending", kExact, SortDirection::kDescending, false},
  };
  constexpr uint64_t kRows = 3000;
  for (const Input& in : kInputs) {
    SCOPED_TRACE(in.name);
    Schema schema({SortDirection::kAscending, in.middle,
                   SortDirection::kAscending},
                  /*payload_columns=*/1);
    Rng rng(/*seed=*/61);
    RowBuffer input(schema.total_columns());
    for (uint64_t i = 0; i < kRows; ++i) {
      const uint64_t row[4] = {rng.Uniform(4), in.values[rng.Uniform(6)],
                               in.values[rng.Uniform(6)], i};
      input.AppendRow(row);
    }
    const uint64_t bound = kRows * schema.key_arity();

    // The reference: one tournament over the whole batch.
    QueryCounters single_counters;
    OvcCodec codec(&schema);
    KeyComparator comparator(&schema, &single_counters);
    std::vector<const uint64_t*> ptrs;
    for (size_t i = 0; i < input.size(); ++i) ptrs.push_back(input.row(i));
    PqSorter single(&codec, &comparator);
    single.Reset(ptrs.data(), static_cast<uint32_t>(ptrs.size()));
    CollectSink expected(schema.total_columns());
    RowRef ref;
    while (single.Next(&ref)) expected.Accept(ref.cols, ref.ovc);
    ASSERT_EQ(expected.run.size(), kRows);
    OvcStreamChecker checker(&schema);
    for (size_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE(checker.Observe(expected.run.row(i), expected.run.code(i)))
          << checker.error();
    }
    if (in.exact) {
      EXPECT_LE(single_counters.column_comparisons, bound);
    }

    // 2 is the smallest mini-run, 1000 leaves a short last one, and 4096
    // holds the whole batch (no merge).
    // The second batch of each sorter reuses its recycled mini-run blocks.
    for (const uint32_t mini : {2u, 64u, 1000u, 4096u}) {
      SCOPED_TRACE(mini);
      QueryCounters counters;
      BatchSorter sorter(&schema, &counters, mini);
      for (int batch = 0; batch < 2; ++batch) {
        SCOPED_TRACE(batch);
        counters.Reset();
        CollectSink got(schema.total_columns());
        sorter.AddRows(input.row(0), kRows);
        EXPECT_EQ(sorter.size(), kRows);
        sorter.WriteRun(&got);
        EXPECT_TRUE(sorter.empty());
        ASSERT_EQ(got.run.size(), kRows);
        for (size_t i = 0; i < kRows; ++i) {
          for (uint32_t c = 0; c < schema.total_columns(); ++c) {
            ASSERT_EQ(got.run.row(i)[c], expected.run.row(i)[c])
                << i << "," << c;
          }
          ASSERT_EQ(got.run.code(i), expected.run.code(i)) << i;
        }
        if (in.exact) {
          EXPECT_LE(counters.column_comparisons, bound);
        }
      }
    }
  }
}

TEST(ExternalSort, EmptyInput) {
  Schema schema(2);
  TempFileManager temp;
  ExternalSort sort(&schema, nullptr, &temp, SortConfig());
  ASSERT_TRUE(sort.Finish().ok());
  RowRef ref;
  EXPECT_FALSE(sort.Next(&ref));
}

TEST(ExternalSort, PresortedInputHasMinimalComparisons) {
  // Sorting an already sorted input with OVC: each row loses only against
  // its neighbors; comparisons stay well under N x K even during run
  // generation plus merging.
  Schema schema(4);
  QueryCounters counters;
  TempFileManager temp;
  RowBuffer table = MakeTable(schema, 4000, 3, /*seed=*/2, /*sorted=*/true);
  SortConfig config;
  config.memory_rows = 500;
  ExternalSort sort(&schema, &counters, &temp, config);
  for (size_t i = 0; i < table.size(); ++i) sort.Add(table.row(i));
  ASSERT_TRUE(sort.Finish().ok());
  RowRef ref;
  uint64_t n = 0;
  while (sort.Next(&ref)) ++n;
  EXPECT_EQ(n, 4000u);
  EXPECT_LE(counters.column_comparisons, 2 * 4000u * schema.key_arity());
}

/// How the boundary tests feed and drain an ExternalSort.
struct Feed {
  const char* name;
  uint32_t block_rows;  // 0: row by row with Add() and Next()
};

/// Sorts `input` with a plain or a collapsing (kSum over the payload)
/// ExternalSort, fed and drained as `feed` says, and checks the rows
/// against std::stable_sort, the codes with OvcStreamChecker, the N x K
/// column-comparison bound and the spilled-run count.
void CheckBoundary(const Schema& schema, const RowBuffer& input,
                   const SortConfig& config, const Feed& feed, bool collapse) {
  const uint32_t arity = schema.key_arity();
  const uint32_t width = schema.total_columns();
  QueryCounters counters;
  TempFileManager temp;
  std::unique_ptr<ExternalSort> sort =
      collapse ? std::make_unique<ExternalSort>(
                     &schema, std::vector<StateMergeFn>{StateMergeFn::kSum},
                     &counters, &temp, config)
               : std::make_unique<ExternalSort>(&schema, &counters, &temp,
                                                config);
  if (feed.block_rows == 0) {
    for (size_t i = 0; i < input.size(); ++i) sort->Add(input.row(i));
  } else {
    RowBlock block(width, feed.block_rows);
    for (size_t i = 0; i < input.size(); ++i) {
      block.Append(input.row(i), 0);
      if (block.full() || i + 1 == input.size()) {
        sort->AddBlock(block);
        block.Clear();
      }
    }
  }
  ASSERT_TRUE(sort->Finish().ok());

  OvcStreamChecker checker(&schema);
  RowVec got;
  auto observe = [&](const uint64_t* row, Ovc code) {
    got.emplace_back(row, row + width);
    return checker.Observe(row, code);
  };
  if (feed.block_rows == 0) {
    RowRef ref;
    while (sort->Next(&ref)) {
      ASSERT_TRUE(observe(ref.cols, ref.ovc)) << checker.error();
    }
  } else {
    RowBlock out(width, feed.block_rows);
    while (sort->NextBlock(&out) > 0) {
      for (uint32_t i = 0; i < out.size(); ++i) {
        ASSERT_TRUE(observe(out.row(i), out.code(i))) << checker.error();
      }
    }
  }

  RowVec expected = ToRowVec(input);
  std::stable_sort(expected.begin(), expected.end(),
                   [arity](const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b) {
                     return std::lexicographical_compare(
                         a.begin(), a.begin() + arity, b.begin(),
                         b.begin() + arity);
                   });
  if (collapse) {
    RowVec groups;
    for (const std::vector<uint64_t>& row : expected) {
      if (!groups.empty() && std::equal(row.begin(), row.begin() + arity,
                                        groups.back().begin())) {
        groups.back()[arity] += row[arity];
      } else {
        groups.push_back(row);
      }
    }
    expected = std::move(groups);
  }
  EXPECT_EQ(got, expected);
  EXPECT_LE(counters.column_comparisons, input.size() * arity);
  const uint64_t rows = input.size();
  const uint64_t runs =
      rows < config.memory_rows
          ? 0
          : (rows + config.memory_rows - 1) / config.memory_rows;
  EXPECT_EQ(sort->spilled_runs(), runs);
}

TEST(ExternalSort, IntakeBoundaries) {
  // Mini-runs fill at mini_run_rows and a batch spills at memory_rows; the
  // row counts sit on each side of both. 1,000 rows of memory is not a
  // multiple of 256-row mini-runs, so each batch ends in a short mini-run;
  // 512 is. A block of 97 rows straddles every boundary, and one of 1,024
  // rows holds a whole batch and a spill.
  Schema schema(2, 1);
  const Feed kFeeds[] = {{"add", 0}, {"block97", 97}, {"block1024", 1024}};
  for (const uint64_t memory_rows : {1000u, 512u}) {
    SCOPED_TRACE(memory_rows);
    SortConfig config;
    config.memory_rows = memory_rows;
    config.mini_run_rows = 256;
    config.fan_in = 2;  // three batches cascade
    for (const uint64_t rows :
         {uint64_t{0}, uint64_t{1}, uint64_t{255}, uint64_t{256},
          uint64_t{257}, memory_rows - 1, memory_rows, memory_rows + 1,
          2 * memory_rows + 257}) {
      SCOPED_TRACE(rows);
      // Few distinct keys, so duplicates collapse; the payload is the input
      // position, so the plain sort's match also checks stability.
      Rng rng(/*seed=*/rows + memory_rows);
      RowBuffer input(schema.total_columns());
      for (uint64_t i = 0; i < rows; ++i) {
        const uint64_t row[3] = {rng.Uniform(8), rng.Uniform(16), i};
        input.AppendRow(row);
      }
      for (const Feed& feed : kFeeds) {
        SCOPED_TRACE(feed.name);
        for (const bool collapse : {false, true}) {
          SCOPED_TRACE(collapse ? "collapse" : "plain");
          CheckBoundary(schema, input, config, feed, collapse);
        }
      }
    }
  }
}

struct SegmentedParam {
  uint32_t arity;
  uint32_t prefix;
  uint64_t rows;
  uint64_t distinct;
};

class SegmentedSortTest : public ::testing::TestWithParam<SegmentedParam> {};

TEST_P(SegmentedSortTest, EquivalentToFullSort) {
  const auto p = GetParam();
  Schema schema(p.arity, 1);
  QueryCounters counters;
  TempFileManager temp;
  // Input sorted on the full key of a *different* suffix: emulate "sorted
  // on (A,B), wanted on (A,C)" by sorting on the schema key, then shuffling
  // the suffix within segments. Simplest valid input: sorted on the
  // segmentation prefix only, arbitrary within segments.
  RowBuffer table = MakeTable(schema, p.rows, p.distinct, /*seed=*/p.rows);
  Schema prefix_schema(p.prefix, schema.total_columns() - p.prefix);
  SortRowsForTest(prefix_schema, &table);

  // Build the input stream with codes valid for the prefix: derive codes
  // over the prefix-sorted order using full-key arity but offsets within
  // the prefix where rows disagree there.
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  InMemoryRun run(schema.total_columns());
  for (size_t i = 0; i < table.size(); ++i) {
    Ovc code;
    if (i == 0) {
      code = codec.MakeInitial(table.row(i));
    } else {
      const uint32_t d =
          cmp.FirstDifference(table.row(i - 1), table.row(i), 0);
      code = codec.MakeFromRow(table.row(i), d);
    }
    run.Append(table.row(i), code);
  }

  InMemoryRunSource source(&run);
  SegmentedSorter sorter(&schema, p.prefix, &counters);
  sorter.SetInput(&source);

  OvcStreamChecker checker(&schema);
  RowVec out;
  RowRef ref;
  while (sorter.Next(&ref)) {
    out.emplace_back(ref.cols, ref.cols + schema.total_columns());
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
  }
  RowVec expected = ReferenceSort(schema, table);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
  EXPECT_GT(sorter.segments(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SegmentedSortTest,
    ::testing::Values(SegmentedParam{4, 1, 2000, 4},
                      SegmentedParam{4, 2, 2000, 4},
                      SegmentedParam{4, 3, 2000, 4},
                      SegmentedParam{2, 1, 500, 2},
                      SegmentedParam{6, 2, 3000, 3}),
    [](const ::testing::TestParamInfo<SegmentedParam>& info) {
      return "arity" + std::to_string(info.param.arity) + "_prefix" +
             std::to_string(info.param.prefix);
    });

TEST(SegmentedSorter, SegmentationNeedsNoComparisonsBeyondSegmentSorts) {
  // Boundary detection is code-only: with one row per segment, zero column
  // comparisons happen at all.
  Schema schema(2);
  QueryCounters counters;
  InMemoryRun run(2);
  OvcCodec codec(&schema);
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t row[2] = {i, 100 - i};
    run.Append(row, i == 0 ? codec.MakeInitial(row) : codec.Make(0, i));
  }
  InMemoryRunSource source(&run);
  SegmentedSorter sorter(&schema, 1, &counters);
  sorter.SetInput(&source);
  RowRef ref;
  uint64_t n = 0;
  while (sorter.Next(&ref)) ++n;
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(sorter.segments(), 100u);
  EXPECT_EQ(counters.column_comparisons, 0u);
}

}  // namespace
}  // namespace ovc
