// Tree-of-losers priority queues: in-memory sorting (PqSorter), merging
// (OvcMerger), the Section 5 duplicate bypass, and the Figures 2/3 claim
// that code-decided merges need no column comparisons.

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/ovc_checker.h"
#include "pq/loser_tree.h"
#include "sort/run.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::MakeTable;
using ::ovc::testing::ReferenceSort;
using ::ovc::testing::RowVec;
using ::ovc::testing::RunFromSorted;

struct SortParam {
  uint32_t arity;
  uint64_t rows;
  uint64_t distinct;
};

class PqSorterTest : public ::testing::TestWithParam<SortParam> {};

TEST_P(PqSorterTest, MatchesReferenceSortAndProducesValidCodes) {
  const auto p = GetParam();
  Schema schema(p.arity, 1);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator comparator(&schema, &counters);
  RowBuffer table = MakeTable(schema, p.rows, p.distinct, /*seed=*/p.rows + 1);

  std::vector<const uint64_t*> ptrs;
  for (size_t i = 0; i < table.size(); ++i) ptrs.push_back(table.row(i));

  PqSorter sorter(&codec, &comparator);
  sorter.Reset(ptrs.data(), static_cast<uint32_t>(ptrs.size()));
  OvcStreamChecker checker(&schema);
  RowVec out;
  RowRef ref;
  while (sorter.Next(&ref)) {
    out.emplace_back(ref.cols, ref.cols + schema.total_columns());
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
  }
  RowVec expected = ReferenceSort(schema, table);
  // Key order must match; payloads may permute within duplicate keys, so
  // compare canonicalized.
  ::ovc::testing::Canonicalize(&out);
  ::ovc::testing::Canonicalize(&expected);
  EXPECT_EQ(out, expected);

  // The paper's bound: total column comparisons <= N x K.
  EXPECT_LE(counters.column_comparisons, p.rows * p.arity)
      << "N x K bound violated";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PqSorterTest,
    ::testing::Values(SortParam{1, 100, 3}, SortParam{2, 1000, 2},
                      SortParam{4, 1000, 4}, SortParam{4, 1000, 100},
                      SortParam{8, 2000, 2}, SortParam{6, 1, 5},
                      SortParam{3, 2, 1}, SortParam{5, 777, 3}),
    [](const ::testing::TestParamInfo<SortParam>& info) {
      return "arity" + std::to_string(info.param.arity) + "_rows" +
             std::to_string(info.param.rows) + "_domain" +
             std::to_string(info.param.distinct);
    });

TEST(PqSorter, EmptyInput) {
  Schema schema(2);
  OvcCodec codec(&schema);
  KeyComparator comparator(&schema, nullptr);
  PqSorter sorter(&codec, &comparator);
  sorter.Reset(nullptr, 0);
  RowRef ref;
  EXPECT_FALSE(sorter.Next(&ref));
}

// Builds an InMemoryRun from sorted rows with correct codes.
InMemoryRun MakeRun(const Schema& schema, const RowVec& sorted_rows) {
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  InMemoryRun run(schema.total_columns());
  for (size_t i = 0; i < sorted_rows.size(); ++i) {
    Ovc code;
    if (i == 0) {
      code = codec.MakeInitial(sorted_rows[i].data());
    } else {
      const uint32_t d =
          cmp.FirstDifference(sorted_rows[i - 1].data(), sorted_rows[i].data(),
                              0);
      code = codec.MakeFromRow(sorted_rows[i].data(), d);
    }
    run.Append(sorted_rows[i].data(), code);
  }
  return run;
}

struct MergeParam {
  uint32_t fan_in;
  uint64_t rows_per_run;
  uint64_t distinct;
  bool bypass;
};

class OvcMergerTest : public ::testing::TestWithParam<MergeParam> {};

TEST_P(OvcMergerTest, MergesToOneValidStream) {
  const auto p = GetParam();
  Schema schema(4, 1);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator comparator(&schema, &counters);

  std::vector<std::unique_ptr<InMemoryRun>> runs;
  std::vector<std::unique_ptr<InMemoryRunSource>> source_storage;
  std::vector<MergeSource*> sources;
  RowVec all;
  for (uint32_t r = 0; r < p.fan_in; ++r) {
    RowBuffer t = MakeTable(schema, p.rows_per_run, p.distinct,
                            /*seed=*/100 + r, /*sorted=*/true);
    RowVec sorted = ::ovc::testing::ToRowVec(t);
    for (const auto& row : sorted) all.push_back(row);
    runs.push_back(std::make_unique<InMemoryRun>(MakeRun(schema, sorted)));
    source_storage.push_back(
        std::make_unique<InMemoryRunSource>(runs.back().get()));
    sources.push_back(source_storage.back().get());
  }

  OvcMerger::Options options;
  options.duplicate_bypass = p.bypass;
  OvcMerger merger(&codec, &comparator, sources, options);
  OvcStreamChecker checker(&schema);
  RowVec out;
  RowRef ref;
  while (merger.Next(&ref)) {
    out.emplace_back(ref.cols, ref.cols + schema.total_columns());
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
  }
  ASSERT_EQ(out.size(), all.size());
  RowVec expected = all;
  ::ovc::testing::Canonicalize(&expected);
  RowVec got = out;
  ::ovc::testing::Canonicalize(&got);
  EXPECT_EQ(got, expected);
  // Merge comparisons also respect the N x K bound.
  EXPECT_LE(counters.column_comparisons,
            all.size() * schema.key_arity());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OvcMergerTest,
    ::testing::Values(MergeParam{2, 200, 3, true}, MergeParam{3, 100, 2, true},
                      MergeParam{8, 100, 4, true},
                      MergeParam{8, 100, 4, false},
                      MergeParam{13, 50, 2, true}, MergeParam{1, 50, 2, true},
                      MergeParam{16, 0, 2, true}),
    [](const ::testing::TestParamInfo<MergeParam>& info) {
      return "fanin" + std::to_string(info.param.fan_in) + "_rows" +
             std::to_string(info.param.rows_per_run) + "_domain" +
             std::to_string(info.param.distinct) +
             (info.param.bypass ? "_bypass" : "_nobypass");
    });

TEST(OvcMerger, DuplicateBypassCountsRows) {
  // A run full of duplicates: every successor after the first should bypass
  // the merge logic (Section 5).
  Schema schema(2);
  RowVec dup_rows(100, {7, 7});
  InMemoryRun run = MakeRun(schema, dup_rows);
  InMemoryRunSource source(&run);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator comparator(&schema, &counters);
  OvcMerger merger(&codec, &comparator, {&source});
  RowRef ref;
  uint64_t n = 0;
  while (merger.Next(&ref)) ++n;
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(counters.merge_bypass_rows, 99u);
  EXPECT_EQ(counters.column_comparisons, 0u);
}

TEST(OvcMerger, DistinctFirstColumnsNeedNoColumnComparisons) {
  // The Figures 2/3 claim: when codes decide every comparison, merging does
  // not touch a single column value. Runs with disjoint, interleaved first
  // columns give exactly that.
  Schema schema(3);
  RowVec run_a, run_b;
  for (uint64_t i = 0; i < 100; ++i) {
    run_a.push_back({2 * i, 5, 5});
    run_b.push_back({2 * i + 1, 5, 5});
  }
  InMemoryRun a = MakeRun(schema, run_a);
  InMemoryRun b = MakeRun(schema, run_b);
  InMemoryRunSource sa(&a), sb(&b);
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator comparator(&schema, &counters);
  OvcMerger merger(&codec, &comparator, {&sa, &sb});
  OvcStreamChecker checker(&schema);
  RowRef ref;
  uint64_t n = 0;
  while (merger.Next(&ref)) {
    ASSERT_TRUE(checker.Observe(ref.cols, ref.ovc)) << checker.error();
    ++n;
  }
  EXPECT_EQ(n, 200u);
  EXPECT_EQ(counters.column_comparisons, 0u)
      << "codes should decide every comparison";
  EXPECT_GT(counters.code_comparisons, 0u);
}

TEST(OvcMerger, StableOnEqualKeys) {
  // Equal keys come out in input-index order: payloads from run 0 first.
  Schema schema(1, 1);
  RowVec run_a = {{5, 100}, {5, 101}};
  RowVec run_b = {{5, 200}, {6, 201}};
  InMemoryRun a = MakeRun(schema, run_a);
  InMemoryRun b = MakeRun(schema, run_b);
  InMemoryRunSource sa(&a), sb(&b);
  OvcCodec codec(&schema);
  KeyComparator comparator(&schema, nullptr);
  OvcMerger merger(&codec, &comparator, {&sa, &sb});
  RowRef ref;
  std::vector<uint64_t> payloads;
  while (merger.Next(&ref)) payloads.push_back(ref.cols[1]);
  EXPECT_EQ(payloads, (std::vector<uint64_t>{100, 101, 200, 201}));
}

/// Counts the pulls a merger makes on one of its inputs.
class CountingSource final : public MergeSource {
 public:
  explicit CountingSource(const InMemoryRun* run) : source_(run) {}
  bool Next(const uint64_t** row, Ovc* code) override {
    ++pulls;
    return source_.Next(row, code);
  }
  uint64_t pulls = 0;

 private:
  InMemoryRunSource source_;
};

TEST(Mergers, DoNoWorkAfterReportingExhaustion) {
  // Pulling a drained merger again must neither pull its inputs nor play
  // another (fence against fence) tournament pass.
  Schema schema(2);
  InMemoryRun a = MakeRun(schema, {{1, 1}, {3, 1}, {5, 2}});
  InMemoryRun b = MakeRun(schema, {{2, 1}, {3, 1}, {4, 4}});
  OvcCodec codec(&schema);
  CountingSource sa(&a), sb(&b);
  QueryCounters counters;
  KeyComparator comparator(&schema, &counters);
  OvcMerger merger(&codec, &comparator, {&sa, &sb});
  RowRef ref;
  uint64_t n = 0;
  while (merger.Next(&ref)) ++n;
  EXPECT_EQ(n, 6u);
  const QueryCounters drained = counters;
  const uint64_t pulls = sa.pulls + sb.pulls;
  EXPECT_FALSE(merger.Next(&ref));
  EXPECT_FALSE(merger.Next(&ref));
  EXPECT_EQ(counters.column_comparisons, drained.column_comparisons);
  EXPECT_EQ(counters.code_comparisons, drained.code_comparisons);
  EXPECT_EQ(counters.row_comparisons, drained.row_comparisons);
  EXPECT_EQ(sa.pulls + sb.pulls, pulls);
}

// ---------------------------------------------------------------------------
// Pinned tournament counts. One fixed-seed case per kind of tie a match can
// meet: padding fences, full-key duplicates, saturated value images and
// descending columns, plus a merge of uneven runs with the duplicate bypass
// on. Each case checks rows and codes against std::stable_sort with naively
// derived codes, and pins the exact counters so that a change to the
// tournament kernel cannot move a count unnoticed.

struct PinnedCounts {
  uint64_t code_comparisons;
  uint64_t column_comparisons;
  uint64_t merge_bypass_rows;
};

/// `input`'s rows in stable key order, each with its code relative to its
/// predecessor derived column by column.
void NaiveSortedStream(const Schema& schema, const RowBuffer& input,
                       RowVec* rows, std::vector<Ovc>* codes) {
  KeyComparator cmp(&schema, nullptr);
  OvcCodec codec(&schema);
  std::vector<size_t> order(input.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cmp.Compare(input.row(a), input.row(b)) < 0;
  });
  const uint32_t width = schema.total_columns();
  for (size_t i = 0; i < order.size(); ++i) {
    const uint64_t* row = input.row(order[i]);
    rows->emplace_back(row, row + width);
    codes->push_back(
        i == 0 ? codec.MakeInitial(row)
               : codec.MakeFromRow(
                     row, cmp.FirstDifference(input.row(order[i - 1]), row,
                                              0)));
  }
}

/// Drains `rows` (a PqSorter or merger) and expects the stable-sort rows
/// and naive codes of `input`, row for row and code for code.
template <typename Rows>
void ExpectNaiveStream(const Schema& schema, const RowBuffer& input,
                       Rows* rows) {
  RowVec expected_rows;
  std::vector<Ovc> expected_codes;
  NaiveSortedStream(schema, input, &expected_rows, &expected_codes);
  RowVec got_rows;
  std::vector<Ovc> got_codes;
  RowRef ref;
  while (rows->Next(&ref)) {
    got_rows.emplace_back(ref.cols, ref.cols + schema.total_columns());
    got_codes.push_back(ref.ovc);
  }
  EXPECT_EQ(got_rows, expected_rows);
  EXPECT_EQ(got_codes, expected_codes);
}

void ExpectCounts(const QueryCounters& got, const PinnedCounts& pinned) {
  EXPECT_EQ(got.code_comparisons, pinned.code_comparisons);
  EXPECT_EQ(got.column_comparisons, pinned.column_comparisons);
  EXPECT_EQ(got.merge_bypass_rows, pinned.merge_bypass_rows);
}

/// Sorts `table` with one PqSorter, checks the stream and returns the
/// counters.
QueryCounters SortPinned(const Schema& schema, const RowBuffer& table) {
  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator comparator(&schema, &counters);
  std::vector<const uint64_t*> ptrs;
  for (size_t i = 0; i < table.size(); ++i) ptrs.push_back(table.row(i));
  PqSorter sorter(&codec, &comparator);
  sorter.Reset(ptrs.data(), static_cast<uint32_t>(ptrs.size()));
  ExpectNaiveStream(schema, table, &sorter);
  return counters;
}

TEST(PinnedCounts, PqSorterWithPaddingFences) {
  // 1,000 rows pad the tournament to 1,024 slots: 24 late fences meet rows
  // and each other.
  Schema schema(2, 1);
  const RowBuffer table = MakeTable(schema, 1000, 50, /*seed=*/11);
  ExpectCounts(SortPinned(schema, table), {11023, 950, 0});
}

TEST(PinnedCounts, PqSorterWithManyDuplicates) {
  // Eight distinct keys over 777 rows: most matches tie on the full key.
  Schema schema(3, 1);
  const RowBuffer table = MakeTable(schema, 777, 2, /*seed=*/12);
  ExpectCounts(SortPinned(schema, table), {8793, 1548, 0});
}

TEST(PinnedCounts, PqSorterWithSaturatedImages) {
  // The middle column straddles 2^48 - 1, where the 48-bit value image
  // saturates: equal codes then hide unequal column values.
  Schema schema(3, 1);
  const uint64_t saturation = OvcCodec::kValueMask;
  Rng rng(13);
  RowBuffer table(schema.total_columns());
  for (uint64_t i = 0; i < 600; ++i) {
    uint64_t* row = table.AppendRow();
    row[0] = rng.Uniform(4);
    row[1] = saturation - 2 + rng.Uniform(6);
    row[2] = rng.Uniform(3);
    row[3] = i;
  }
  ExpectCounts(SortPinned(schema, table), {7023, 1780, 0});
}

TEST(PinnedCounts, PqSorterWithDescendingColumn) {
  // Small values of a descending column normalize to saturated images;
  // values near the top of the domain normalize to small ones.
  Schema schema({SortDirection::kAscending, SortDirection::kDescending,
                 SortDirection::kAscending},
                1);
  Rng rng(14);
  RowBuffer table(schema.total_columns());
  for (uint64_t i = 0; i < 500; ++i) {
    uint64_t* row = table.AppendRow();
    row[0] = rng.Uniform(3);
    const uint64_t v = rng.Uniform(5);
    row[1] = rng.Chance(1, 2) ? v : ~v;
    row[2] = rng.Uniform(4);
    row[3] = i;
  }
  ExpectCounts(SortPinned(schema, table), {5011, 1428, 0});
}

TEST(PinnedCounts, MergerOverUnevenRunsWithDuplicateBypass) {
  // Six runs (two padding slots) of very different lengths, some empty;
  // 36 distinct keys make in-run duplicates that bypass the tree.
  Schema schema(2, 1);
  const uint64_t lengths[] = {0, 3, 150, 41, 600, 1};
  std::vector<InMemoryRun> runs;
  RowBuffer all(schema.total_columns());
  for (uint64_t r = 0; r < 6; ++r) {
    RowBuffer t = MakeTable(schema, lengths[r], 6, /*seed=*/20 + r,
                            /*sorted=*/true);
    for (size_t i = 0; i < t.size(); ++i) {
      t.mutable_row(i)[2] = r * 10000 + i;  // payload names run and row
      all.AppendRow(t.row(i));
    }
    runs.push_back(RunFromSorted(schema, t));
  }
  std::vector<InMemoryRunSource> source_storage;
  for (const InMemoryRun& run : runs) source_storage.emplace_back(&run);
  std::vector<InMemoryRunSource*> sources;
  for (InMemoryRunSource& s : source_storage) sources.push_back(&s);

  OvcCodec codec(&schema);
  QueryCounters counters;
  KeyComparator comparator(&schema, &counters);
  OvcMergerT<InMemoryRunSource> merger(&codec, &comparator, sources);
  ExpectNaiveStream(schema, all, &merger);
  ExpectCounts(counters, {292, 15, 700});
}

}  // namespace
}  // namespace ovc
