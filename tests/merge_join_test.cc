// Merge join (all eight types) and set operations: differential tests
// against naive reference implementations, with output-code validation.

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "exec/merge_join.h"
#include "exec/scan.h"
#include "exec/set_operation.h"
#include "test_util.h"

namespace ovc {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::DrainValidated;
using ::ovc::testing::MakeTable;
using ::ovc::testing::RowVec;
using ::ovc::testing::RunFromSorted;
using ::ovc::testing::ToRowVec;

// Reference join over materialized tables (nested loops, all types).
RowVec ReferenceJoin(const Schema& ls, const Schema& rs, const RowVec& left,
                     const RowVec& right, JoinType type) {
  const uint32_t arity = ls.key_arity();
  auto keys_equal = [&](const std::vector<uint64_t>& a,
                        const std::vector<uint64_t>& b) {
    for (uint32_t c = 0; c < arity; ++c) {
      if (a[c] != b[c]) return false;
    }
    return true;
  };
  RowVec out;
  auto combined = [&](const std::vector<uint64_t>* l,
                      const std::vector<uint64_t>* r) {
    std::vector<uint64_t> row(arity + ls.payload_columns() +
                              rs.payload_columns() + 1);
    const std::vector<uint64_t>& key = l != nullptr ? *l : *r;
    for (uint32_t c = 0; c < arity; ++c) row[c] = key[c];
    uint64_t ind = 0;
    if (l != nullptr) {
      for (uint32_t c = 0; c < ls.payload_columns(); ++c) {
        row[arity + c] = (*l)[arity + c];
      }
      ind |= 1;
    }
    if (r != nullptr) {
      for (uint32_t c = 0; c < rs.payload_columns(); ++c) {
        row[arity + ls.payload_columns() + c] = (*r)[arity + c];
      }
      ind |= 2;
    }
    row.back() = ind;
    return row;
  };

  switch (type) {
    case JoinType::kInner:
    case JoinType::kLeftOuter:
    case JoinType::kRightOuter:
    case JoinType::kFullOuter: {
      std::vector<bool> right_matched(right.size(), false);
      for (const auto& l : left) {
        bool matched = false;
        for (size_t j = 0; j < right.size(); ++j) {
          if (keys_equal(l, right[j])) {
            out.push_back(combined(&l, &right[j]));
            matched = true;
            right_matched[j] = true;
          }
        }
        if (!matched &&
            (type == JoinType::kLeftOuter || type == JoinType::kFullOuter)) {
          out.push_back(combined(&l, nullptr));
        }
      }
      if (type == JoinType::kRightOuter || type == JoinType::kFullOuter) {
        for (size_t j = 0; j < right.size(); ++j) {
          if (!right_matched[j]) {
            out.push_back(combined(nullptr, &right[j]));
          }
        }
      }
      break;
    }
    case JoinType::kLeftSemi:
    case JoinType::kLeftAnti: {
      for (const auto& l : left) {
        bool matched = false;
        for (const auto& r : right) {
          if (keys_equal(l, r)) {
            matched = true;
            break;
          }
        }
        if (matched == (type == JoinType::kLeftSemi)) out.push_back(l);
      }
      break;
    }
    case JoinType::kRightSemi:
    case JoinType::kRightAnti: {
      for (const auto& r : right) {
        bool matched = false;
        for (const auto& l : left) {
          if (keys_equal(l, r)) {
            matched = true;
            break;
          }
        }
        if (matched == (type == JoinType::kRightSemi)) out.push_back(r);
      }
      break;
    }
  }
  return out;
}

struct JoinParam {
  JoinType type;
  uint64_t left_rows;
  uint64_t right_rows;
  uint64_t distinct;
  const char* name;
};

class MergeJoinTest : public ::testing::TestWithParam<JoinParam> {};

TEST_P(MergeJoinTest, MatchesReferenceWithValidCodes) {
  const auto p = GetParam();
  Schema ls(2, 1), rs(2, 2);
  RowBuffer lt = MakeTable(ls, p.left_rows, p.distinct, /*seed=*/21,
                           /*sorted=*/true);
  RowBuffer rt = MakeTable(rs, p.right_rows, p.distinct, /*seed=*/22,
                           /*sorted=*/true);
  InMemoryRun lrun = RunFromSorted(ls, lt);
  InMemoryRun rrun = RunFromSorted(rs, rt);
  RunScan lscan(&ls, &lrun), rscan(&rs, &rrun);
  QueryCounters counters;
  MergeJoin join(&lscan, &rscan, p.type, &counters);
  RowVec out = DrainValidated(&join);
  RowVec expected = ReferenceJoin(ls, rs, ToRowVec(lt), ToRowVec(rt), p.type);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, MergeJoinTest,
    ::testing::Values(
        JoinParam{JoinType::kInner, 300, 200, 8, "inner"},
        JoinParam{JoinType::kInner, 300, 200, 3, "inner_manytomany"},
        JoinParam{JoinType::kLeftOuter, 300, 200, 8, "left_outer"},
        JoinParam{JoinType::kRightOuter, 300, 200, 8, "right_outer"},
        JoinParam{JoinType::kFullOuter, 300, 200, 8, "full_outer"},
        JoinParam{JoinType::kFullOuter, 100, 400, 12, "full_outer_skew"},
        JoinParam{JoinType::kLeftSemi, 300, 200, 8, "left_semi"},
        JoinParam{JoinType::kLeftAnti, 300, 200, 8, "left_anti"},
        JoinParam{JoinType::kRightSemi, 300, 200, 8, "right_semi"},
        JoinParam{JoinType::kRightAnti, 300, 200, 8, "right_anti"},
        JoinParam{JoinType::kInner, 0, 200, 8, "inner_empty_left"},
        JoinParam{JoinType::kFullOuter, 300, 0, 8, "full_outer_empty_right"},
        JoinParam{JoinType::kLeftAnti, 200, 0, 4, "left_anti_empty_right"}),
    [](const ::testing::TestParamInfo<JoinParam>& info) {
      return info.param.name;
    });

TEST(MergeJoin, NoComparisonsBeyondMergeLogic) {
  // Joining two identical single-row-per-key streams: the merge decides
  // everything, and deriving output codes adds nothing. The total column
  // comparisons stay within the merge's own N x K budget.
  Schema schema(3, 1);
  RowBuffer t = MakeTable(schema, 1000, 4, /*seed=*/31, /*sorted=*/true);
  InMemoryRun r1 = RunFromSorted(schema, t);
  InMemoryRun r2 = RunFromSorted(schema, t);
  RunScan s1(&schema, &r1), s2(&schema, &r2);
  QueryCounters counters;
  MergeJoin join(&s1, &s2, JoinType::kInner, &counters);
  DrainValidated(&join);
  EXPECT_LE(counters.column_comparisons, 2 * 1000u * schema.key_arity());
}

// ---------------------------------------------------------------------------
// Set operations.

RowVec ReferenceSetOp(RowVec left, RowVec right, SetOpType type, bool all) {
  std::map<std::vector<uint64_t>, std::pair<uint64_t, uint64_t>> counts;
  for (const auto& r : left) ++counts[r].first;
  for (const auto& r : right) ++counts[r].second;
  RowVec out;
  for (const auto& [key, c] : counts) {
    uint64_t copies = 0;
    switch (type) {
      case SetOpType::kIntersect:
        copies = all ? std::min(c.first, c.second)
                     : ((c.first > 0 && c.second > 0) ? 1 : 0);
        break;
      case SetOpType::kExcept:
        copies = all ? (c.first > c.second ? c.first - c.second : 0)
                     : ((c.first > 0 && c.second == 0) ? 1 : 0);
        break;
      case SetOpType::kUnion:
        copies = all ? c.first + c.second : 1;
        break;
    }
    for (uint64_t i = 0; i < copies; ++i) out.push_back(key);
  }
  return out;
}

struct SetOpParam {
  SetOpType type;
  bool all;
  uint64_t distinct;
  const char* name;
};

class SetOperationTest : public ::testing::TestWithParam<SetOpParam> {};

TEST_P(SetOperationTest, MatchesReference) {
  const auto p = GetParam();
  Schema schema(3);
  RowBuffer lt = MakeTable(schema, 400, p.distinct, /*seed=*/41,
                           /*sorted=*/true);
  RowBuffer rt = MakeTable(schema, 300, p.distinct, /*seed=*/42,
                           /*sorted=*/true);
  InMemoryRun lrun = RunFromSorted(schema, lt);
  InMemoryRun rrun = RunFromSorted(schema, rt);
  RunScan lscan(&schema, &lrun), rscan(&schema, &rrun);
  QueryCounters counters;
  SetOperation setop(&lscan, &rscan, p.type, p.all, &counters);
  RowVec out = DrainValidated(&setop);
  RowVec expected =
      ReferenceSetOp(ToRowVec(lt), ToRowVec(rt), p.type, p.all);
  Canonicalize(&out);
  Canonicalize(&expected);
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SetOperationTest,
    ::testing::Values(
        SetOpParam{SetOpType::kIntersect, false, 3, "intersect_distinct"},
        SetOpParam{SetOpType::kIntersect, true, 3, "intersect_all"},
        SetOpParam{SetOpType::kExcept, false, 3, "except_distinct"},
        SetOpParam{SetOpType::kExcept, true, 3, "except_all"},
        SetOpParam{SetOpType::kUnion, false, 3, "union_distinct"},
        SetOpParam{SetOpType::kUnion, true, 3, "union_all"},
        SetOpParam{SetOpType::kIntersect, false, 20, "intersect_sparse"},
        SetOpParam{SetOpType::kExcept, true, 20, "except_all_sparse"}),
    [](const ::testing::TestParamInfo<SetOpParam>& info) {
      return info.param.name;
    });

TEST(SetOperation, GroupCountingUsesNoColumnComparisonsOnDuplicates) {
  // Counting group sizes inspects duplicate codes only; with identical
  // single-key streams the totals stay within the 2-way merge budget.
  Schema schema(1);
  RowBuffer t(1);
  for (uint64_t i = 0; i < 100; ++i) {
    for (int d = 0; d < 5; ++d) {
      const uint64_t row[1] = {i};
      t.AppendRow(row);
    }
  }
  InMemoryRun r1 = RunFromSorted(schema, t);
  InMemoryRun r2 = RunFromSorted(schema, t);
  RunScan s1(&schema, &r1), s2(&schema, &r2);
  QueryCounters counters;
  SetOperation setop(&s1, &s2, SetOpType::kIntersect, /*all=*/true, &counters);
  RowVec out = DrainValidated(&setop);
  EXPECT_EQ(out.size(), 500u);
  EXPECT_LE(counters.column_comparisons, 100u);
}

}  // namespace
}  // namespace ovc
