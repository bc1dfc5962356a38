#include "exec/merge_join.h"

#include <cstring>

namespace ovc {

const char* JoinTypeName(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeftOuter:
      return "left outer";
    case JoinType::kRightOuter:
      return "right outer";
    case JoinType::kFullOuter:
      return "full outer";
    case JoinType::kLeftSemi:
      return "left semi";
    case JoinType::kLeftAnti:
      return "left anti";
    case JoinType::kRightSemi:
      return "right semi";
    case JoinType::kRightAnti:
      return "right anti";
  }
  return "unknown";
}

Schema MergeJoin::MakeOutputSchema(const Schema& left, const Schema& right,
                                   JoinType type) {
  switch (type) {
    case JoinType::kLeftSemi:
    case JoinType::kLeftAnti:
      return left;
    case JoinType::kRightSemi:
    case JoinType::kRightAnti:
      return right;
    default: {
      std::vector<SortDirection> dirs;
      for (uint32_t c = 0; c < left.key_arity(); ++c) {
        dirs.push_back(left.direction(c));
      }
      // Join key, left payloads, right payloads, match indicator.
      return Schema(std::move(dirs), left.payload_columns() +
                                         right.payload_columns() + 1);
    }
  }
}

MergeJoin::MergeJoin(Operator* left, Operator* right, JoinType type,
                     QueryCounters* counters)
    : left_(left),
      right_(right),
      lhs_(left),
      rhs_(right),
      type_(type),
      output_schema_(MakeOutputSchema(left->schema(), right->schema(), type)),
      key_codec_(&left->schema()),
      out_codec_(&output_schema_),
      comparator_(&left->schema(), counters),
      counters_(counters),
      right_group_(right->schema().total_columns()) {
  OVC_CHECK(left->sorted() && left->has_ovc());
  OVC_CHECK(right->sorted() && right->has_ovc());
  // Join keys: both inputs sorted on the same key layout.
  OVC_CHECK(left->schema().key_arity() == right->schema().key_arity());
  for (uint32_t c = 0; c < left->schema().key_arity(); ++c) {
    OVC_CHECK(left->schema().direction(c) == right->schema().direction(c));
  }
}

void MergeJoin::Open() {
  left_->Open();
  right_->Open();
  lhs_.Start();
  rhs_.Start();
  acc_.Reset();
  state_ = State::kCompare;
}

void MergeJoin::Close() {
  left_->Close();
  right_->Close();
}

void MergeJoin::BufferRightGroup() {
  right_group_.Clear();
  right_group_.AppendRow(rhs_.ref.cols);
  while (true) {
    rhs_.Advance();
    if (!rhs_.valid || !key_codec_.IsDuplicate(rhs_.ref.ovc)) break;
    right_group_.AppendRow(rhs_.ref.cols);
  }
}

void MergeJoin::EmitCombined(const uint64_t* left_row,
                             const uint64_t* right_row, Ovc code,
                             RowBlock* out) {
  const Schema& ls = left_->schema();
  const Schema& rs = right_->schema();
  const uint32_t arity = ls.key_arity();
  uint64_t* dst = out->AppendRow(code);
  // Coalesced join key (the paper's virtual column for outer joins).
  std::memcpy(dst, left_row != nullptr ? left_row : right_row,
              arity * sizeof(uint64_t));
  uint64_t indicator = 0;
  if (left_row != nullptr) {
    std::memcpy(dst + arity, left_row + arity,
                ls.payload_columns() * sizeof(uint64_t));
    indicator |= 1;
  } else {
    std::memset(dst + arity, 0, ls.payload_columns() * sizeof(uint64_t));
  }
  if (right_row != nullptr) {
    std::memcpy(dst + arity + ls.payload_columns(), right_row + arity,
                rs.payload_columns() * sizeof(uint64_t));
    indicator |= 2;
  } else {
    std::memset(dst + arity + ls.payload_columns(), 0,
                rs.payload_columns() * sizeof(uint64_t));
  }
  dst[arity + ls.payload_columns() + rs.payload_columns()] = indicator;
}

uint32_t MergeJoin::NextBatch(RowBlock* out) {
  out->Clear();
  // Every emission below appends one row and loops back to the capacity
  // check, so a key group larger than the block resumes where it stopped.
  while (!out->full()) {
    switch (state_) {
      case State::kDone:
        return out->size();

      case State::kCompare: {
        if (!lhs_.valid && !rhs_.valid) {
          state_ = State::kDone;
          return out->size();
        }
        // The merge comparison: fences stand in for exhausted inputs, and
        // the loser's code is re-based onto the winner per the corollaries.
        const int cmp =
            CompareWithOvc(key_codec_, comparator_, lhs_.ref.cols,
                           &lhs_.ref.ovc, rhs_.ref.cols, &rhs_.ref.ovc);
        if (cmp < 0) {
          // Left key without right match.
          if (WantLeftOnly()) {
            const Ovc code = acc_.Combine(lhs_.ref.ovc);
            acc_.Reset();
            if (IsPassthrough()) {
              out->Append(lhs_.ref.cols, code);
            } else {
              EmitCombined(lhs_.ref.cols, nullptr, code, out);
            }
          } else {
            acc_.Absorb(lhs_.ref.ovc);
          }
          lhs_.Advance();
          continue;
        }
        if (cmp > 0) {
          // Right key without left match.
          if (WantRightOnly()) {
            const Ovc code = acc_.Combine(rhs_.ref.ovc);
            acc_.Reset();
            if (IsPassthrough()) {
              out->Append(rhs_.ref.cols, code);
            } else {
              EmitCombined(nullptr, rhs_.ref.cols, code, out);
            }
          } else {
            acc_.Absorb(rhs_.ref.ovc);
          }
          rhs_.Advance();
          continue;
        }
        // Equal keys: a matched key group. Both sides' codes are equal
        // (same key, same base), so either serves as the group's code.
        if (!WantMatches()) {
          acc_.Absorb(lhs_.ref.ovc);
          lhs_.SkipGroup(key_codec_);
          rhs_.SkipGroup(key_codec_);
          continue;
        }
        group_code_ = acc_.Combine(lhs_.ref.ovc);
        acc_.Reset();
        group_first_pending_ = true;
        if (type_ == JoinType::kLeftSemi) {
          // Keep left rows; the right group only needs skipping.
          rhs_.SkipGroup(key_codec_);
          state_ = State::kCrossEmit;
          continue;
        }
        if (type_ == JoinType::kRightSemi) {
          BufferRightGroup();
          lhs_.SkipGroup(key_codec_);
          right_idx_ = 0;
          state_ = State::kRightGroupEmit;
          continue;
        }
        // Inner / outer joins: buffer the right group, stream left rows.
        // The current left row stays put in its cursor's block until the
        // left input advances, so it needs no copy.
        BufferRightGroup();
        right_idx_ = 0;
        state_ = State::kCrossEmit;
        continue;
      }

      case State::kCrossEmit: {
        if (type_ == JoinType::kLeftSemi) {
          // One output per left row of the group.
          out->Append(lhs_.ref.cols, NextGroupCode());
          lhs_.Advance();
          if (!lhs_.valid || !key_codec_.IsDuplicate(lhs_.ref.ovc)) {
            state_ = State::kCompare;
          }
          continue;
        }
        if (right_idx_ < right_group_.size()) {
          EmitCombined(lhs_.ref.cols, right_group_.row(right_idx_),
                       NextGroupCode(), out);
          ++right_idx_;
          continue;
        }
        // Finished this left row; more duplicates on the left?
        lhs_.Advance();
        if (lhs_.valid && key_codec_.IsDuplicate(lhs_.ref.ovc)) {
          right_idx_ = 0;
          continue;
        }
        state_ = State::kCompare;
        continue;
      }

      case State::kRightGroupEmit: {
        if (right_idx_ >= right_group_.size()) {
          state_ = State::kCompare;
          continue;
        }
        out->Append(right_group_.row(right_idx_), NextGroupCode());
        ++right_idx_;
        continue;
      }
    }
  }
  return out->size();
}

}  // namespace ovc
