#include "exec/set_operation.h"

#include <algorithm>

namespace ovc {

SetOperation::SetOperation(Operator* left, Operator* right, SetOpType type,
                           bool all, QueryCounters* counters)
    : left_(left),
      right_(right),
      lhs_(left),
      rhs_(right),
      type_(type),
      all_(all),
      codec_(&left->schema()),
      comparator_(&left->schema(), counters),
      group_row_(left->schema().total_columns()) {
  OVC_CHECK(left->sorted() && left->has_ovc());
  OVC_CHECK(right->sorted() && right->has_ovc());
  OVC_CHECK(left->schema() == right->schema());
  OVC_CHECK(left->schema().payload_columns() == 0);
}

void SetOperation::Open() {
  left_->Open();
  right_->Open();
  lhs_.Start();
  rhs_.Start();
  acc_.Reset();
  pending_copies_ = 0;
}

void SetOperation::Close() {
  left_->Close();
  right_->Close();
}

uint64_t SetOperation::CopiesFor(uint64_t nl, uint64_t nr) const {
  switch (type_) {
    case SetOpType::kIntersect:
      if (all_) return std::min(nl, nr);
      return (nl > 0 && nr > 0) ? 1 : 0;
    case SetOpType::kExcept:
      if (all_) return nl > nr ? nl - nr : 0;
      return (nl > 0 && nr == 0) ? 1 : 0;
    case SetOpType::kUnion:
      if (all_) return nl + nr;
      return (nl + nr > 0) ? 1 : 0;
  }
  return 0;
}

uint32_t SetOperation::NextBatch(RowBlock* out) {
  out->Clear();
  while (!out->full()) {
    if (pending_copies_ > 0) {
      --pending_copies_;
      out->Append(group_row_.row(0),
                  first_copy_pending_ ? group_code_ : codec_.DuplicateCode());
      first_copy_pending_ = false;
      continue;
    }

    if (!lhs_.valid && !rhs_.valid) break;

    const int cmp = CompareWithOvc(codec_, comparator_, lhs_.ref.cols,
                                   &lhs_.ref.ovc, rhs_.ref.cols, &rhs_.ref.ovc);
    // The smaller key's group goes next; on equal keys (relative to the
    // same base, so with equal codes) both sides' groups do.
    const MergeInput& key = cmp > 0 ? rhs_ : lhs_;
    group_row_.Clear();
    group_row_.AppendRow(key.ref.cols);
    const Ovc key_code = key.ref.ovc;
    const uint64_t nl = cmp <= 0 ? lhs_.SkipGroup(codec_) : 0;
    const uint64_t nr = cmp >= 0 ? rhs_.SkipGroup(codec_) : 0;

    const uint64_t copies = CopiesFor(nl, nr);
    if (copies == 0) {
      acc_.Absorb(key_code);
      continue;
    }
    group_code_ = acc_.Combine(key_code);
    acc_.Reset();
    pending_copies_ = copies;
    first_copy_pending_ = true;
  }
  return out->size();
}

}  // namespace ovc
