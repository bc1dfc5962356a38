// Duplicate removal in a sorted stream (Section 4.4).
//
// A duplicate row carries a code whose offset equals the arity; no column
// values are inspected at all. Surviving rows keep their input codes: by the
// filter theorem, the maximum of a kept row's code and the duplicate codes
// dropped before it is the kept row's own code, because the duplicate code
// is the smallest valid code.

#ifndef OVC_EXEC_DEDUP_H_
#define OVC_EXEC_DEDUP_H_

#include "exec/operator.h"

namespace ovc {

/// Removes rows whose full sort key equals the previous row's.
class DedupOperator : public Operator {
 public:
  /// `child` must be sorted on its full key with codes. Rows that are
  /// key-duplicates are dropped; payload columns of dropped rows are
  /// discarded (SQL DISTINCT semantics over the key).
  explicit DedupOperator(Operator* child)
      : child_(child), input_(child), codec_(&child->schema()) {
    OVC_CHECK(child->sorted() && child->has_ovc());
  }

  void Open() override {
    child_->Open();
    input_.Reset();
  }

  uint32_t NextBatch(RowBlock* out) override {
    out->Clear();
    RowRef ref;
    while (!out->full() && input_.Next(&ref)) {
      if (codec_.IsDuplicate(ref.ovc)) {
        ++duplicates_dropped_;
        continue;  // offset == arity: a duplicate, detected code-only
      }
      out->Append(ref.cols, ref.ovc);
    }
    return out->size();
  }

  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

  /// Rows dropped so far.
  uint64_t duplicates_dropped() const { return duplicates_dropped_; }

 private:
  Operator* child_;
  BlockCursor input_;
  OvcCodec codec_;
  uint64_t duplicates_dropped_ = 0;
};

}  // namespace ovc

#endif  // OVC_EXEC_DEDUP_H_
