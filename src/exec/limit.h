// Limit: pass the first N rows through, then stop.
//
// Order and codes survive a limit untouched: each surviving row's code is
// relative to its (also surviving) predecessor, and truncating the tail of
// a stream cannot invalidate codes already emitted. Combined with a sort
// this yields the planner's top-k plan shape.

#ifndef OVC_EXEC_LIMIT_H_
#define OVC_EXEC_LIMIT_H_

#include <cstdint>
#include <memory>

#include "exec/operator.h"

namespace ovc {

/// Emits at most `limit` rows of its child.
class LimitOperator : public Operator {
 public:
  /// `child` must outlive the operator.
  LimitOperator(Operator* child, uint64_t limit)
      : child_(child), limit_(limit) {}

  void Open() override {
    child_->Open();
    emitted_ = 0;
  }

  uint32_t NextBatch(RowBlock* out) override {
    if (emitted_ >= limit_) {
      out->Clear();
      return 0;
    }
    const uint64_t remaining = limit_ - emitted_;
    if (remaining >= out->capacity()) {
      // Whole block fits under the limit; nothing to truncate.
      const uint32_t n = child_->NextBatch(out);
      emitted_ += n;
      return n;
    }
    // Tail block: pull through a staging block capped at the remaining row
    // count, so the child never computes rows past the limit (a full-size
    // pull would make an expensive child materialize up to a block of rows
    // only to have them discarded here). The staging block is allocated
    // once at the first tail pull and only re-capped as `remaining`
    // shrinks on later calls.
    const uint32_t cap = static_cast<uint32_t>(remaining);
    if (tail_block_ == nullptr || tail_block_->allocated_rows() < cap) {
      tail_block_ = std::make_unique<RowBlock>(
          child_->schema().total_columns(), cap);
    }
    tail_block_->Clear();
    tail_block_->SetCapacity(cap);
    const uint32_t n = child_->NextBatch(tail_block_.get());
    out->Clear();
    if (n == 0) return 0;
    // Truncating the tail of a stream cannot invalidate codes already
    // emitted, and copying a span preserves codes verbatim.
    out->AppendContiguous(tail_block_->data(), tail_block_->codes(), n);
    emitted_ += n;
    return n;
  }

  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  bool sorted() const override { return child_->sorted(); }
  bool has_ovc() const override { return child_->has_ovc(); }

 private:
  Operator* child_;
  uint64_t limit_;
  uint64_t emitted_ = 0;
  /// Remaining-capped staging for the stream's final partial blocks.
  std::unique_ptr<RowBlock> tail_block_;
};

}  // namespace ovc

#endif  // OVC_EXEC_LIMIT_H_
