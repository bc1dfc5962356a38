// Filter with offset-value code derivation (Section 4.1, Table 3).
//
// An output row's code is the maximum (in ascending coding) of its own input
// code and the input codes of all rows dropped since the previous output
// row -- a direct application of the filter theorem. No column values are
// compared.

#ifndef OVC_EXEC_FILTER_H_
#define OVC_EXEC_FILTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/accumulator.h"
#include "exec/operator.h"

namespace ovc {

/// Row predicate: true keeps the row.
using RowPredicate = std::function<bool(const uint64_t* row)>;

/// Batched predicate: writes keep[i] != 0 for every row i in [0,
/// block.size()) that survives. One type-erased call per block instead of
/// one per row -- the predicate-side half of amortizing interpretation
/// overhead (the batching argument of the code-generation literature).
using BlockPredicate =
    std::function<void(const RowBlock& block, uint8_t* keep)>;

/// Order- and code-preserving filter. Also accepts unsorted / code-free
/// children (it then just passes rows through with code 0); the code
/// derivation by the filter theorem only runs when the child carries codes.
class FilterOperator : public Operator {
 public:
  /// `child` must outlive the filter. `block_predicate`, when supplied,
  /// must agree with `predicate` row for row; NextBatch() then evaluates it
  /// once per block instead of calling the row predicate per row.
  FilterOperator(Operator* child, RowPredicate predicate,
                 BlockPredicate block_predicate = nullptr)
      : child_(child),
        predicate_(std::move(predicate)),
        block_predicate_(std::move(block_predicate)),
        derive_codes_(child->sorted() && child->has_ovc()) {}

  void Open() override {
    child_->Open();
    acc_.Reset();
  }

  uint32_t NextBatch(RowBlock* out) override {
    // The child serves into a staging block (possibly zero-copy, borrowing
    // its storage); survivors are copied into `out` -- one copy per kept
    // row, none per dropped row. Dropped rows' codes are absorbed into the
    // accumulator, which keeps the filter theorem's code derivation valid
    // across block boundaries.
    // The staging capacity must equal the caller's (a larger block could
    // hand back more survivors than `out` holds); re-cap the existing
    // allocation instead of reallocating when the caller's capacity moves
    // (e.g. a limit's shrinking tail blocks).
    if (in_block_ == nullptr ||
        in_block_->allocated_rows() < out->capacity()) {
      in_block_ = std::make_unique<RowBlock>(
          child_->schema().total_columns(), out->capacity());
    }
    in_block_->Clear();
    in_block_->SetCapacity(out->capacity());
    out->Clear();
    for (;;) {
      const uint32_t n = child_->NextBatch(in_block_.get());
      if (n == 0) return 0;
      // Pre-zero so a predicate that only marks survivors works; stale
      // entries from the previous block must not leak through.
      keep_.assign(n, 0);
      if (block_predicate_ != nullptr) {
        block_predicate_(*in_block_, keep_.data());
      } else {
        for (uint32_t i = 0; i < n; ++i) {
          keep_[i] = predicate_(in_block_->row(i)) ? 1 : 0;
        }
      }
      // Copy contiguous spans of kept rows in bulk. Within a span there are
      // no drops, so the accumulator is empty and Combine() is the
      // identity: input codes carry over verbatim and only the span's
      // *first* row needs the combined code.
      uint32_t i = 0;
      while (i < n) {
        if (keep_[i] == 0) {
          if (derive_codes_) acc_.Absorb(in_block_->code(i));
          ++i;
          continue;
        }
        uint32_t j = i + 1;
        while (j < n && keep_[j] != 0) ++j;
        const uint32_t start = out->size();
        out->AppendContiguous(
            in_block_->row(i),
            derive_codes_ ? in_block_->codes() + i : nullptr, j - i);
        if (derive_codes_) {
          out->set_code(start, acc_.Combine(in_block_->code(i)));
          acc_.Reset();
        }
        i = j;
      }
      if (!out->empty()) return out->size();
      // Every row of this block was dropped; pull the next one.
    }
  }

  void Close() override { child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }
  bool sorted() const override { return child_->sorted(); }
  bool has_ovc() const override { return derive_codes_; }

 private:
  Operator* child_;
  RowPredicate predicate_;
  BlockPredicate block_predicate_;
  bool derive_codes_;
  OvcAccumulator acc_;
  std::vector<uint8_t> keep_;  // block-predicate results, reused per block
  std::unique_ptr<RowBlock> in_block_;  // staging for the child's blocks
};

}  // namespace ovc

#endif  // OVC_EXEC_FILTER_H_
