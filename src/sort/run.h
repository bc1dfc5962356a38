// In-memory sorted runs.

#ifndef OVC_SORT_RUN_H_
#define OVC_SORT_RUN_H_

#include <cstdint>
#include <vector>

#include "core/ovc.h"
#include "pq/loser_tree.h"
#include "row/row_block.h"
#include "row/row_buffer.h"

namespace ovc {

/// A sorted sequence of rows held in memory, each with its offset-value code
/// relative to the previous row of the run (first row at offset 0).
class InMemoryRun {
 public:
  /// Rows have `width` columns.
  explicit InMemoryRun(uint32_t width) : rows_(width) {}

  /// Appends the next row of the run with its code.
  void Append(const uint64_t* row, Ovc code) {
    rows_.AppendRow(row);
    codes_.push_back(code);
  }

  /// Bulk-appends all rows and codes of `block` (widths must match). One
  /// contiguous copy instead of per-row appends -- the batched path of the
  /// exchange producer threads.
  void AppendBlock(const RowBlock& block) {
    OVC_DCHECK(block.width() == rows_.width());
    rows_.AppendRows(block.data(), block.size());
    codes_.insert(codes_.end(), block.codes(), block.codes() + block.size());
  }

  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const uint64_t* row(size_t i) const { return rows_.row(i); }
  Ovc code(size_t i) const { return codes_[i]; }
  /// Contiguous code storage (size() values), parallel to the rows.
  const Ovc* codes() const { return codes_.data(); }
  uint32_t width() const { return rows_.width(); }

  void Clear() {
    rows_.Clear();
    codes_.clear();
  }

  /// Pre-allocates storage for `rows` rows, guaranteeing that appends up to
  /// that count never reallocate (row pointers stay stable).
  void Reserve(size_t rows) {
    rows_.ReserveRows(rows);
    codes_.reserve(rows);
  }

 private:
  RowBuffer rows_;
  std::vector<Ovc> codes_;
};

/// MergeSource view over the rows an InMemoryRun holds when the source is
/// made, or over the slice [begin, end) of one that holds several runs back
/// to back (the mini-runs of a batch). The run must outlive the source. `final` so that
/// OvcMergerT<InMemoryRunSource> devirtualizes Next() in the merge inner
/// loop.
class InMemoryRunSource final : public MergeSource {
 public:
  explicit InMemoryRunSource(const InMemoryRun* run)
      : InMemoryRunSource(run, 0, run->size()) {}
  InMemoryRunSource(const InMemoryRun* run, size_t begin, size_t end)
      : run_(run), pos_(begin), end_(end) {}

  bool Next(const uint64_t** row, Ovc* code) override {
    if (pos_ >= end_) return false;
    *row = run_->row(pos_);
    *code = run_->code(pos_);
    ++pos_;
    return true;
  }

  /// Block variant: clears `out`, points it zero-copy at up to
  /// out->capacity() rows (and their codes) from the current position and
  /// advances past them. Returns the row count; 0 at end of input. The
  /// stored codes are relative to each row's predecessor, so they carry
  /// over unchanged across block boundaries. Shares the position with
  /// Next().
  uint32_t NextBlock(RowBlock* out) {
    out->Clear();
    const size_t avail = end_ - pos_;
    const uint32_t n = static_cast<uint32_t>(
        avail < out->capacity() ? avail : out->capacity());
    if (n > 0) out->RefContiguous(run_->row(pos_), run_->codes() + pos_, n);
    pos_ += n;
    return n;
  }

 private:
  const InMemoryRun* run_;
  size_t pos_;
  size_t end_;
};

}  // namespace ovc

#endif  // OVC_SORT_RUN_H_
