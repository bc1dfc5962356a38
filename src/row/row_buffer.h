// Row storage: a growable buffer of fixed-width rows.

#ifndef OVC_ROW_ROW_BUFFER_H_
#define OVC_ROW_ROW_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "row/row_block.h"

namespace ovc {

/// Owns rows of a fixed column count in one contiguous allocation.
///
/// The append contract: an append is a bounds check plus a memcpy. The
/// storage grows geometrically and is zero-filled once per growth, never
/// per row; a growth moves every row, so pointers returned by row() /
/// AppendRow() are invalidated by an append that grows the storage.
/// ReserveRows(n) allocates room for exactly n rows up front, and appends
/// until size() reaches n never grow it: callers that need stable rows
/// reserve first (InMemoryRun::Reserve, the exchange's chunks) or address
/// rows by index.
class RowBuffer {
 public:
  /// Creates a buffer for rows of `width` columns.
  explicit RowBuffer(uint32_t width) : width_(width) { OVC_CHECK(width >= 1); }

  RowBuffer(const RowBuffer&) = default;
  RowBuffer& operator=(const RowBuffer&) = default;
  /// A moved-from buffer is empty, as a moved-from vector is.
  RowBuffer(RowBuffer&& other) noexcept
      : width_(other.width_),
        used_(std::exchange(other.used_, 0)),
        data_(std::move(other.data_)) {}
  RowBuffer& operator=(RowBuffer&& other) noexcept {
    width_ = other.width_;
    used_ = std::exchange(other.used_, 0);
    data_ = std::move(other.data_);
    return *this;
  }

  /// Appends an uninitialized row and returns a pointer to its columns.
  uint64_t* AppendRow() {
    const size_t needed = used_ + width_;
    if (needed > data_.size()) Grow(needed);
    uint64_t* row = data_.data() + used_;
    used_ = needed;
    return row;
  }

  /// Appends a copy of `src` (width_ columns).
  void AppendRow(const uint64_t* src) {
    std::memcpy(AppendRow(), src, width_ * sizeof(uint64_t));
  }

  /// Bulk-appends `rows` contiguous rows starting at `src` (rows * width_
  /// values): one bounds check and one memcpy for the whole batch.
  void AppendRows(const uint64_t* src, size_t rows) {
    const size_t add = rows * width_;
    const size_t needed = used_ + add;
    if (needed > data_.size()) Grow(needed);
    std::memcpy(data_.data() + used_, src, add * sizeof(uint64_t));
    used_ = needed;
  }

  /// Read-only access to row `i`.
  const uint64_t* row(size_t i) const {
    OVC_DCHECK(i < size());
    return data_.data() + i * width_;
  }

  /// Mutable access to row `i`.
  uint64_t* mutable_row(size_t i) {
    OVC_DCHECK(i < size());
    return data_.data() + i * width_;
  }

  /// Zero-copy serving of an unordered stream: clears `out`, points it at
  /// up to out->capacity() rows from row `*pos` on (codes all zero) and
  /// advances `*pos` past them. Returns the row count, 0 at the end.
  uint32_t ServeBlock(size_t* pos, RowBlock* out) const {
    out->Clear();
    const size_t avail = size() - *pos;
    const uint32_t n = static_cast<uint32_t>(
        avail < out->capacity() ? avail : out->capacity());
    if (n > 0) out->RefContiguous(row(*pos), nullptr, n);
    *pos += n;
    return n;
  }

  /// Number of rows stored.
  size_t size() const { return used_ / width_; }
  /// True when no rows are stored.
  bool empty() const { return used_ == 0; }
  /// Columns per row.
  uint32_t width() const { return width_; }

  /// Removes all rows but keeps the allocation.
  void Clear() { used_ = 0; }

  /// Makes room for exactly `rows` rows in total (not `rows` more), so
  /// that appends up to that count never move a row.
  void ReserveRows(size_t rows) {
    const size_t values = rows * width_;
    if (values > data_.size()) Resize(values);
  }

 private:
  /// Grows the storage to at least `needed` values, at least doubling it
  /// and starting at a few rows so tiny buffers don't grow per append.
  void Grow(size_t needed) {
    size_t target = data_.size() * 2;
    if (target < needed) target = needed;
    const size_t floor = size_t{16} * width_;
    if (target < floor) target = floor;
    Resize(target);
  }

  /// Resizes the storage to exactly `values` values: reserve first, so the
  /// vector does not round its capacity up on its own.
  void Resize(size_t values) {
    data_.reserve(values);
    data_.resize(values);
  }

  uint32_t width_;
  size_t used_ = 0;             // values holding rows; data_.size() is room
  std::vector<uint64_t> data_;
};

}  // namespace ovc

#endif  // OVC_ROW_ROW_BUFFER_H_
