// Row storage: a growable buffer of fixed-width rows.

#ifndef OVC_ROW_ROW_BUFFER_H_
#define OVC_ROW_ROW_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "row/row_block.h"

namespace ovc {

/// Owns rows of a fixed column count in one contiguous allocation.
///
/// Pointers returned by row() / AppendRow() are invalidated by any later
/// append (vector growth); callers that need stable rows should reserve
/// capacity up front or address rows by index.
class RowBuffer {
 public:
  /// Creates a buffer for rows of `width` columns.
  explicit RowBuffer(uint32_t width) : width_(width) { OVC_CHECK(width >= 1); }

  /// Appends an uninitialized row and returns a pointer to its columns.
  /// Growth is amortized: capacity at least doubles on reallocation, so a
  /// row-at-a-time fill is O(n) total regardless of the standard library's
  /// resize() policy.
  uint64_t* AppendRow() {
    const size_t needed = data_.size() + width_;
    if (needed > data_.capacity()) Grow(needed);
    data_.resize(needed);
    return data_.data() + needed - width_;
  }

  /// Appends a copy of `src` (width_ columns).
  void AppendRow(const uint64_t* src) {
    uint64_t* dst = AppendRow();
    std::memcpy(dst, src, width_ * sizeof(uint64_t));
  }

  /// Bulk-appends `rows` contiguous rows starting at `src` (rows * width_
  /// values): one growth check and one memcpy for the whole batch.
  void AppendRows(const uint64_t* src, size_t rows) {
    const size_t add = rows * width_;
    const size_t needed = data_.size() + add;
    if (needed > data_.capacity()) Grow(needed);
    data_.resize(needed);
    std::memcpy(data_.data() + needed - add, src, add * sizeof(uint64_t));
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
  size_t size() const { return data_.size() / width_; }
  /// True when no rows are stored.
  bool empty() const { return data_.empty(); }
  /// Columns per row.
  uint32_t width() const { return width_; }

  /// Removes all rows but keeps the allocation.
  void Clear() { data_.clear(); }

  /// Pre-allocates space for `rows` rows.
  void ReserveRows(size_t rows) { data_.reserve(rows * width_); }

  /// Approximate memory footprint in bytes.
  size_t MemoryBytes() const { return data_.capacity() * sizeof(uint64_t); }

 private:
  /// Reserves at least `needed` values, at least doubling capacity and
  /// starting at a few rows so tiny buffers don't reallocate per append.
  void Grow(size_t needed) {
    size_t target = data_.capacity() * 2;
    if (target < needed) target = needed;
    const size_t floor = size_t{16} * width_;
    if (target < floor) target = floor;
    data_.reserve(target);
  }

  uint32_t width_;
  std::vector<uint64_t> data_;
};

}  // namespace ovc

#endif  // OVC_ROW_ROW_BUFFER_H_
