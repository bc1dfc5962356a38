// RowBlock: the unit of data flow between operators.
//
// A RowBlock holds up to `capacity` fixed-width rows in one contiguous
// stretch plus a parallel array of offset-value codes. Operator::NextBatch,
// the one pull, fills a block, so an operator pays one virtual dispatch per
// block instead of one per row.
//
// Stream contract: rows appear in stream order and, for sorted-with-codes
// streams, row i's code is relative to the stream's previous row -- which
// is row i-1 of the same block, or the *last row of the previous block* for
// the first row of a block. Codes are therefore valid across block
// boundaries and a concatenation of blocks is exactly the stream, whatever
// the capacity (capacity 1 is the row-at-a-time stream); OvcStreamChecker
// can observe the rows of consecutive blocks in order and will accept the
// stream.
//
// Two serving modes:
//  * owned -- producers append (copy) rows into the block's own storage,
//    which is allocated once at construction and never reallocates;
//  * borrowed -- a leaf over stable contiguous storage (InMemoryRun,
//    RowBuffer) points the block at a span of that storage via
//    RefContiguous(), serving a whole block with zero copying. Borrowed
//    blocks are read-only (plus Truncate, which only moves the size).
//
// Pointer stability: in owned mode, pointers returned by
// row()/mutable_row()/AppendRow() stay valid until the block is destroyed --
// Clear()/Truncate() only move the size. In borrowed mode, pointers are into
// the producer's storage and follow its lifetime rules. Either way, a
// producer refilling a block (NextBatch) invalidates previous contents, so
// consumers must finish with a block's rows before asking for the next
// block. A BlockCursor (exec/operator.h) follows the same rule: its rows
// stay valid until it refills.

#ifndef OVC_ROW_ROW_BLOCK_H_
#define OVC_ROW_ROW_BLOCK_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/ovc_word.h"

namespace ovc {

/// A fixed-capacity batch of rows with their offset-value codes.
class RowBlock {
 public:
  /// Default block size: large enough to amortize per-block virtual dispatch
  /// and small enough that one block of typical rows stays cache-resident.
  static constexpr uint32_t kDefaultRows = 1024;

  /// Creates a block for rows of `width` columns holding up to
  /// `capacity_rows` rows. All owned storage is allocated here, up front.
  explicit RowBlock(uint32_t width, uint32_t capacity_rows = kDefaultRows)
      : width_(width),
        capacity_(capacity_rows),
        owned_cols_(static_cast<size_t>(width) * capacity_rows),
        owned_codes_(capacity_rows, 0),
        cols_(owned_cols_.data()),
        codes_(owned_codes_.data()) {
    OVC_CHECK(width >= 1);
    OVC_CHECK(capacity_rows >= 1);
  }

  // The block's storage identity is its owned allocation; copying/moving a
  // block mid-stream has no meaningful semantics.
  RowBlock(const RowBlock&) = delete;
  RowBlock& operator=(const RowBlock&) = delete;

  uint32_t width() const { return width_; }
  uint32_t capacity() const { return capacity_; }
  /// Rows allocated at construction (the upper bound for SetCapacity).
  uint32_t allocated_rows() const {
    return static_cast<uint32_t>(owned_codes_.size());
  }
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }
  /// True when the block currently references a producer's storage.
  bool borrowed() const { return borrowed_; }

  /// Read-only access to row `i`.
  const uint64_t* row(uint32_t i) const {
    OVC_DCHECK(i < size_);
    return cols_ + static_cast<size_t>(i) * width_;
  }

  /// Mutable access to row `i` (owned mode only).
  uint64_t* mutable_row(uint32_t i) {
    OVC_DCHECK(i < size_);
    OVC_DCHECK(!borrowed_);
    return owned_cols_.data() + static_cast<size_t>(i) * width_;
  }

  /// Code of row `i`.
  Ovc code(uint32_t i) const {
    OVC_DCHECK(i < size_);
    return codes_[i];
  }

  /// Overwrites the code of row `i` (owned mode only).
  void set_code(uint32_t i, Ovc code) {
    OVC_DCHECK(i < size_);
    OVC_DCHECK(!borrowed_);
    owned_codes_[i] = code;
    codes_dirty_ = true;
  }

  /// Contiguous row storage of the current contents (size() * width()
  /// values) -- owned or borrowed.
  const uint64_t* data() const { return cols_; }
  /// Contiguous code storage of the current contents (size() values).
  const Ovc* codes() const { return codes_; }

  /// Appends an uninitialized row with code `code`; returns a pointer to
  /// its columns for the producer to fill. Owned mode only (Clear() first
  /// after serving a borrowed span).
  uint64_t* AppendRow(Ovc code) {
    OVC_DCHECK(size_ < capacity_);
    OVC_DCHECK(!borrowed_);
    owned_codes_[size_] = code;
    codes_dirty_ = true;
    return owned_cols_.data() + static_cast<size_t>(size_++) * width_;
  }

  /// Appends a copy of `src` (width() columns) with code `code`.
  void Append(const uint64_t* src, Ovc code) {
    std::memcpy(AppendRow(code), src, width_ * sizeof(uint64_t));
  }

  /// Bulk-appends `n` contiguous rows (and their codes; `codes == nullptr`
  /// zero-fills). The caller guarantees `size() + n <= capacity()`.
  void AppendContiguous(const uint64_t* rows, const Ovc* codes, uint32_t n) {
    OVC_DCHECK(size_ + n <= capacity_);
    OVC_DCHECK(!borrowed_);
    uint64_t* dst = owned_cols_.data() + static_cast<size_t>(size_) * width_;
    const size_t words = static_cast<size_t>(n) * width_;
    if (words <= 32) {
      // Tiny spans (filters emit many): a plain word loop beats the
      // out-of-line memcpy call.
      for (size_t w = 0; w < words; ++w) dst[w] = rows[w];
    } else {
      std::memcpy(dst, rows, words * sizeof(uint64_t));
    }
    if (codes != nullptr) {
      if (n <= 32) {
        for (uint32_t i = 0; i < n; ++i) owned_codes_[size_ + i] = codes[i];
      } else {
        std::memcpy(owned_codes_.data() + size_, codes, n * sizeof(Ovc));
      }
    } else {
      std::memset(owned_codes_.data() + size_, 0, n * sizeof(Ovc));
    }
    codes_dirty_ = true;
    size_ += n;
  }

  /// Zero-copy serving: points the block at `n` contiguous rows (and
  /// parallel codes) of a producer's stable storage. `codes == nullptr`
  /// serves all-zero codes (unsorted leaves). The span must stay valid for
  /// as long as the block's contents are alive (i.e. until the producer's
  /// next NextBatch()/Close()). `n` may not exceed capacity(), keeping
  /// consumer-side buffers sized by the capacity they requested.
  void RefContiguous(const uint64_t* rows, const Ovc* codes, uint32_t n) {
    OVC_DCHECK(n <= capacity_);
    cols_ = rows;
    if (codes != nullptr) {
      codes_ = codes;
    } else {
      if (codes_dirty_) {
        // Clear the whole allocation, not just the current capacity: a
        // SetCapacity-reduced block must not leave stale codes beyond
        // capacity_ that a later, larger zero-code span would expose.
        std::memset(owned_codes_.data(), 0,
                    owned_codes_.size() * sizeof(Ovc));
        codes_dirty_ = false;
      }
      codes_ = owned_codes_.data();
    }
    size_ = n;
    borrowed_ = true;
  }

  /// Drops all rows and returns to owned mode (storage stays allocated).
  void Clear() {
    size_ = 0;
    borrowed_ = false;
    cols_ = owned_cols_.data();
    codes_ = owned_codes_.data();
  }

  /// Sets the block's effective capacity to `rows` (1 <= rows <= the
  /// capacity allocated at construction; current size must fit). Lets a
  /// consumer cap how many rows a producer's NextBatch may deliver -- e.g.
  /// a limit's final partial block -- without reallocating.
  void SetCapacity(uint32_t rows) {
    OVC_DCHECK(rows >= 1);
    OVC_DCHECK(rows <= owned_codes_.size());
    OVC_DCHECK(size_ <= rows);
    capacity_ = rows;
  }

  /// Keeps only the first `n` rows (allowed in both modes: truncation only
  /// moves the size).
  void Truncate(uint32_t n) {
    OVC_DCHECK(n <= size_);
    size_ = n;
  }

 private:
  uint32_t width_;
  uint32_t capacity_;
  uint32_t size_ = 0;
  bool borrowed_ = false;
  /// True when owned_codes_ may hold non-zero values (lets RefContiguous
  /// serve zero codes without re-clearing every time).
  bool codes_dirty_ = false;
  std::vector<uint64_t> owned_cols_;
  std::vector<Ovc> owned_codes_;
  const uint64_t* cols_;
  const Ovc* codes_;
};

}  // namespace ovc

#endif  // OVC_ROW_ROW_BLOCK_H_
