// Leaf operators: scans over in-memory data.

#ifndef OVC_EXEC_SCAN_H_
#define OVC_EXEC_SCAN_H_

#include <cstdint>
#include <vector>

#include "common/counters.h"
#include "core/ovc.h"
#include "exec/operator.h"
#include "row/row_buffer.h"
#include "sort/run.h"

namespace ovc {

/// Scans a RowBuffer in storage order. Unsorted, no codes: the typical
/// input of a sort operator.
class BufferScan : public Operator {
 public:
  /// `schema` and `buffer` must outlive the scan. Supports rescans.
  BufferScan(const Schema* schema, const RowBuffer* buffer)
      : schema_(schema), buffer_(buffer) {
    OVC_CHECK(buffer->width() == schema->total_columns());
  }

  void Open() override { pos_ = 0; }
  uint32_t NextBatch(RowBlock* out) override {
    // RowBuffer rows are contiguous and stable for the scan's lifetime.
    return buffer_->ServeBlock(&pos_, out);
  }
  void Close() override {}
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return false; }
  bool has_ovc() const override { return false; }

 private:
  const Schema* schema_;
  const RowBuffer* buffer_;
  size_t pos_ = 0;
};

/// Scans an InMemoryRun: sorted rows with their stored offset-value codes,
/// at zero comparison cost -- the in-memory analogue of an ordered storage
/// scan (Section 4.11). Supports rescans.
///
/// A seeking scan serves only the span [begin, end) of rows whose key lies
/// between two bounds, located by binary search when the scan opens; when
/// the bounds are equal, the stored codes mark where the span ends. By the
/// filter theorem (Section 4.1) skipping a sorted prefix changes one code:
/// the span's first row gets offset 0, and every later stored code stays
/// valid. A full scan is the whole-run span.
class RunScan : public Operator {
 public:
  /// Full scan. `schema` and `run` must outlive the scan.
  RunScan(const Schema* schema, const InMemoryRun* run)
      : schema_(schema),
        run_(run),
        codec_(schema),
        prefix_(*schema),
        end_(run->size()) {
    OVC_CHECK(run->width() == schema->total_columns());
  }

  /// Seeking scan of the rows whose first `key_columns` key columns lie
  /// between `low` and `high` in sort order (rows of
  /// schema->total_columns() values; later columns ignored). The searches
  /// count their column comparisons into `counters` (may be null); `low`
  /// sorting after `high` is an empty range, found without touching the
  /// run.
  RunScan(const Schema* schema, const InMemoryRun* run, uint32_t key_columns,
          std::vector<uint64_t> low, std::vector<uint64_t> high,
          QueryCounters* counters);

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override {
    out->Clear();
    const size_t avail = end_ - pos_;
    const uint32_t n = static_cast<uint32_t>(
        avail < out->capacity() ? avail : out->capacity());
    if (n == 0) return 0;
    if (pos_ == begin_ && begin_ > 0) {
      // The span's first block is copied so its first code can be rebased.
      out->AppendContiguous(run_->row(pos_), run_->codes() + pos_, n);
      out->set_code(0, codec_.MakeInitial(out->row(0)));
    } else {
      // Rows and codes are contiguous in the run and stable: zero-copy.
      out->RefContiguous(run_->row(pos_), run_->codes() + pos_, n);
    }
    pos_ += n;
    return n;
  }
  void Close() override {}
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  /// First row in [from, run size) whose key sorts at or after `key`
  /// (`strict`: strictly after). When `at_key` is given, it reports
  /// whether that row equals `key`.
  size_t Search(const uint64_t* key, bool strict, size_t from,
                bool* at_key) const;

  const Schema* schema_;
  const InMemoryRun* run_;
  OvcCodec codec_;
  // Seek bounds, compared on the prefix schema; empty for a full scan.
  Schema prefix_;
  std::vector<uint64_t> low_;
  std::vector<uint64_t> high_;
  QueryCounters* counters_ = nullptr;
  size_t begin_ = 0;
  size_t end_;
  size_t pos_ = 0;
};

}  // namespace ovc

#endif  // OVC_EXEC_SCAN_H_
