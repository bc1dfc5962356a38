// Leaf operators: scans over in-memory data.

#ifndef OVC_EXEC_SCAN_H_
#define OVC_EXEC_SCAN_H_

#include <cstdint>

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
class RunScan : public Operator {
 public:
  /// `schema` and `run` must outlive the scan.
  RunScan(const Schema* schema, const InMemoryRun* run)
      : schema_(schema), source_(run) {
    OVC_CHECK(run->width() == schema->total_columns());
  }

  void Open() override { source_.Rewind(); }
  uint32_t NextBatch(RowBlock* out) override {
    // Rows and codes are contiguous in the run and stable: zero-copy.
    return source_.NextBlock(out);
  }
  void Close() override {}
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  const Schema* schema_;
  InMemoryRunSource source_;
};

}  // namespace ovc

#endif  // OVC_EXEC_SCAN_H_
