// Projection (Section 4.2).
//
// Removal and reordering of columns within a row. When the surviving key
// columns form a prefix of the input sort key, the output stays sorted and
// input codes carry over with their offsets clamped to the surviving prefix
// length; otherwise the output is unordered and code-free. ("If all columns
// in the sort key survive the projection, offset-value codes in the output
// are the same as in the input. If not, the offset must be limited to the
// prefix that survives.")
//
// Duplicate removal -- the "relationally pure" part of projection -- is a
// separate operator (exec/dedup.h).

#ifndef OVC_EXEC_PROJECT_H_
#define OVC_EXEC_PROJECT_H_

#include <memory>
#include <vector>

#include "exec/operator.h"
#include "row/row_buffer.h"

namespace ovc {

/// Projects input columns into a new row layout.
class ProjectOperator : public Operator {
 public:
  /// Output column i takes input column `mapping[i]`. `output_schema`
  /// describes the result layout; order/code preservation is derived from
  /// whether `mapping` keeps a key prefix in place.
  ProjectOperator(Operator* child, Schema output_schema,
                  std::vector<uint32_t> mapping);

  void Open() override { child_->Open(); }
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return output_schema_; }
  bool sorted() const override { return order_preserving_; }
  bool has_ovc() const override { return order_preserving_; }

 private:
  Operator* child_;
  Schema output_schema_;
  std::vector<uint32_t> mapping_;
  bool order_preserving_;
  OvcCodec in_codec_;
  OvcCodec out_codec_;
  /// Child-width staging block for NextBatch (sized lazily to match the
  /// consumer's block capacity).
  std::unique_ptr<RowBlock> in_block_;
};

}  // namespace ovc

#endif  // OVC_EXEC_PROJECT_H_
