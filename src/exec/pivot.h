// Pivoting (Section 4.6): turning rows into columns.
//
// From (group..., tag, value) to (group..., value_for_tag_1, ...,
// value_for_tag_k): "in many aspects, including the set of useful
// algorithms, pivoting is like grouping and aggregation" -- and so are its
// use of input offset-value codes (group boundary detection with a single
// integer test) and its production of output codes (the first input row's
// code, clamped to the grouping arity).

#ifndef OVC_EXEC_PIVOT_H_
#define OVC_EXEC_PIVOT_H_

#include <vector>

#include "common/counters.h"
#include "exec/operator.h"

namespace ovc {

/// Sorted-input pivot: one output row per distinct grouping prefix, with one
/// payload column per pivot tag value holding the aggregated (summed)
/// `value_col` of the rows carrying that tag.
class PivotOperator : public Operator {
 public:
  /// `child` must be sorted with codes on at least `group_prefix` key
  /// columns. `tag_col` and `value_col` are input column indexes; rows whose
  /// tag is not in `tags` are ignored (like a month outside 1..12).
  PivotOperator(Operator* child, uint32_t group_prefix, uint32_t tag_col,
                uint32_t value_col, std::vector<uint64_t> tags);

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return output_schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  static Schema MakeOutputSchema(const Schema& in, uint32_t group_prefix,
                                 size_t num_tags);

  void InitGroup(const RowRef& ref);
  void Accumulate(const uint64_t* row);
  /// Appends the open group's output row to `out`.
  void EmitGroup(RowBlock* out);

  Operator* child_;
  BlockCursor input_;
  uint32_t group_prefix_;
  uint32_t tag_col_;
  uint32_t value_col_;
  std::vector<uint64_t> tags_;
  Schema output_schema_;
  OvcCodec in_codec_;
  OvcCodec out_codec_;

  std::vector<uint64_t> state_row_;  // group key + running tag sums
  Ovc group_code_ = 0;
  bool group_open_ = false;
};

}  // namespace ovc

#endif  // OVC_EXEC_PIVOT_H_
