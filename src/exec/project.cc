#include "exec/project.h"

namespace ovc {

ProjectOperator::ProjectOperator(Operator* child, Schema output_schema,
                                 std::vector<uint32_t> mapping)
    : child_(child),
      output_schema_(std::move(output_schema)),
      mapping_(std::move(mapping)),
      order_preserving_(false),
      in_codec_(&child->schema()),
      out_codec_(&output_schema_) {
  OVC_CHECK(mapping_.size() == output_schema_.total_columns());
  for (uint32_t m : mapping_) {
    OVC_CHECK(m < child_->schema().total_columns());
  }
  // Order preservation: the output key columns must be exactly the leading
  // input key columns, in order, with matching directions.
  if (child_->sorted() && child_->has_ovc() &&
      output_schema_.key_arity() <= child_->schema().key_arity()) {
    bool prefix = true;
    for (uint32_t i = 0; i < output_schema_.key_arity(); ++i) {
      if (mapping_[i] != i ||
          output_schema_.direction(i) != child_->schema().direction(i)) {
        prefix = false;
        break;
      }
    }
    order_preserving_ = prefix;
  }
}

uint32_t ProjectOperator::NextBatch(RowBlock* out) {
  // The staging capacity must equal the caller's (a larger block would
  // produce more rows than `out` holds); re-cap the existing allocation
  // instead of reallocating when the caller's capacity moves.
  if (in_block_ == nullptr || in_block_->allocated_rows() < out->capacity()) {
    in_block_ = std::make_unique<RowBlock>(child_->schema().total_columns(),
                                           out->capacity());
  }
  in_block_->Clear();
  in_block_->SetCapacity(out->capacity());
  const uint32_t n = child_->NextBatch(in_block_.get());
  out->Clear();
  if (n == 0) return 0;
  const uint32_t out_width = static_cast<uint32_t>(mapping_.size());
  const uint32_t out_arity = output_schema_.key_arity();
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t* src = in_block_->row(i);
    const Ovc code =
        order_preserving_
            ? in_codec_.ClampToPrefix(in_block_->code(i), out_arity,
                                      out_codec_)
            : 0;
    uint64_t* dst = out->AppendRow(code);
    for (uint32_t c = 0; c < out_width; ++c) {
      dst[c] = src[mapping_[c]];
    }
  }
  return n;
}

}  // namespace ovc
