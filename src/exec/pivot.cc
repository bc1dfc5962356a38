#include "exec/pivot.h"

#include <cstring>

namespace ovc {

Schema PivotOperator::MakeOutputSchema(const Schema& in, uint32_t group_prefix,
                                       size_t num_tags) {
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < group_prefix; ++c) {
    dirs.push_back(in.direction(c));
  }
  return Schema(std::move(dirs), static_cast<uint32_t>(num_tags));
}

PivotOperator::PivotOperator(Operator* child, uint32_t group_prefix,
                             uint32_t tag_col, uint32_t value_col,
                             std::vector<uint64_t> tags)
    : child_(child),
      input_(child),
      group_prefix_(group_prefix),
      tag_col_(tag_col),
      value_col_(value_col),
      tags_(std::move(tags)),
      output_schema_(
          MakeOutputSchema(child->schema(), group_prefix, tags_.size())),
      in_codec_(&child->schema()),
      out_codec_(&output_schema_),
      state_row_(output_schema_.total_columns(), 0) {
  OVC_CHECK(child->sorted() && child->has_ovc());
  OVC_CHECK(group_prefix >= 1);
  OVC_CHECK(group_prefix <= child->schema().key_arity());
  OVC_CHECK(tag_col < child->schema().total_columns());
  OVC_CHECK(value_col < child->schema().total_columns());
  OVC_CHECK(!tags_.empty());
}

void PivotOperator::Open() {
  child_->Open();
  input_.Reset();
  group_open_ = false;
}

void PivotOperator::InitGroup(const RowRef& ref) {
  std::memcpy(state_row_.data(), ref.cols, group_prefix_ * sizeof(uint64_t));
  std::memset(state_row_.data() + group_prefix_, 0,
              tags_.size() * sizeof(uint64_t));
  group_code_ = ref.ovc;
  group_open_ = true;
}

void PivotOperator::Accumulate(const uint64_t* row) {
  const uint64_t tag = row[tag_col_];
  for (size_t t = 0; t < tags_.size(); ++t) {
    if (tags_[t] == tag) {
      state_row_[group_prefix_ + t] += row[value_col_];
      return;
    }
  }
  // Unknown tag: ignored.
}

void PivotOperator::EmitGroup(RowBlock* out) {
  std::memcpy(
      out->AppendRow(
          in_codec_.ClampToPrefix(group_code_, group_prefix_, out_codec_)),
      state_row_.data(), output_schema_.total_columns() * sizeof(uint64_t));
}

uint32_t PivotOperator::NextBatch(RowBlock* out) {
  out->Clear();
  RowRef ref;
  while (!out->full()) {
    if (!input_.Next(&ref)) {
      if (group_open_) {
        EmitGroup(out);
        group_open_ = false;
      }
      break;
    }
    if (!group_open_) {
      InitGroup(ref);
    } else if (in_codec_.IsBoundary(ref.ovc, group_prefix_)) {
      EmitGroup(out);
      InitGroup(ref);
    }
    Accumulate(ref.cols);
  }
  return out->size();
}

}  // namespace ovc
