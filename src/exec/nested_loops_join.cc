#include "exec/nested_loops_join.h"

#include <cstring>

namespace ovc {

RunLookupSource::RunLookupSource(const Schema* schema, const InMemoryRun* run,
                                 uint32_t bind_columns,
                                 QueryCounters* counters)
    : schema_(schema),
      run_(run),
      bind_columns_(bind_columns),
      comparator_(schema, counters) {
  OVC_CHECK(bind_columns >= 1);
  OVC_CHECK(bind_columns <= schema->key_arity());
}

void RunLookupSource::Bind(const uint64_t* outer_row) {
  // Binary search for the range of inner rows whose first bind_columns_ key
  // columns equal the outer row's. Three-way comparison on the bind prefix.
  auto compare_prefix = [&](size_t idx) {
    const uint64_t* inner = run_->row(idx);
    for (uint32_t c = 0; c < bind_columns_; ++c) {
      if (comparator_.counters() != nullptr) {
        ++comparator_.counters()->column_comparisons;
      }
      const uint64_t iv = schema_->NormalizedAt(inner, c);
      const uint64_t ov = schema_->NormalizedAt(outer_row, c);
      if (iv != ov) return iv < ov ? -1 : 1;
    }
    return 0;
  };
  // Lower bound.
  size_t lo = 0, hi = run_->size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (compare_prefix(mid) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  pos_ = lo;
  // Upper bound.
  hi = run_->size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (compare_prefix(mid) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  end_ = lo;
}

bool RunLookupSource::Next(const uint64_t** row, Ovc* code) {
  if (pos_ >= end_) return false;
  *row = run_->row(pos_);
  *code = run_->code(pos_);
  ++pos_;
  return true;
}

Schema NestedLoopsJoin::MakeOutputSchema() const {
  const Schema& os = outer_->schema();
  if (type_ == JoinTypeNlj::kLeftSemi || type_ == JoinTypeNlj::kLeftAnti) {
    return os;
  }
  const Schema& is = inner_->schema();
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < os.key_arity(); ++c) dirs.push_back(os.direction(c));
  uint32_t payload = os.payload_columns() + is.payload_columns() + 1;
  if (extended_) {
    for (uint32_t c = 0; c < is.key_arity(); ++c) {
      dirs.push_back(is.direction(c));
    }
  } else {
    payload += is.key_arity();  // inner keys ride along as payload
  }
  return Schema(std::move(dirs), payload);
}

NestedLoopsJoin::NestedLoopsJoin(Operator* outer, LookupSource* inner,
                                 JoinTypeNlj type, QueryCounters* counters)
    : outer_(outer),
      outer_input_(outer),
      inner_(inner),
      type_(type),
      extended_(inner->sorted_with_ovc() && type != JoinTypeNlj::kLeftSemi &&
                type != JoinTypeNlj::kLeftAnti),
      output_schema_(MakeOutputSchema()),
      outer_codec_(&outer->schema()),
      inner_codec_(&inner->schema()),
      out_codec_(&output_schema_),
      counters_(counters),
      outer_group_(outer->schema().total_columns()),
      inner_row_copy_(inner->schema().total_columns(), 0) {
  OVC_CHECK(outer->sorted() && outer->has_ovc());
}

void NestedLoopsJoin::Open() {
  outer_->Open();
  outer_input_.Reset();
  o_valid_ = outer_input_.Next(&oref_);
  acc_.Reset();
  state_ = o_valid_ ? State::kNextGroup : State::kDone;
}

void NestedLoopsJoin::CollectOuterGroup() {
  outer_group_.Clear();
  outer_group_.AppendRow(oref_.cols);
  group_code_ = oref_.ovc;  // raw first-of-group code; combined lazily
  while (true) {
    o_valid_ = outer_input_.Next(&oref_);
    if (!o_valid_ || !outer_codec_.IsDuplicate(oref_.ovc)) break;
    outer_group_.AppendRow(oref_.cols);
  }
}

Ovc NestedLoopsJoin::LiftOuterCode(Ovc code) const {
  if (!extended_) return code;  // output arity equals the outer arity
  // Group codes always sit within the outer key (offset < outer arity), so
  // both offset and value carry over unchanged.
  return out_codec_.Make(outer_codec_.OffsetOf(code), OvcCodec::ValueOf(code));
}

void NestedLoopsJoin::EmitCombined(const uint64_t* outer_row,
                                   const uint64_t* inner_row, Ovc code,
                                   RowBlock* out) {
  const Schema& os = outer_->schema();
  const Schema& is = inner_->schema();
  uint64_t* dst = out->AppendRow(code);
  std::memcpy(dst, outer_row, os.key_arity() * sizeof(uint64_t));
  uint64_t* p = dst + os.key_arity();
  if (inner_row != nullptr) {
    std::memcpy(p, inner_row, is.key_arity() * sizeof(uint64_t));
  } else {
    std::memset(p, 0, is.key_arity() * sizeof(uint64_t));
  }
  p += is.key_arity();
  std::memcpy(p, outer_row + os.key_arity(),
              os.payload_columns() * sizeof(uint64_t));
  p += os.payload_columns();
  if (inner_row != nullptr) {
    std::memcpy(p, inner_row + is.key_arity(),
                is.payload_columns() * sizeof(uint64_t));
  } else {
    std::memset(p, 0, is.payload_columns() * sizeof(uint64_t));
  }
  p += is.payload_columns();
  *p = inner_row != nullptr ? 3 : 1;  // match indicator
}

uint32_t NestedLoopsJoin::NextBatch(RowBlock* out) {
  out->Clear();
  while (!out->full()) {
    switch (state_) {
      case State::kDone:
        return out->size();

      case State::kNextGroup: {
        if (!o_valid_) {
          state_ = State::kDone;
          return out->size();
        }
        CollectOuterGroup();
        inner_->Bind(outer_group_.row(0));
        group_first_pending_ = true;
        any_match_ = false;

        if (type_ == JoinTypeNlj::kLeftSemi ||
            type_ == JoinTypeNlj::kLeftAnti) {
          const uint64_t* row = nullptr;
          Ovc code = 0;
          const bool match = inner_->Next(&row, &code);
          const bool keep = (type_ == JoinTypeNlj::kLeftSemi) == match;
          if (!keep) {
            acc_.Absorb(group_code_);
            continue;
          }
          emit_idx_ = 0;
          state_ = State::kEmitGroupRows;
          continue;
        }
        state_ = State::kScanInner;
        continue;
      }

      case State::kScanInner: {
        const uint64_t* row = nullptr;
        Ovc code = 0;
        if (inner_->Next(&row, &code)) {
          std::memcpy(inner_row_copy_.data(), row,
                      inner_->schema().total_columns() * sizeof(uint64_t));
          inner_first_ = !any_match_;
          inner_code_ = code;
          any_match_ = true;
          outer_idx_ = 0;
          state_ = State::kEmitOuterPerInner;
          continue;
        }
        if (!any_match_) {
          if (type_ == JoinTypeNlj::kLeftOuter) {
            emit_idx_ = 0;
            state_ = State::kEmitGroupRows;
            continue;
          }
          acc_.Absorb(group_code_);  // inner join: group dropped
        }
        state_ = State::kNextGroup;
        continue;
      }

      case State::kEmitOuterPerInner: {
        // Role reversal: this inner row joins every outer row of the group.
        Ovc code;
        if (group_first_pending_) {
          code = LiftOuterCode(acc_.Combine(group_code_));
          acc_.Reset();
          group_first_pending_ = false;
        } else if (outer_idx_ == 0 && !inner_first_ && extended_) {
          // A new inner row within the group: the inner code, lifted by the
          // outer sort key's size (Section 4.8).
          code = out_codec_.Make(
              outer_->schema().key_arity() + inner_codec_.OffsetOf(inner_code_),
              OvcCodec::ValueOf(inner_code_));
        } else {
          code = out_codec_.DuplicateCode();
        }
        EmitCombined(outer_group_.row(outer_idx_), inner_row_copy_.data(),
                     code, out);
        ++outer_idx_;
        if (outer_idx_ >= outer_group_.size()) {
          state_ = State::kScanInner;
        }
        continue;
      }

      case State::kEmitGroupRows: {
        if (emit_idx_ >= outer_group_.size()) {
          state_ = State::kNextGroup;
          continue;
        }
        Ovc code;
        if (group_first_pending_) {
          code = acc_.Combine(group_code_);
          if (type_ == JoinTypeNlj::kLeftOuter) code = LiftOuterCode(code);
          acc_.Reset();
          group_first_pending_ = false;
        } else {
          code = out_codec_.DuplicateCode();
        }
        if (type_ == JoinTypeNlj::kLeftOuter) {
          EmitCombined(outer_group_.row(emit_idx_), nullptr, code, out);
        } else {
          out->Append(outer_group_.row(emit_idx_), code);
        }
        ++emit_idx_;
        continue;
      }
    }
  }
  return out->size();
}

}  // namespace ovc
