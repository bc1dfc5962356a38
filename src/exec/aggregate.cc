#include "exec/aggregate.h"

#include <cstring>
#include <limits>

namespace ovc {

namespace {

Schema MakeGroupSchema(const Schema& in, uint32_t group_prefix) {
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < group_prefix; ++c) {
    dirs.push_back(in.direction(c));
  }
  return Schema(std::move(dirs), /*payload_columns=*/0);
}

}  // namespace

Schema InStreamAggregate::MakeOutputSchema(const Schema& in,
                                           uint32_t group_prefix,
                                           size_t num_aggregates) {
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < group_prefix; ++c) {
    dirs.push_back(c < in.key_arity() ? in.direction(c)
                                      : SortDirection::kAscending);
  }
  return Schema(std::move(dirs),
                static_cast<uint32_t>(num_aggregates));
}

std::vector<StateMergeFn> StateMergeFns(
    const std::vector<AggregateSpec>& aggregates) {
  std::vector<StateMergeFn> fns;
  fns.reserve(aggregates.size());
  for (const AggregateSpec& spec : aggregates) {
    switch (spec.fn) {
      case AggFn::kCount:
      case AggFn::kSum:
        fns.push_back(StateMergeFn::kSum);
        break;
      case AggFn::kMin:
        fns.push_back(StateMergeFn::kMin);
        break;
      case AggFn::kMax:
        fns.push_back(StateMergeFn::kMax);
        break;
    }
  }
  return fns;
}

void MakeStateRow(const uint64_t* row, uint32_t group_prefix,
                  const std::vector<AggregateSpec>& aggregates,
                  uint64_t* state) {
  std::memcpy(state, row, group_prefix * sizeof(uint64_t));
  for (size_t a = 0; a < aggregates.size(); ++a) {
    state[group_prefix + a] = aggregates[a].fn == AggFn::kCount
                                  ? 1
                                  : row[aggregates[a].input_col];
  }
}

InStreamAggregate::InStreamAggregate(Operator* child, uint32_t group_prefix,
                                     std::vector<AggregateSpec> aggregates,
                                     QueryCounters* counters, Options options)
    : child_(child),
      input_(child),
      group_prefix_(group_prefix),
      aggregates_(std::move(aggregates)),
      output_schema_(
          MakeOutputSchema(child->schema(), group_prefix, aggregates_.size())),
      group_schema_(MakeGroupSchema(child->schema(), group_prefix)),
      in_codec_(&child->schema()),
      out_codec_(&output_schema_),
      group_comparator_(&group_schema_, counters),
      options_(options),
      group_row_(child->schema().total_columns(), 0),
      agg_state_(aggregates_.size(), 0) {
  OVC_CHECK(group_prefix >= 1);
  OVC_CHECK(group_prefix <= child->schema().key_arity());
  OVC_CHECK(child->sorted());
  if (options_.use_ovc_boundaries) {
    OVC_CHECK(child->has_ovc());
  }
  for (const AggregateSpec& spec : aggregates_) {
    OVC_CHECK(spec.fn == AggFn::kCount ||
              spec.input_col < child->schema().total_columns());
  }
}

void InStreamAggregate::Open() {
  child_->Open();
  input_.Reset();
  group_open_ = false;
  groups_ = 0;
}

bool InStreamAggregate::IsGroupBoundary(const RowRef& ref) {
  if (options_.use_ovc_boundaries) {
    // One integer test; no column values touched.
    return in_codec_.IsBoundary(ref.ovc, group_prefix_);
  }
  // Baseline (Figure 4's expensive side): compare grouping columns of the
  // current row against the previous row.
  return group_comparator_.FirstDifference(group_row_.data(), ref.cols, 0) <
         group_prefix_;
}

void InStreamAggregate::InitGroup(const RowRef& ref) {
  std::memcpy(group_row_.data(), ref.cols,
              child_->schema().total_columns() * sizeof(uint64_t));
  group_code_ = ref.ovc;
  group_rows_ = 0;
  // Seed the aggregate accumulators.
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    switch (aggregates_[a].fn) {
      case AggFn::kCount:
      case AggFn::kSum:
        agg_state_[a] = 0;
        break;
      case AggFn::kMin:
        agg_state_[a] = std::numeric_limits<uint64_t>::max();
        break;
      case AggFn::kMax:
        agg_state_[a] = 0;
        break;
    }
  }
  group_open_ = true;
}

void InStreamAggregate::Accumulate(const uint64_t* row) {
  ++group_rows_;
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    uint64_t& acc = agg_state_[a];
    switch (aggregates_[a].fn) {
      case AggFn::kCount:
        ++acc;
        break;
      case AggFn::kSum:
        acc += row[aggregates_[a].input_col];
        break;
      case AggFn::kMin:
        acc = std::min(acc, row[aggregates_[a].input_col]);
        break;
      case AggFn::kMax:
        acc = std::max(acc, row[aggregates_[a].input_col]);
        break;
    }
  }
}

void InStreamAggregate::EmitGroup(RowBlock* out) {
  // The group's output code is the first input row's code, clamped to the
  // grouping arity ("output rows retain the offset-value codes of the first
  // row in each group"). Available whenever the input carries codes, even
  // when boundary detection runs in baseline mode.
  const Ovc code =
      child_->has_ovc()
          ? in_codec_.ClampToPrefix(group_code_, group_prefix_, out_codec_)
          : 0;
  uint64_t* dst = out->AppendRow(code);
  std::memcpy(dst, group_row_.data(), group_prefix_ * sizeof(uint64_t));
  std::memcpy(dst + group_prefix_, agg_state_.data(),
              aggregates_.size() * sizeof(uint64_t));
  ++groups_;
}

uint32_t InStreamAggregate::NextBatch(RowBlock* out) {
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
    } else if (IsGroupBoundary(ref)) {
      EmitGroup(out);
      InitGroup(ref);
    }
    Accumulate(ref.cols);
  }
  return out->size();
}

}  // namespace ovc
