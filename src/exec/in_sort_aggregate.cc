#include "exec/in_sort_aggregate.h"

namespace ovc {

InSortAggregate::InSortAggregate(Operator* child, uint32_t group_prefix,
                                 std::vector<AggregateSpec> aggregates,
                                 QueryCounters* counters,
                                 TempFileManager* temp, SortConfig config)
    : child_(child),
      group_prefix_(group_prefix),
      aggregates_(std::move(aggregates)),
      state_schema_(InStreamAggregate::MakeOutputSchema(
          child->schema(), group_prefix, aggregates_.size())),
      counters_(counters),
      temp_(temp),
      config_(config) {
  OVC_CHECK(group_prefix >= 1);
  OVC_CHECK(group_prefix <= child->schema().total_columns());
  for (const AggregateSpec& spec : aggregates_) {
    OVC_CHECK(spec.fn == AggFn::kCount ||
              spec.input_col < child->schema().total_columns());
  }
}

void InSortAggregate::Open() {
  sort_ = std::make_unique<ExternalSort>(&state_schema_,
                                         StateMergeFns(aggregates_),
                                         counters_, temp_, config_);
  child_->Open();
  RowBlock input(child_->schema().total_columns());
  RowBlock states(state_schema_.total_columns());
  while (child_->NextBatch(&input) > 0) {
    states.Clear();
    for (uint32_t i = 0; i < input.size(); ++i) {
      MakeStateRow(input.row(i), group_prefix_, aggregates_,
                   states.AppendRow(0));
    }
    sort_->AddBlock(states);
  }
  child_->Close();
  // A failed sort serves no rows.
  const Status st = sort_->Finish();
  if (!st.ok()) temp_->RecordError(st);
}

uint32_t InSortAggregate::NextBatch(RowBlock* out) {
  return sort_->NextBlock(out);
}

void InSortAggregate::Close() { sort_.reset(); }

}  // namespace ovc
