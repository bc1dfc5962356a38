// In-sort aggregation: grouping/aggregation folded into the sort itself
// (the blocking operators of Figure 5's sort-based plan).
//
// Instead of sorting the full input and aggregating afterwards, every stage
// of the external sort collapses key-duplicate rows into running aggregate
// states: run generation spills at most one row per distinct group per run,
// intermediate merges collapse again, and the final merge streams fully
// aggregated groups. Against a sort-then-aggregate pipeline this cuts spill
// volume from "all input rows" to "groups per run" -- the reason the
// paper's sort-based intersect-distinct plan spills each logical row at
// most once and beats the hash-based plan.
//
// The operator is a transform over a collapsing ExternalSort: each input
// row becomes a single-row aggregation state (exec/aggregate.h), and the
// sort does the rest. Duplicate detection at every stage is code-only
// (offset == arity), and output rows carry exact codes (each group keeps
// its first row's code).

#ifndef OVC_EXEC_IN_SORT_AGGREGATE_H_
#define OVC_EXEC_IN_SORT_AGGREGATE_H_

#include <memory>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "exec/aggregate.h"
#include "exec/operator.h"
#include "sort/external_sort.h"

namespace ovc {

/// Blocking sort-based aggregation with early (in-sort) duplicate collapse.
/// With an empty aggregate list it is in-sort duplicate removal.
class InSortAggregate : public Operator {
 public:
  /// Groups on the first `group_prefix` columns of `child` (which need not
  /// be sorted). Output schema: the group columns as sort keys, one payload
  /// column per aggregate. `config` supplies the sort's memory, fan-in and
  /// mini-run sizes.
  InSortAggregate(Operator* child, uint32_t group_prefix,
                  std::vector<AggregateSpec> aggregates,
                  QueryCounters* counters, TempFileManager* temp,
                  SortConfig config = SortConfig());

  /// Drains the child into the sort. A spill error does not abort: it is
  /// recorded in the temp manager's error slot and the output is empty.
  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override;
  const Schema& schema() const override { return state_schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  Operator* child_;
  uint32_t group_prefix_;
  std::vector<AggregateSpec> aggregates_;
  Schema state_schema_;
  QueryCounters* counters_;
  TempFileManager* temp_;
  SortConfig config_;
  std::unique_ptr<ExternalSort> sort_;
};

}  // namespace ovc

#endif  // OVC_EXEC_IN_SORT_AGGREGATE_H_
