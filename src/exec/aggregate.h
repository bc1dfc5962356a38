// Grouping and aggregation in a sorted stream (Section 4.5, Figure 4).
//
// In a stream sorted on the "group by" list and carrying offset-value codes,
// a new group starts exactly when a row's code offset falls inside the
// grouping prefix -- one integer test per row, no column comparisons. The
// output row of a group keeps the code of the group's first input row,
// clamped to the grouping arity, so the aggregation output again carries
// correct codes for the next operator.
//
// For the Figure 4 experiment the operator also supports the baseline
// boundary detection: "full comparisons of multiple key columns" between
// each row and its predecessor.

#ifndef OVC_EXEC_AGGREGATE_H_
#define OVC_EXEC_AGGREGATE_H_

#include <vector>

#include "common/counters.h"
#include "exec/operator.h"
#include "row/comparator.h"
#include "row/row_buffer.h"
#include "sort/group_collapse.h"

namespace ovc {

/// Aggregate functions over 64-bit integer columns.
enum class AggFn { kCount, kSum, kMin, kMax };

/// One aggregate output column: `fn` applied to input column `input_col`
/// (ignored for kCount).
struct AggregateSpec {
  AggFn fn;
  uint32_t input_col;
};

// Aggregation state rows: the input of sort-based aggregation (in-sort
// aggregation and the hash-aggregate fallback). A state row has the
// aggregation's output layout -- group columns, then one accumulator per
// aggregate -- so an ExternalSort over it, given StateMergeFns(), folds
// key-duplicates into the final groups while it sorts.

/// The merge function of each aggregate's accumulator (counts merge by
/// summation: see StateMergeFn).
std::vector<StateMergeFn> StateMergeFns(
    const std::vector<AggregateSpec>& aggregates);

/// Writes the single-row aggregation state of input `row` to `state`: the
/// first `group_prefix` columns, then per aggregate the constant 1 for a
/// count and the aggregated input column otherwise.
void MakeStateRow(const uint64_t* row, uint32_t group_prefix,
                  const std::vector<AggregateSpec>& aggregates,
                  uint64_t* state);

/// In-stream (sorted-input) grouping and aggregation.
class InStreamAggregate : public Operator {
 public:
  struct Options {
    /// False switches to the baseline: group boundaries via column
    /// comparisons against the previous row (the expensive side of
    /// Figure 4).
    bool use_ovc_boundaries;

    Options() : use_ovc_boundaries(true) {}
  };

  /// `child` must be sorted (with codes when use_ovc_boundaries) on at
  /// least the first `group_prefix` key columns. Output schema:
  /// `group_prefix` key columns followed by one payload column per
  /// aggregate. `counters` (optional) prices the baseline's comparisons.
  InStreamAggregate(Operator* child, uint32_t group_prefix,
                    std::vector<AggregateSpec> aggregates,
                    QueryCounters* counters, Options options = Options());

  /// Output layout of grouping `in` on its first `group_prefix` columns
  /// with `num_aggregates` aggregate payload columns: group columns inside
  /// `in`'s sort key keep their direction, later ones sort ascending.
  /// Shared by every aggregation strategy (in-stream, in-sort, hash) and
  /// by the state rows of the sort-based ones, which is what lets the
  /// planner swap one for another without changing the plan's schema.
  static Schema MakeOutputSchema(const Schema& in, uint32_t group_prefix,
                                 size_t num_aggregates);

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override { child_->Close(); }
  const Schema& schema() const override { return output_schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return child_->has_ovc(); }

  /// Groups emitted so far.
  uint64_t groups() const { return groups_; }

 private:
  void InitGroup(const RowRef& ref);
  void Accumulate(const uint64_t* row);
  /// Appends the open group's output row to `out`.
  void EmitGroup(RowBlock* out);
  bool IsGroupBoundary(const RowRef& ref);

  Operator* child_;
  BlockCursor input_;
  uint32_t group_prefix_;
  std::vector<AggregateSpec> aggregates_;
  Schema output_schema_;
  Schema group_schema_;       // key arity == group_prefix, for the baseline
  OvcCodec in_codec_;
  OvcCodec out_codec_;
  KeyComparator group_comparator_;
  Options options_;

  std::vector<uint64_t> group_row_;   // current group's first input row
  std::vector<uint64_t> agg_state_;   // running aggregate accumulators
  Ovc group_code_ = 0;  // first-in-group input code
  uint64_t group_rows_ = 0;
  bool group_open_ = false;
  uint64_t groups_ = 0;
};

}  // namespace ovc

#endif  // OVC_EXEC_AGGREGATE_H_
