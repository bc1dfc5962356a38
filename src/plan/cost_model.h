// Cost model: cardinality propagation and calibrated per-operator cost
// estimation for the physical planner.
//
// The paper's argument for sort-based query processing is quantitative:
// offset-value coding moves almost all of a sort's work from column value
// comparisons (~2.5 ns each here) to single-integer code comparisons
// (~1.5 ns, and "practically free" when folded into validity tests), which
// changes *which plan is cheapest*, not just how fast one plan runs. This
// module prices the planner's alternatives in those terms so that
// merge-vs-hash and in-stream/in-sort/hash-aggregation choices can compare
// estimated costs under a memory budget instead of hard-coded policy
// (plan/physical_plan.h consumes these estimates; see docs/COST_MODEL.md
// for the formulas, the calibration procedure, and worked examples).
//
// Two layers:
//
//  * Cardinality: EstimateCardinality derives a node's {rows, key
//    distinct} from its children's; the planner's AnalyzePlan pass runs it
//    bottom-up from leaf TableStats (row counts from storage,
//    distinct-prefix counts from the catalog's generator specs), with
//    default filter selectivity, N_l*N_r/max(D_l,D_r) join output, and
//    distinct-prefix estimates for groups.
//  * Cost: CostModel prices each physical alternative from those
//    cardinalities and the CostConstants -- per-comparison (column and
//    code), per-hashed-row, per-row-move, and per-spill-byte constants
//    seeded from the committed BENCH_PR2..PR4 measurements and overridable
//    through PlannerOptions::cost_constants.
//
// Costs are estimates of *work*, expressed in nanoseconds of the reference
// machine that produced BENCH_PR*.json. Absolute accuracy is not the goal;
// consistent ranking of plan alternatives is (tests/cost_model_test.cc
// asserts the ranking against measured counter totals priced with the same
// constants).

#ifndef OVC_PLAN_COST_MODEL_H_
#define OVC_PLAN_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sort/external_sort.h"

namespace ovc::plan {

struct LogicalNode;

/// Calibrated per-event work constants, in nanoseconds on the machine that
/// produced the committed BENCH_PR*.json aggregates. Override through
/// PlannerOptions::cost_constants; re-derive with bench/run_benches.sh
/// (the procedure is documented in docs/COST_MODEL.md).
struct CostConstants {
  /// One column value comparison. From the PlainTreeSort-vs-OvcSort wall
  /// clock delta divided by the column-comparison-count delta
  /// (BENCH_PR2..4: ~34 vs ~1 cmp/row, ~80ns/row apart).
  double column_compare = 2.5;
  /// One offset-value code comparison (a tournament-tree step). OvcSort:
  /// ~244 ns/row over log2(100k) = 17 levels, minus moves and codec work.
  double code_compare = 1.5;
  /// Hashing + probing + residency bookkeeping for one row in a hash
  /// operator (join build/probe, aggregation table).
  double hash_row = 10.0;
  /// Copying one row between operators or into run storage
  /// (bench_batch_pipeline: ~3 ns/row for a whole scan->filter->limit
  /// pipeline, about a third of it the move).
  double row_move = 1.0;
  /// Writing plus re-reading one spilled byte of temporary storage
  /// (~670 MB/s round trip).
  double spill_byte = 1.5;

  // --- estimation defaults (cardinality, not work) ---
  /// Selectivity assumed for an opaque filter predicate (and for a range
  /// the statistics cannot place).
  double filter_selectivity = 0.33;
  /// Distinct values assumed for a column with no statistics:
  /// rows^ndv_exponent (capped by rows).
  double ndv_exponent = 2.0 / 3.0;
  /// Row count assumed for a leaf with no statistics at all.
  double unknown_rows = 1000.0;

  /// The committed calibration (the defaults above).
  static CostConstants Calibrated() { return CostConstants(); }
};

/// Optimizer statistics for a leaf table. The row count is meaningful
/// only when row_count_known (or non-zero -- hand-built sources that fill
/// row_count without the flag still count as known); that distinguishes a
/// genuinely empty table (known, 0 rows) from a source with no statistics
/// at all, which the cost model prices at its unknown-rows default.
/// key_distinct may be empty (unknown) or hold, for each key-prefix
/// length k in 1..key_arity, the estimated number of distinct prefixes.
/// Sorted sources record the first key column of their first and last
/// rows, which a range on that column interpolates between.
struct TableStats {
  uint64_t row_count = 0;
  bool row_count_known = false;
  std::vector<double> key_distinct;
  bool key_bounds_known = false;
  uint64_t first_key = 0;
  uint64_t last_key = 0;

  // --- runtime feedback (EXPLAIN ANALYZE / QueryProfile) ---
  /// Scan output rows observed by the most recent profiled run that fed
  /// back into these stats (SqlSession::ApplyFeedbackTo); 0 until then.
  double observed_rows = 0;
  /// How many profiled runs have fed back into observed_rows.
  uint64_t feedback_runs = 0;
};

/// A node's estimated output cardinality: row count plus distinct counts
/// for every key-prefix length of its output schema.
struct CardEstimate {
  double rows = 0;
  /// distinct[k-1] = estimated distinct values of the first k key columns.
  std::vector<double> key_distinct;

  /// Distinct values of the first `prefix` key columns (clamped, >= 1).
  double DistinctPrefix(uint32_t prefix) const;
};

/// Cardinality of one node from its children's estimates (`child_cards[i]`
/// for child i). AnalyzePlan (plan/physical_plan.h) applies it bottom-up.
CardEstimate EstimateCardinality(const LogicalNode& node,
                                 const CardEstimate* child_cards,
                                 const CostConstants& constants);

/// Rows of `input` inside `filter`'s key range (which must be set):
/// equality on a p-column key prefix keeps rows / distinct(p); a range on
/// key column 0 over a scan with known key bounds interpolates between the
/// first and last key; a range on a later column takes filter_selectivity
/// of the equality estimate.
double KeyRangeRows(const LogicalNode& filter, const CardEstimate& input,
                    const CostConstants& constants);

/// Prices physical alternatives. Stateless beyond the constants and the
/// memory budgets it is constructed with; every function returns the
/// *extra* work of that operator alone (children are priced separately and
/// summed by the planner into per-node plan estimates).
class CostModel {
 public:
  CostModel(const CostConstants& constants, const SortConfig& sort_config,
            uint64_t hash_memory_rows)
      : c_(constants),
        sort_memory_rows_(static_cast<double>(sort_config.memory_rows)),
        sort_fan_in_(sort_config.fan_in < 2 ? 2.0
                                            : static_cast<double>(
                                                  sort_config.fan_in)),
        hash_memory_rows_(static_cast<double>(hash_memory_rows)) {}

  const CostConstants& constants() const { return c_; }

  /// Streaming a leaf of `rows` rows.
  double Scan(double rows) const;
  /// Seeking a sorted leaf of `table_rows` rows: at most two binary
  /// searches, then streaming the `rows` rows in range.
  double RangeScan(double table_rows, double rows) const;
  /// Evaluating an opaque predicate over `rows` rows, keeping `out_rows`.
  double Filter(double rows, double out_rows) const;
  /// Copying `rows` rows through a projection.
  double Project(double rows) const;

  /// A full external sort of `rows` rows with `key_arity` key columns,
  /// `distinct` distinct keys and `width` total columns. Includes run
  /// generation (code comparisons through the tournament, column
  /// comparisons bounded by the paper's N + G*K shape), cascaded merge
  /// passes, and spill bytes once `rows` exceeds the sort memory budget.
  double Sort(double rows, uint32_t key_arity, double distinct,
              uint32_t width) const;

  /// In-sort aggregation / duplicate removal: the sort above, but with the
  /// tournament bounded by the surviving group count (early collapse).
  double InSortAggregate(double rows, double groups, uint32_t key_arity,
                         double distinct, uint32_t width) const;
  /// In-stream aggregation over sorted input; code boundaries when
  /// `input_coded`, column comparisons otherwise.
  double InStreamAggregate(double rows, double groups, uint32_t group_prefix,
                           bool input_coded) const;
  /// Hash aggregation of `rows` into `groups`, spilling partitions once
  /// the resident table exceeds the hash memory budget.
  double HashAggregate(double rows, double groups, uint32_t width) const;

  /// Code-only duplicate removal over a sorted coded stream.
  double Dedup(double rows) const;

  /// Merge join of two sorted coded inputs producing `out_rows`.
  double MergeJoin(double left_rows, double right_rows,
                   double out_rows) const;
  /// Grace hash join (build = right), spilling both sides once the build
  /// exceeds the hash memory budget.
  double GraceHashJoin(double probe_rows, double build_rows, double out_rows,
                       uint32_t probe_width, uint32_t build_width) const;
  /// Order-preserving in-memory hash join (build must be vouched to fit).
  double OrderPreservingHashJoin(double probe_rows, double build_rows,
                                 double out_rows) const;

  /// Sort-based set operation over two sorted coded inputs.
  double SetOperation(double left_rows, double right_rows,
                      double out_rows) const;
  /// Truncation to `out_rows`.
  double Limit(double out_rows) const;

  /// Splitting exchange routing `rows` rows (hash policies hash each row).
  double SplitExchange(double rows, bool hash_policy) const;
  /// Merging exchange over `workers` sorted coded worker streams.
  double MergeExchange(double rows, uint32_t workers) const;

 private:
  /// ceil(log2(x)) clamped to >= 1, for tournament depths.
  static double Log2Clamped(double x);

  CostConstants c_;
  double sort_memory_rows_;
  double sort_fan_in_;
  double hash_memory_rows_;
};

/// Estimate attached to every physical plan node: output rows and
/// *cumulative* cost (this operator plus everything below it).
struct NodeEstimate {
  double rows = 0;
  double cost = 0;
};

/// Deterministic rendering used by EXPLAIN and the docs snippets:
/// "{rows=N cost=C}" with both values rounded to integers.
std::string RenderEstimate(const NodeEstimate& est);

}  // namespace ovc::plan

#endif  // OVC_PLAN_COST_MODEL_H_
