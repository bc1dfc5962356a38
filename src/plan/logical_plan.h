// Logical query plans and the PlanBuilder front door.
//
// A logical plan describes *what* a query computes: a tree of relational
// operations over leaf table sources. It says nothing about physical
// algorithms -- whether a join runs as merge join or hash join, whether an
// aggregation streams over sorted input, folds into a sort, or hashes, and
// where explicit sorts go, are all decisions of the physical planner
// (plan/physical_plan.h), driven by the order properties the leaves
// declare. The planner only reads a built tree, so one tree can be planned
// by several threads at once.
//
// Leaf sources declare their order properties up front: a plain buffer is
// unsorted, while scans over sorted storage (in-memory runs, the B-tree,
// the RLE column store, the LSM forest) deliver rows *with offset-value
// codes* at zero comparison cost (Section 4.11) -- the planner's highest-
// value input.

#ifndef OVC_PLAN_LOGICAL_PLAN_H_
#define OVC_PLAN_LOGICAL_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/counters.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/merge_join.h"
#include "exec/operator.h"
#include "exec/set_operation.h"
#include "plan/cost_model.h"
#include "plan/order_property.h"
#include "row/row_buffer.h"
#include "row/schema.h"
#include "sort/run.h"

namespace ovc {
class BTree;
class RleColumnStore;
class LsmForest;
}  // namespace ovc

namespace ovc::plan {

/// The part of a filter's conjunction that bounds the leading key columns
/// of the scan below it: equality on key columns [0, p) and, optionally,
/// inclusive value bounds [lo, hi] on key column p. Over sorted storage
/// these rows form one contiguous span, which a seekable source finds by
/// binary search instead of scanning the table (the filter stays on top
/// and still evaluates the whole predicate).
struct KeyRange {
  /// Values of key columns 0..p-1 (p = equal.size()).
  std::vector<uint64_t> equal;
  /// True when key column p carries [lo, hi].
  bool bounded = false;
  /// Inclusive bounds on key column p, in value order (not sort order);
  /// lo > hi marks a contradiction that no row satisfies.
  uint64_t lo = 0;
  uint64_t hi = UINT64_MAX;
  /// True when the range is the whole predicate (no other conjunct).
  bool covers_predicate = false;
  /// EXPLAIN rendering, e.g. "k = 17" or "3 <= b <= 9".
  std::string text;

  bool empty() const { return bounded && lo > hi; }
  /// Key columns the range constrains: p, plus one when bounded.
  uint32_t columns() const {
    return static_cast<uint32_t>(equal.size()) + (bounded ? 1 : 0);
  }
  /// Fills `low` and `high` (schema.total_columns() values each, only the
  /// first columns() meaningful) with the first and last key prefix of the
  /// range in `schema`'s sort order: a descending bounded column swaps lo
  /// and hi. An empty range yields low sorting after high.
  void SortBounds(const Schema& schema, std::vector<uint64_t>* low,
                  std::vector<uint64_t>* high) const;
};

/// A leaf table: how to create a scan over it, its row layout, and the
/// order property the scan guarantees. The referenced storage must outlive
/// every plan and execution that uses the source.
struct TableSource {
  std::string name;
  const Schema* schema = nullptr;
  OrderProperty order;
  /// Optimizer statistics (row count, distinct key prefixes). The source
  /// constructors below fill row_count from the storage; the SQL catalog
  /// additionally fills key_distinct for generated tables. Either may stay
  /// unknown -- the cost model then falls back to its defaults.
  TableStats stats;
  /// Creates a fresh scan operator (called once per physical plan). A
  /// shared bound tree is planned by several threads at once, so the
  /// factories below only read their storage; LsmSource's is the one
  /// exception.
  std::function<std::unique_ptr<Operator>()> factory;
  /// Seekable sources only (null otherwise): creates a scan of the rows
  /// whose key prefix lies inside `range`, with the source's order and
  /// codes (the first row's code rebased to offset 0). The scan locates
  /// the range when it opens, counting its search comparisons into
  /// `counters` (may be null).
  std::function<std::unique_ptr<Operator>(const KeyRange& range,
                                          QueryCounters* counters)>
      range_factory;
};

/// Unsorted scan over a RowBuffer.
TableSource BufferSource(std::string name, const Schema* schema,
                         const RowBuffer* buffer);
/// Sorted, coded scan over an in-memory run (zero comparison cost);
/// seekable by binary search over the run.
TableSource RunSource(std::string name, const Schema* schema,
                      const InMemoryRun* run);
/// Sorted, coded scan over a B-tree (codes straight from the leaves);
/// seekable through BTree::RangeScan.
TableSource BTreeSource(std::string name, const BTree* tree);
/// Sorted, coded scan over the RLE column store (codes from RLE segment
/// arithmetic alone).
TableSource ColumnStoreSource(std::string name, const RleColumnStore* store);
/// Sorted, coded scan over an LSM forest (merges runs + memtable on the
/// fly; flushes the memtable when the scan is created). The flush writes
/// the forest, so plans over one LsmSource must not be built concurrently;
/// no SQL catalog table is an LsmSource.
TableSource LsmSource(std::string name, LsmForest* forest);

/// Logical operations.
enum class LogicalOp : uint8_t {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kDistinct,
  kSetOp,
  kSort,
  kTopK,
  kLimit,
};

/// One node of a logical plan tree. Fields beyond `op` / `children` /
/// `schema` are meaningful only for the matching LogicalOp.
struct LogicalNode {
  LogicalNode(LogicalOp op_in, Schema schema_in)
      : op(op_in), schema(std::move(schema_in)) {}

  LogicalOp op;
  std::vector<std::unique_ptr<LogicalNode>> children;
  /// Output row layout (computed when the node is built).
  Schema schema;

  // --- per-operation payload ---
  TableSource source;                    // kScan
  RowPredicate predicate;                // kFilter
  BlockPredicate block_predicate;        // kFilter (optional fast path)
  std::string predicate_text;            // kFilter (EXPLAIN, may be empty)
  std::optional<KeyRange> key_range;     // kFilter (seekable part)
  std::vector<uint32_t> mapping;         // kProject
  JoinType join_type = JoinType::kInner; // kJoin (key = children's key prefix)
  uint32_t group_prefix = 0;             // kAggregate
  std::vector<AggregateSpec> aggregates; // kAggregate
  SetOpType set_op = SetOpType::kUnion;  // kSetOp
  bool set_all = false;                  // kSetOp
  uint64_t limit = 0;                    // kTopK, kLimit
};

/// Fluent builder for logical plans. Each call wraps the current tree in a
/// new root; binary operations consume a second builder. Builders are
/// move-only (they own the tree under construction).
///
///   auto plan = PlanBuilder::Scan(BufferSource("hits", &schema, &rows))
///                   .Sort()
///                   .Aggregate(2, {{AggFn::kCount, 0}})
///                   .Build();
class PlanBuilder {
 public:
  /// Starts a plan at a leaf source.
  static PlanBuilder Scan(TableSource source);

  /// Keeps rows satisfying `predicate` (order- and code-preserving).
  /// `block_predicate`, when supplied, must agree with `predicate` row for
  /// row; batched execution then evaluates it once per block. `text`
  /// names the predicate in EXPLAIN. `key_range`, when supplied, must be
  /// implied by `predicate` and bound the key columns of the filter's
  /// input: over a seekable scan the planner then scans only that range
  /// (the filter stays on top with the full predicate).
  PlanBuilder& Filter(RowPredicate predicate,
                      BlockPredicate block_predicate = nullptr,
                      std::string text = std::string(),
                      std::optional<KeyRange> key_range = std::nullopt);

  /// Projects to `output_schema`; output column i takes input column
  /// `mapping[i]`. Order survives when the mapping keeps a key prefix in
  /// place (Section 4.2).
  PlanBuilder& Project(Schema output_schema, std::vector<uint32_t> mapping);

  /// Joins with `right` on the full key prefix of both inputs (their key
  /// arities and directions must match). Output: the canonical merge-join
  /// layout -- join key, left payloads, right payloads, match indicator --
  /// regardless of the physical algorithm chosen later.
  PlanBuilder& Join(PlanBuilder right, JoinType type);

  /// Groups on the first `group_prefix` key columns; one output payload
  /// column per aggregate.
  PlanBuilder& Aggregate(uint32_t group_prefix,
                         std::vector<AggregateSpec> aggregates);

  /// Removes full-key duplicate rows.
  PlanBuilder& Distinct();

  /// SQL set operation against `right` (schemas must match and be
  /// payload-free). `all` selects multiset semantics.
  PlanBuilder& SetOp(PlanBuilder right, SetOpType type, bool all);

  /// Requests the stream sorted on its full key with offset-value codes.
  /// The physical planner elides it when the input already delivers both.
  PlanBuilder& Sort();

  /// First `k` rows in full-key sort order.
  PlanBuilder& TopK(uint64_t k);

  /// First `n` rows of the stream *in its current order* -- no sort is
  /// requested or inserted. Order and codes pass through untouched (a
  /// truncated tail cannot invalidate codes already emitted).
  PlanBuilder& Limit(uint64_t n);

  /// Releases the finished logical tree. The builder is empty afterwards.
  std::unique_ptr<LogicalNode> Build();

  /// Peek at the tree under construction (e.g. for its schema).
  const LogicalNode& root() const {
    OVC_CHECK(root_ != nullptr);
    return *root_;
  }

 private:
  explicit PlanBuilder(std::unique_ptr<LogicalNode> root)
      : root_(std::move(root)) {}

  std::unique_ptr<LogicalNode> root_;
};

}  // namespace ovc::plan

#endif  // OVC_PLAN_LOGICAL_PLAN_H_
