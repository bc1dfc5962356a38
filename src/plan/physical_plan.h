// Physical planning: from a logical plan to an executable operator tree.
//
// The planner never writes the logical tree. One analysis pass
// (AnalyzePlan) first gathers what each node's decision needs into a facts
// tree that lives for one Plan call: the order the parent could exploit
// (interesting orders, top-down), the estimated cardinality and the order
// property the decision rules will deliver (both bottom-up). The planner
// then walks the tree again, building operators, and picks physical
// algorithms by matching available properties against required ones:
//
//  * A Sort node whose input is already sorted with offset-value codes is
//    *elided* -- the paper's headline planner win: order and codes flowing
//    out of one sort-based operator (or out of sorted storage) make the
//    next sort free.
//  * Join: merge join when both inputs arrive sorted with codes. When only
//    the probe side does: the probe's order is never discarded -- the
//    build side is sorted and merge join reuses the probe's order, or,
//    if the caller vouches the build fits in memory
//    (assume_build_fits_memory -- the operator aborts past its budget),
//    the order-preserving in-memory hash join (Section 4.9), whichever
//    the cost model estimates cheaper. When neither side has order the
//    open call is grace hash join versus sorting both inputs, decided by
//    estimated cost under the memory budgets (see plan/cost_model.h and
//    docs/COST_MODEL.md); sorts are inserted to enable merge join for
//    the join types hash joins cannot run (and under prefer_sort_based).
//  * Aggregate: in-stream aggregation over sorted input (boundaries from
//    codes, Section 4.5); in-sort aggregation (early duplicate collapse,
//    Figure 5) when the input is unsorted but the parent has an interesting
//    order or sort-based planning is preferred; hash versus in-sort by
//    estimated cost otherwise (hash wins resident, in-sort once the group
//    count overflows the hash budget).
//  * Distinct: code-only duplicate removal over sorted input (Section 4.4);
//    in-sort or hash duplicate removal over unsorted input.
//  * Set operations are inherently sort-based; sorts are inserted only for
//    children that lack order or codes.
//  * Parallelism (Section 4.10): with `parallelism` > 1 the planner emits
//    exchange-parallel shapes built from a splitting exchange, one worker
//    pipeline per partition, and a merging exchange that restores a single
//    sorted coded stream. A splitting shuffle keeps per-partition codes by
//    the filter theorem; the merging shuffle is "very similar to a merge
//    step in an external merge sort". Three shapes are wired: parallel
//    sort (round-robin split -> per-worker sort -> merge-exchange),
//    parallel aggregation (hash-split on the grouping prefix, co-locating
//    groups -> per-worker in-stream/in-sort aggregate -> merge-exchange),
//    and parallel merge join (both raw inputs hash-split on the join key
//    into co-partitioned pairs -> per-worker inserted sorts where an input
//    lacks order or codes -> per-worker merge join -> merge-exchange).
//    A region stays open until a consumer needs one stream: an aggregate
//    grouped on at least the region's hash key prefix appends its
//    per-worker in-stream aggregate instead, so a join grouped on its key
//    is one region with one merge. Each worker pipeline gets its own
//    QueryCounters (the MergeExchange threading contract);
//    PhysicalPlan::RollUpWorkerCounters folds them into the session
//    counters after a run so accounting stays exact.
//
// Every physical join is normalized to the canonical merge-join output
// layout (join key, left payloads, right payloads, match indicator), so the
// same logical plan produces identical rows no matter which algorithms the
// planner picks.

#ifndef OVC_PLAN_PHYSICAL_PLAN_H_
#define OVC_PLAN_PHYSICAL_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/profile.h"
#include "common/temp_file.h"
#include "exec/exchange.h"
#include "exec/fallback_policy.h"
#include "exec/operator.h"
#include "plan/cost_model.h"
#include "plan/logical_plan.h"
#include "plan/order_property.h"
#include "sort/external_sort.h"

namespace ovc::plan {

/// Physical algorithms the planner chooses among.
enum class PhysicalAlg : uint8_t {
  kScan,
  kFilter,
  kProject,
  kMergeJoin,
  kOrderPreservingHashJoin,
  kGraceHashJoin,
  kInStreamAggregate,
  kInSortAggregate,
  kHashAggregate,
  kDedup,
  kInSortDistinct,
  kHashDistinct,
  kSetOperation,
  kSort,        // a SortOperator: explicit, or inserted by the planner
  kElidedSort,  // a logical Sort satisfied by its input's properties
  kLimit,
  kSplitExchange,  // one-to-many splitting shuffle feeding worker pipelines
  kMergeExchange,  // many-to-one order-preserving merging shuffle
};

/// Short name, e.g. "merge-join", "elided-sort".
const char* PhysicalAlgName(PhysicalAlg alg);

/// Planner knobs.
struct PlannerOptions {
  /// Per-event work constants for the cost model. Defaults to the
  /// committed calibration (see docs/COST_MODEL.md to re-derive). Where
  /// correctness permits several algorithms, hard gates come first (hash
  /// joins only for the types they support, an ordered coded probe is
  /// never discarded, an order-interested parent gets an order-producing
  /// aggregate) and estimated cost decides the remaining open calls:
  /// grace-hash versus sort+merge-join under the memory budgets, hash
  /// versus in-sort aggregation/distinct by estimated duplicate density,
  /// and the vouched in-memory hash join versus sorting the build side.
  CostConstants cost_constants = CostConstants::Calibrated();
  /// True forces sort-based algorithms (inserting sorts) even where a
  /// hash-based operator would serve an order-indifferent consumer.
  bool prefer_sort_based = false;
  /// Configuration for planner-inserted sorts and in-sort aggregation
  /// (memory budget, fan-in, mini-run size).
  SortConfig sort_config;
  /// True lets the planner pick the order-preserving in-memory hash join
  /// (Section 4.9) for a sorted probe over an unsorted build. That
  /// operator *aborts* if the build side exceeds hash_memory_rows -- its
  /// residency guarantee is the caller's job -- so this stays off by
  /// default; the robust default sorts the build side and merge joins,
  /// which spills gracefully and still reuses the probe's order.
  bool assume_build_fits_memory = false;
  /// Row budget for hash-join build sides and hash-aggregation tables.
  uint64_t hash_memory_rows = uint64_t{1} << 20;
  /// What a planner-built hash operator does when its budget check fails
  /// mid-query. Planned queries default to the graceful path -- degrade to
  /// the sort-based strategy (ExternalSort + merge logic, preserving OVCs)
  /// from the point of failure -- because a planner that got here
  /// mis-estimated, and recursive partition thrashing compounds the
  /// mistake. kPartition restores the classic grace behavior (and stays
  /// the constructor default for directly built operators, e.g. the
  /// Figure 6 hash-plan benchmarks that measure it).
  FallbackPolicy fallback = FallbackPolicy::kSortMerge;
  /// Worker pipelines for exchange-parallel plan shapes; 1 keeps every
  /// plan serial. With N > 1 the planner splits eligible sorts,
  /// aggregations, and merge joins across N partitions, runs one worker
  /// pipeline per partition (each with its own QueryCounters), and
  /// restores a single sorted coded stream with a merging exchange.
  uint32_t parallelism = 1;
  /// Merging-exchange knobs for parallel shapes. `threaded` true runs one
  /// producer thread per worker pipeline (real parallelism); false pulls
  /// workers inline on one thread (deterministic mode for tests and
  /// benchmarks).
  MergeExchange::Options exchange;
  /// True builds the plan with a QueryProfile: every operator is wrapped in
  /// a ProfiledOperator and constructed against its own per-node (and,
  /// inside exchange regions, per-thread) QueryCounters slice, so rows,
  /// wall time, and comparison/spill work are attributed per plan line.
  /// Off by default -- EXPLAIN ANALYZE, `ovcsql --profile=FILE`, and the
  /// profile tests turn it on; the un-profiled hot path stays untouched.
  bool profile = false;
};

/// What the planner knows about one logical node before it picks the
/// node's algorithm. The facts tree mirrors the logical tree node for node.
struct PlanFacts {
  /// The logical node these facts describe.
  const LogicalNode* node = nullptr;
  /// Interesting order: what the node's parent could exploit (join keys
  /// for joins, grouping prefixes for aggregations, full keys for distinct,
  /// set operations and sorts; passed through filters, limits and
  /// key-preserving projections).
  OrderRequirement required = OrderRequirement::None();
  /// Estimated output cardinality.
  CardEstimate card;
  /// Order property the planner's decision rules deliver for the subtree.
  OrderProperty order = OrderProperty::Unsorted();
  /// Facts of node->children, in the same order.
  std::vector<PlanFacts> children;
};

/// The planner's one analysis pass: requirements flow down from the root,
/// then each node's cardinality (EstimateCardinality) and order property
/// (the same decision rules Planner::Plan applies) are computed from its
/// children's on the way up. Pure: reads `root` and writes nothing into it.
PlanFacts AnalyzePlan(const LogicalNode& root, const PlannerOptions& options);

/// An executable physical plan: owns its operator tree.
class PhysicalPlan {
 public:
  PhysicalPlan() = default;
  PhysicalPlan(PhysicalPlan&&) = default;
  /// Move *assignment* is deliberately unavailable: a defaulted member-wise
  /// move would destroy the overwritten plan's operators front to back,
  /// breaking the parents-first teardown the destructor guarantees. Hold
  /// reassignable plans behind std::unique_ptr (as PlanExecutor does).
  PhysicalPlan& operator=(PhysicalPlan&&) = delete;
  /// Destroys the operators in reverse construction order -- parents
  /// before the children they pull from. Children are always Own()ed
  /// before their parent, so in particular a MergeExchange (whose
  /// destructor cancels and joins producer threads on the
  /// destroyed-without-Close path) goes before the worker operators those
  /// threads are still driving; forward vector destruction would free the
  /// workers under the live threads.
  ~PhysicalPlan();

  /// Root of the operator tree (owned by the plan).
  Operator* root() const { return root_; }

  /// Order property of the root's output stream.
  const OrderProperty& root_order() const { return root_order_; }

  /// Number of SortOperators the planner inserted because an input lacked
  /// the required order or codes (explicit logical Sort nodes that survive
  /// are counted separately under `explicit_sorts`).
  uint32_t inserted_sorts() const { return inserted_sorts_; }
  /// Logical Sort nodes that became physical SortOperators.
  uint32_t explicit_sorts() const { return explicit_sorts_; }
  /// Logical Sort nodes elided because their input already delivered order
  /// and codes.
  uint32_t elided_sorts() const { return elided_sorts_; }

  /// True when the plan uses `alg` anywhere.
  bool Uses(PhysicalAlg alg) const;
  /// All algorithm choices, one per physical node, in plan-tree order.
  const std::vector<PhysicalAlg>& algorithms() const { return algorithms_; }

  /// Cost-model estimate per physical node, parallel to algorithms():
  /// output rows and cumulative cost (the node plus its whole subtree).
  const std::vector<NodeEstimate>& node_estimates() const {
    return estimates_;
  }
  /// Estimate for the plan root: total estimated rows out and total
  /// estimated cost of the whole plan.
  const NodeEstimate& root_estimate() const { return root_estimate_; }

  /// Worker pipelines of the widest exchange-parallel region (0 when the
  /// plan is serial).
  uint32_t parallel_workers() const { return parallel_workers_; }

  /// Counters the planner created for concurrent parts of the plan: one
  /// per worker pipeline plus one per splitting exchange (the MergeExchange
  /// contract -- concurrent pipelines must not share a counters instance).
  const std::vector<std::unique_ptr<QueryCounters>>& worker_counters() const {
    return worker_counters_;
  }

  /// Folds all worker counters into `into` (no-op when null) and resets
  /// them, so comparison-count accounting stays exact across repeated
  /// runs. PlanExecutor calls this after every run of a parallel plan.
  void RollUpWorkerCounters(QueryCounters* into);

  /// Multi-line indented rendering with per-node order properties.
  std::string ToString() const { return explain_; }

  /// The per-node runtime profile, or null when the plan was built without
  /// PlannerOptions::profile. Filled in by PlanExecutor::Run (actuals are
  /// zero before the first run).
  QueryProfile* profile() const { return profile_.get(); }

  /// EXPLAIN ANALYZE rendering: the profiled plan tree with estimates,
  /// actuals, per-node timings/counters, and worst-Q-error flags. Falls
  /// back to the plain EXPLAIN text for un-profiled plans.
  std::string ExplainAnalyze() const {
    return profile_ ? profile_->Render() : explain_;
  }

 private:
  friend class Planner;

  Operator* Own(std::unique_ptr<Operator> op) {
    operators_.push_back(std::move(op));
    return operators_.back().get();
  }

  /// Records one physical node's algorithm choice and estimate (the two
  /// vectors stay parallel; every chosen algorithm goes through here).
  void RecordAlg(PhysicalAlg alg, const NodeEstimate& est) {
    algorithms_.push_back(alg);
    estimates_.push_back(est);
  }

  SplitExchange* OwnSplit(std::unique_ptr<SplitExchange> split) {
    splits_.push_back(std::move(split));
    return splits_.back().get();
  }

  QueryCounters* NewWorkerCounters() {
    worker_counters_.push_back(std::make_unique<QueryCounters>());
    return worker_counters_.back().get();
  }

  // Member declaration order is destruction order in reverse: the
  // destructor empties `operators_` first (itself back to front, see
  // ~PhysicalPlan), then the split exchanges, then the counters and the
  // profile -- so any producer threads joined during operator destruction
  // can still touch partition streams, worker counters, and profile slices.
  std::unique_ptr<QueryProfile> profile_;
  std::vector<std::unique_ptr<QueryCounters>> worker_counters_;
  /// Splitting exchanges are not Operators (they fan out into partition
  /// streams), so the plan owns them separately.
  std::vector<std::unique_ptr<SplitExchange>> splits_;
  std::vector<std::unique_ptr<Operator>> operators_;
  Operator* root_ = nullptr;
  OrderProperty root_order_;
  uint32_t inserted_sorts_ = 0;
  uint32_t explicit_sorts_ = 0;
  uint32_t elided_sorts_ = 0;
  uint32_t parallel_workers_ = 0;
  std::vector<PhysicalAlg> algorithms_;
  std::vector<NodeEstimate> estimates_;
  NodeEstimate root_estimate_;
  std::string explain_;
};

/// The physical planner.
class Planner {
 public:
  /// `counters` (optional) and `temp` must outlive every plan produced.
  Planner(QueryCounters* counters, TempFileManager* temp,
          PlannerOptions options = PlannerOptions());

  /// Analyzes `root` (AnalyzePlan), then builds the physical operator
  /// tree. Reads `root` only, so threads may plan one tree concurrently,
  /// each with its own Planner. `root` (and the storage behind its scans)
  /// must outlive the returned plan.
  PhysicalPlan Plan(const LogicalNode* root);

  const PlannerOptions& options() const { return options_; }

 private:
  struct Built {
    /// Root operator of the subtree; null while the subtree is an open
    /// exchange region (see `workers`).
    Operator* op = nullptr;
    OrderProperty prop;
    /// Output rows + cumulative cost estimate for this subtree.
    NodeEstimate est;
    /// Relative-indentation explain block for this subtree.
    std::string explain;
    /// QueryProfile node index of this subtree's root (-1 when the plan is
    /// not profiled).
    int pnode = -1;
    /// An open exchange region (Section 4.10): one operator per worker,
    /// each over its own partition, not yet merged. `prop` and `est`
    /// describe the worker streams taken together; CloseRegion merges them
    /// into `op`.
    std::vector<Operator*> workers;
    /// Counters the region's per-worker operators charge, one per worker
    /// (empty under profiling, where each per-worker plan line meters its
    /// own per-worker slices).
    std::vector<QueryCounters*> worker_ctrs;
    /// The region's partitioning {hash key prefix, workers}: the workers
    /// are hash-partitioned on their first `partition_prefix` key columns
    /// (0 after a round-robin split, where equal keys may sit in any
    /// worker).
    uint32_t partition_prefix = 0;

    bool open() const { return !workers.empty(); }
  };

  /// Profile wiring for one physical plan node: the profile node index,
  /// the stats slice metering the node's operator, and the counters the
  /// node's operator constructors should charge -- the slice's own
  /// counters when profiling, the caller's fallback instance otherwise.
  struct Meter {
    int node = -1;
    OperatorStats* slice = nullptr;
    QueryCounters* ctrs = nullptr;
  };
  /// Allocates one profile node with one stats slice when the plan is
  /// profiled; otherwise a pass-through meter charging `fallback`.
  Meter NewMeter(PhysicalPlan* plan, QueryCounters* fallback);
  /// Wraps `op` in a ProfiledOperator writing `m`'s slice (identity when
  /// the plan is not profiled).
  Operator* Wrap(PhysicalPlan* plan, Operator* op, const Meter& m);
  /// Fills in profile node `m.node`'s explain label, estimate, children,
  /// and (for scans) feedback table. No-op when not profiled.
  void SetProfileLine(PhysicalPlan* plan, const Meter& m, PhysicalAlg alg,
                      const std::string& detail, const OrderProperty& prop,
                      const NodeEstimate& est,
                      const std::vector<int>& children,
                      const std::string& table = std::string());

  /// Builds `f.node`'s subtree as one stream: an open exchange region the
  /// subtree ends in is closed with a merging exchange metered by `ctrs`.
  ///
  /// `ctrs` is the counters instance for operators this subtree constructs
  /// -- the session counters at the root, a region-owned instance inside a
  /// parallel region (everything below a splitting exchange executes on
  /// whichever producer thread pumps the split, so it must never share the
  /// consumer thread's counters).
  Built BuildNode(const PlanFacts& f, PhysicalPlan* plan, QueryCounters* ctrs);
  /// BuildNode without the final close: a parallel merge join, sort or
  /// aggregate returns its region open, so a co-partitioned aggregate can
  /// append its own per-worker operator. An open result does not use
  /// `ctrs`; whoever closes the region passes its own.
  Built BuildOpen(const PlanFacts& f, PhysicalPlan* plan, QueryCounters* ctrs);
  /// The seek below `filter` (a filter with a key range over a seekable
  /// scan): a scan of the range only, estimated at the range's rows.
  Built BuildRangeScan(const PlanFacts& filter, PhysicalPlan* plan,
                       QueryCounters* ctrs);
  /// Sorts `child` with a planner-inserted SortOperator metered by `ctrs`,
  /// or, when `child` is an open region, with one per worker, each
  /// charging its worker's counters and producing its partition's codes.
  /// Either way it counts as one inserted sort. `logical_child` provides
  /// the schema and the cardinality estimate for the sort's cost
  /// annotation.
  Built InsertSort(Built child, const PlanFacts& logical_child,
                   PhysicalPlan* plan, QueryCounters* ctrs);

  /// True when exchange-parallel shapes are enabled.
  bool ParallelEnabled() const { return options_.parallelism > 1; }
  /// Builds one per-worker operator from the worker's input streams (one
  /// per input region, co-indexed) and the counters it must charge.
  using WorkerFactory = std::function<std::unique_ptr<Operator>(
      const std::vector<Operator*>& inputs, QueryCounters* wc)>;
  /// Opens an exchange region over `child`: a SplitExchange into
  /// `parallelism` partition streams, which become the region's workers.
  /// A kHashKey split hashes the first `hash_prefix` key columns, which
  /// become the region's partition prefix; a round-robin split passes 0.
  /// `child_ctrs` is the region counters instance the child subtree was
  /// built with; the split shares it (subtree pulls and routing both
  /// happen under the split's pump mutex). `worker_ctrs` (from
  /// RegionWorkerCounters) are what later per-worker operators charge; the
  /// two inputs of a join share one set. The split line shows the child's
  /// own property: the filter theorem keeps a sorted coded child sorted
  /// and coded in every partition, and a raw child stays unsorted.
  Built SplitRegion(Built child, QueryCounters* child_ctrs,
                    SplitExchange::Policy policy, uint32_t hash_prefix,
                    std::vector<QueryCounters*> worker_ctrs,
                    PhysicalPlan* plan);
  /// One counters instance per worker, or none under profiling.
  std::vector<QueryCounters*> RegionWorkerCounters(PhysicalPlan* plan);
  /// Appends one operator per worker to the open regions `inputs` (the
  /// co-indexed partitions of one region: one input, or a join's two),
  /// built by `make`, as one plan line `alg(detail)` with one profile
  /// slice per worker. The result is the region, still open.
  Built AppendToRegion(std::vector<Built> inputs, PhysicalAlg alg,
                       const std::string& detail, const OrderProperty& prop,
                       const NodeEstimate& est, PhysicalPlan* plan,
                       const WorkerFactory& make);
  /// Closes an open region: one merging exchange restores a single sorted
  /// coded stream from the workers, metered by `ctrs` on the consumer
  /// thread.
  Built CloseRegion(Built region, QueryCounters* ctrs, PhysicalPlan* plan);

  QueryCounters* counters_;
  TempFileManager* temp_;
  PlannerOptions options_;
  /// Prices the alternatives during planning and the chosen operators for
  /// the per-node EXPLAIN annotations.
  CostModel cost_model_;
};

}  // namespace ovc::plan

#endif  // OVC_PLAN_PHYSICAL_PLAN_H_
