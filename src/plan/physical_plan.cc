#include "plan/physical_plan.h"

#include <algorithm>
#include <utility>

#include "exec/dedup.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/in_sort_aggregate.h"
#include "exec/limit.h"
#include "exec/profiled_operator.h"
#include "exec/project.h"
#include "exec/sort_operator.h"
#include "plan/cost_model.h"

namespace ovc::plan {

const char* PhysicalAlgName(PhysicalAlg alg) {
  switch (alg) {
    case PhysicalAlg::kScan:
      return "scan";
    case PhysicalAlg::kFilter:
      return "filter";
    case PhysicalAlg::kProject:
      return "project";
    case PhysicalAlg::kMergeJoin:
      return "merge-join";
    case PhysicalAlg::kOrderPreservingHashJoin:
      return "hash-join(order-preserving)";
    case PhysicalAlg::kGraceHashJoin:
      return "hash-join(grace)";
    case PhysicalAlg::kInStreamAggregate:
      return "in-stream-aggregate";
    case PhysicalAlg::kInSortAggregate:
      return "in-sort-aggregate";
    case PhysicalAlg::kHashAggregate:
      return "hash-aggregate";
    case PhysicalAlg::kDedup:
      return "dedup";
    case PhysicalAlg::kInSortDistinct:
      return "in-sort-distinct";
    case PhysicalAlg::kHashDistinct:
      return "hash-distinct";
    case PhysicalAlg::kSetOperation:
      return "set-operation";
    case PhysicalAlg::kSort:
      return "sort";
    case PhysicalAlg::kElidedSort:
      return "elided-sort";
    case PhysicalAlg::kLimit:
      return "limit";
    case PhysicalAlg::kSplitExchange:
      return "split-exchange";
    case PhysicalAlg::kMergeExchange:
      return "merge-exchange";
  }
  return "unknown";
}

bool PhysicalPlan::Uses(PhysicalAlg alg) const {
  return std::find(algorithms_.begin(), algorithms_.end(), alg) !=
         algorithms_.end();
}

PhysicalPlan::~PhysicalPlan() {
  while (!operators_.empty()) operators_.pop_back();
}

void PhysicalPlan::RollUpWorkerCounters(QueryCounters* into) {
  for (auto& wc : worker_counters_) {
    if (into != nullptr) into->Merge(*wc);
    wc->Reset();
  }
}

namespace {

/// True when `prop` delivers the stream fully sorted (on every key column
/// of `schema`) together with valid codes -- the runtime precondition of
/// every code-consuming operator.
bool SortedWithCodesOn(const OrderProperty& prop, const Schema& schema) {
  return prop.SortedWithCodes(schema.key_arity());
}

/// Property a SortOperator configured with `config` delivers.
OrderProperty SortOutput(const Schema& schema, const SortConfig& config) {
  return OrderProperty::Sorted(schema.key_arity(),
                               config.use_ovc || config.naive_output_codes);
}

/// CostModel matching `options` (constants + memory budgets).
CostModel ModelFor(const PlannerOptions& options) {
  return CostModel(options.cost_constants, options.sort_config,
                   options.hash_memory_rows);
}

/// Cost of a full sort of `card` rows shaped like `schema`.
double SortCostFor(const CostModel& model, const CardEstimate& card,
                   const Schema& schema) {
  return model.Sort(card.rows, schema.key_arity(),
                    card.DistinctPrefix(schema.key_arity()),
                    schema.total_columns());
}

// ---------------------------------------------------------------------------
// Pure decision rules, shared by the instantiating planner and the pure
// inference entry point so the two can never disagree. The open calls
// compare cost estimates.
// ---------------------------------------------------------------------------

struct JoinDecision {
  PhysicalAlg alg;
  bool sort_left = false;
  bool sort_right = false;
  /// True when the physical output layout must be projected back to the
  /// canonical merge-join layout.
  bool normalize = false;
  OrderProperty out;
};

bool HashSupports(JoinType type) {
  return type == JoinType::kInner || type == JoinType::kLeftOuter ||
         type == JoinType::kLeftSemi || type == JoinType::kLeftAnti;
}

JoinTypeHash ToHashType(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return JoinTypeHash::kInner;
    case JoinType::kLeftOuter:
      return JoinTypeHash::kLeftOuter;
    case JoinType::kLeftSemi:
      return JoinTypeHash::kLeftSemi;
    case JoinType::kLeftAnti:
      return JoinTypeHash::kLeftAnti;
    default:
      OVC_CHECK(false);
  }
  return JoinTypeHash::kInner;
}

JoinDecision DecideJoin(const LogicalNode& node, const OrderProperty& left,
                        const OrderProperty& right,
                        const PlannerOptions& options) {
  const Schema& ls = node.children[0]->schema;
  const Schema& rs = node.children[1]->schema;
  const bool l_ok = SortedWithCodesOn(left, ls);
  const bool r_ok = SortedWithCodesOn(right, rs);
  const JoinType type = node.join_type;
  const bool combines = type != JoinType::kLeftSemi &&
                        type != JoinType::kLeftAnti &&
                        type != JoinType::kRightSemi &&
                        type != JoinType::kRightAnti;

  JoinDecision d;
  d.out = OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
  if (l_ok && r_ok) {
    // Both inputs arrive sorted with codes: the merge join both exploits
    // and reproduces them (Section 4.7) at pure code-comparison cost --
    // nothing can beat it.
    d.alg = PhysicalAlg::kMergeJoin;
    return d;
  }
  const bool hash_allowed = !options.prefer_sort_based && HashSupports(type);
  const CostModel model = ModelFor(options);
  const CardEstimate lc = CardOf(*node.children[0], options.cost_constants);
  const CardEstimate rc = CardOf(*node.children[1], options.cost_constants);
  const double out_rows = CardOf(node, options.cost_constants).rows;
  // The sort-based fallback: sorts exactly where order or codes are
  // missing, then merge join (spilling gracefully past the sort memory
  // budget).
  const double sort_merge = (l_ok ? 0.0 : SortCostFor(model, lc, ls)) +
                            (r_ok ? 0.0 : SortCostFor(model, rc, rs)) +
                            model.MergeJoin(lc.rows, rc.rows, out_rows);
  if (hash_allowed && !l_ok &&
      (type == JoinType::kInner || type == JoinType::kLeftSemi)) {
    // No order on the probe side: grace hash join versus sorting both
    // inputs, decided by estimated cost under the memory budgets --
    // grace pays a partition write+read round trip for both sides once
    // the build exceeds hash_memory_rows, which is where the sort-based
    // plan starts winning (the Figure 6 race). An ordered coded probe
    // (l_ok below) is never discarded for a hash join.
    // Combining hash joins pay the layout-restoring projection back to
    // the canonical merge layout; merge joins never do. Charge it here
    // so the decision threshold matches the recorded estimates.
    const double grace = model.GraceHashJoin(lc.rows, rc.rows, out_rows,
                                             ls.total_columns(),
                                             rs.total_columns()) +
                         (combines ? model.Project(out_rows) : 0.0);
    if (grace < sort_merge) {
      d.alg = PhysicalAlg::kGraceHashJoin;
      d.normalize = combines;
      d.out = OrderProperty::Unsorted();
      return d;
    }
  }
  if (hash_allowed && l_ok && options.assume_build_fits_memory &&
      rc.rows <= static_cast<double>(options.hash_memory_rows)) {
    // Sorted probe over an unsorted build with a residency vouch: the
    // order-preserving in-memory hash join (Section 4.9) versus sorting
    // only the build side. The estimate must also respect the budget
    // the vouch is about -- the operator aborts past it.
    const double in_memory_hash =
        model.OrderPreservingHashJoin(lc.rows, rc.rows, out_rows) +
        (combines ? model.Project(out_rows) : 0.0);
    if (in_memory_hash < sort_merge) {
      d.alg = PhysicalAlg::kOrderPreservingHashJoin;
      d.normalize = combines;
      return d;
    }
  }
  d.alg = PhysicalAlg::kMergeJoin;
  d.sort_left = !l_ok;
  d.sort_right = !r_ok;
  return d;
}

struct UnaryDecision {
  PhysicalAlg alg;
  bool sort_child = false;
  OrderProperty out;
};

UnaryDecision DecideAggregate(const LogicalNode& node,
                              const OrderProperty& child,
                              const PlannerOptions& options) {
  UnaryDecision d;
  if (child.SortedOn(node.group_prefix)) {
    // Sorted input: group boundaries are one integer test per row when
    // codes are present, column comparisons otherwise (Figure 4's two
    // sides). Cheapest by any estimate.
    d.alg = PhysicalAlg::kInStreamAggregate;
    d.out = OrderProperty::Sorted(node.group_prefix, child.has_ovc);
    return d;
  }
  if (node.required.interested() || options.prefer_sort_based) {
    // The parent can exploit order (or sort-based planning is forced):
    // aggregate inside the sort, collapsing duplicates at every stage
    // (Figure 5's sort-based plan). This gate stays ahead of the cost
    // model as a robustness guard: producing the order here feeds the
    // parent codes for free, while a hash aggregate would force the
    // parent to re-sort output whose duplicate density the model can
    // only guess.
    d.alg = PhysicalAlg::kInSortAggregate;
    d.out = OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
    return d;
  }
  // Order-indifferent parent: in-sort versus hash aggregation by
  // estimated cost under the memory budgets. In memory the hash
  // aggregate wins on constants; once the estimated group count
  // overflows hash_memory_rows the hash table starts spilling input
  // rows while duplicate collapse keeps the sort's spill volume bounded
  // by the group count -- the point where Figure 5's sort-based plan
  // takes over.
  const CostModel model = ModelFor(options);
  const CardEstimate cc = CardOf(*node.children[0], options.cost_constants);
  const double groups = cc.DistinctPrefix(node.group_prefix);
  const double in_sort =
      model.InSortAggregate(cc.rows, groups, node.group_prefix, groups,
                            node.schema.total_columns());
  const double hash =
      model.HashAggregate(cc.rows, groups, node.schema.total_columns());
  if (in_sort < hash) {
    d.alg = PhysicalAlg::kInSortAggregate;
    d.out = OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
    return d;
  }
  d.alg = PhysicalAlg::kHashAggregate;
  d.out = OrderProperty::Unsorted();
  return d;
}

UnaryDecision DecideDistinct(const LogicalNode& node,
                             const OrderProperty& child,
                             const PlannerOptions& options) {
  const Schema& schema = node.schema;
  UnaryDecision d;
  if (SortedWithCodesOn(child, schema)) {
    // Duplicates are rows whose code offset equals the arity: removal
    // without looking at a single column value (Section 4.4).
    d.alg = PhysicalAlg::kDedup;
    d.out = child;
    return d;
  }
  const bool keeps_payloads = schema.payload_columns() > 0;
  if (!keeps_payloads && !options.prefer_sort_based &&
      !node.required.interested()) {
    // Same open call as the aggregate above, over the full key.
    const CostModel model = ModelFor(options);
    const CardEstimate cc =
        CardOf(*node.children[0], options.cost_constants);
    const double groups = cc.DistinctPrefix(schema.key_arity());
    const double in_sort =
        model.InSortAggregate(cc.rows, groups, schema.key_arity(), groups,
                              schema.total_columns());
    const double hash =
        model.HashAggregate(cc.rows, groups, schema.total_columns());
    if (in_sort < hash) {
      d.alg = PhysicalAlg::kInSortDistinct;
      d.out = OrderProperty::Sorted(schema.key_arity(), /*ovc=*/true);
      return d;
    }
    d.alg = PhysicalAlg::kHashDistinct;
    d.out = OrderProperty::Unsorted();
    return d;
  }
  if (!keeps_payloads) {
    // Key-only distinct folds into the sort itself: each run spills at
    // most one copy per key.
    d.alg = PhysicalAlg::kInSortDistinct;
    d.out = OrderProperty::Sorted(schema.key_arity(), /*ovc=*/true);
    return d;
  }
  // DISTINCT that carries payload columns keeps the first surviving row
  // per key; that is inherently order-based here: sort, then code-only
  // duplicate removal.
  d.alg = PhysicalAlg::kDedup;
  d.sort_child = true;
  d.out = OrderProperty::Sorted(schema.key_arity(), /*ovc=*/true);
  return d;
}

UnaryDecision DecideSort(const LogicalNode& node, const OrderProperty& child,
                         const PlannerOptions& options) {
  UnaryDecision d;
  if (SortedWithCodesOn(child, node.schema)) {
    // The planner's key property payoff: input already sorted and coded
    // means the sort disappears entirely -- zero cost beats any resort.
    d.alg = PhysicalAlg::kElidedSort;
    d.out = child;
    return d;
  }
  d.alg = PhysicalAlg::kSort;
  d.out = SortOutput(node.schema, options.sort_config);
  return d;
}

UnaryDecision DecideTopK(const LogicalNode& node, const OrderProperty& child,
                         const PlannerOptions& options) {
  UnaryDecision d;
  d.alg = PhysicalAlg::kLimit;
  if (SortedWithCodesOn(child, node.schema)) {
    d.out = child;
  } else {
    d.sort_child = true;
    d.out = SortOutput(node.schema, options.sort_config);
  }
  return d;
}

/// Mirrors ProjectOperator's order-preservation rule: the output key
/// columns must be exactly the leading input key columns with matching
/// directions, and the input must be sorted with codes.
OrderProperty ProjectOutput(const LogicalNode& node,
                            const OrderProperty& child) {
  const Schema& in = node.children[0]->schema;
  const Schema& out = node.schema;
  if (!SortedWithCodesOn(child, in) || out.key_arity() > in.key_arity()) {
    return OrderProperty::Unsorted();
  }
  for (uint32_t i = 0; i < out.key_arity(); ++i) {
    if (node.mapping[i] != i || out.direction(i) != in.direction(i)) {
      return OrderProperty::Unsorted();
    }
  }
  return OrderProperty::Sorted(out.key_arity(), /*ovc=*/true);
}

OrderProperty FilterOutput(const OrderProperty& child) {
  // FilterOperator passes order through and re-derives codes by the filter
  // theorem when the child carries them.
  return OrderProperty::Sorted(child.sorted_prefix,
                               child.sorted() && child.has_ovc);
}

/// The single rule table behind order-property inference: the property
/// this node's chosen physical form delivers, given its children's
/// properties. Both the public recursive InferOrderProperty and the
/// planner's memoizing AnnotateInferred pass are thin wrappers over this,
/// so the two can never disagree.
OrderProperty NodeOutputProperty(const LogicalNode& node,
                                 const OrderProperty* child_props,
                                 const PlannerOptions& options) {
  switch (node.op) {
    case LogicalOp::kScan:
      return node.source.order;
    case LogicalOp::kFilter:
      return FilterOutput(child_props[0]);
    case LogicalOp::kProject:
      return ProjectOutput(node, child_props[0]);
    case LogicalOp::kJoin:
      return DecideJoin(node, child_props[0], child_props[1], options).out;
    case LogicalOp::kAggregate:
      return DecideAggregate(node, child_props[0], options).out;
    case LogicalOp::kDistinct:
      return DecideDistinct(node, child_props[0], options).out;
    case LogicalOp::kSetOp:
      return OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
    case LogicalOp::kSort:
      return DecideSort(node, child_props[0], options).out;
    case LogicalOp::kTopK:
      return DecideTopK(node, child_props[0], options).out;
    case LogicalOp::kLimit:
      // Truncation preserves whatever the child delivers.
      return child_props[0];
  }
  return OrderProperty::Unsorted();
}

std::string IndentBlock(const std::string& block) {
  std::string out;
  out.reserve(block.size() + 32);
  size_t start = 0;
  while (start < block.size()) {
    size_t end = block.find('\n', start);
    if (end == std::string::npos) end = block.size() - 1;
    out += "  ";
    out.append(block, start, end - start + 1);
    start = end + 1;
  }
  return out;
}

const char* SplitPolicyName(SplitExchange::Policy policy) {
  switch (policy) {
    case SplitExchange::Policy::kHashKey:
      return "hash";
    case SplitExchange::Policy::kRoundRobin:
      return "round-robin";
    case SplitExchange::Policy::kRangeFirstColumn:
      return "range";
  }
  return "unknown";
}

/// The explain-line prefix shared by EXPLAIN and the profile's node
/// labels: "alg(detail) [order]".
std::string ProfileLabel(PhysicalAlg alg, const OrderProperty& prop,
                         const std::string& detail) {
  std::string line = PhysicalAlgName(alg);
  if (!detail.empty()) line += "(" + detail + ")";
  line += " [" + prop.ToString() + "]";
  return line;
}

std::string ExplainLine(PhysicalAlg alg, const OrderProperty& prop,
                        const std::string& detail, const NodeEstimate& est) {
  return ProfileLabel(alg, prop, detail) + " " + RenderEstimate(est) + "\n";
}

}  // namespace

OrderProperty InferOrderProperty(const LogicalNode& node,
                                 const PlannerOptions& options) {
  OrderProperty child_props[2];
  for (size_t i = 0; i < node.children.size() && i < 2; ++i) {
    child_props[i] = InferOrderProperty(*node.children[i], options);
  }
  return NodeOutputProperty(node, child_props, options);
}

namespace {

/// Bottom-up pass caching each node's decision-rule property in
/// `node->inferred` -- the memoized form of InferOrderProperty (one
/// NodeOutputProperty call per node for the whole tree).
OrderProperty AnnotateInferred(LogicalNode* node,
                               const PlannerOptions& options) {
  OrderProperty child_props[2];
  for (size_t i = 0; i < node->children.size() && i < 2; ++i) {
    child_props[i] = AnnotateInferred(node->children[i].get(), options);
  }
  node->inferred = NodeOutputProperty(*node, child_props, options);
  return node->inferred;
}

}  // namespace

Planner::Planner(QueryCounters* counters, TempFileManager* temp,
                 PlannerOptions options)
    : counters_(counters),
      temp_(temp),
      options_(std::move(options)),
      cost_model_(options_.cost_constants, options_.sort_config,
                  options_.hash_memory_rows) {}

PhysicalPlan Planner::Plan(LogicalNode* root) {
  InferOrderRequirements(root);
  // Cardinalities first: the decision rules behind the inferred-property
  // pass consult them.
  AnnotateCardinalities(root, options_.cost_constants);
  AnnotateInferred(root, options_);
  PhysicalPlan plan;
  if (options_.profile) plan.profile_ = std::make_unique<QueryProfile>();
  Built built = BuildNode(root, &plan, 0, counters_);
  plan.root_ = built.op;
  plan.root_order_ = built.prop;
  plan.root_estimate_ = built.est;
  if (plan.profile_) plan.profile_->SetRoot(built.pnode);
  // The operator contract (exec/operator.h) must agree with what the
  // decision rules predicted; a mismatch is a planner bug.
  OVC_DCHECK(built.op->sorted() == built.prop.sorted());
  OVC_DCHECK(built.op->has_ovc() == built.prop.has_ovc);
  return plan;
}

Planner::Meter Planner::NewMeter(PhysicalPlan* plan, QueryCounters* fallback) {
  Meter m;
  QueryProfile* profile = plan->profile();
  if (profile == nullptr) {
    m.ctrs = fallback;
    return m;
  }
  m.node = profile->AddNode();
  m.slice = profile->AddSlice(m.node);
  m.ctrs = &m.slice->counters;
  return m;
}

Operator* Planner::Wrap(PhysicalPlan* plan, Operator* op, const Meter& m) {
  if (m.slice == nullptr) return op;
  return plan->Own(std::make_unique<ProfiledOperator>(op, m.slice));
}

void Planner::SetProfileLine(PhysicalPlan* plan, const Meter& m,
                             PhysicalAlg alg, const std::string& detail,
                             const OrderProperty& prop,
                             const NodeEstimate& est,
                             const std::vector<int>& children,
                             const std::string& table) {
  if (m.node < 0) return;
  plan->profile()->SetLine(m.node, ProfileLabel(alg, prop, detail), est.rows,
                           est.cost, children, table);
}

Planner::Built Planner::BuildRangeScan(const LogicalNode& filter,
                                       PhysicalPlan* plan,
                                       QueryCounters* ctrs) {
  const LogicalNode& scan = *filter.children[0];
  const Meter m = NewMeter(plan, ctrs);
  Built built;
  built.op = Wrap(plan,
                  plan->Own(scan.source.range_factory(*filter.key_range,
                                                      m.ctrs)),
                  m);
  built.prop = scan.source.order;
  const CardEstimate table = CardOf(scan, options_.cost_constants);
  const double rows = KeyRangeRows(filter, table, options_.cost_constants);
  built.est = {rows, cost_model_.RangeScan(table.rows, rows)};
  plan->RecordAlg(PhysicalAlg::kScan, built.est);
  const std::string detail = scan.source.name + " range " +
                             filter.key_range->text;
  built.explain = ExplainLine(PhysicalAlg::kScan, built.prop, detail,
                              built.est);
  // No feedback table: the rows a range returns say nothing about the
  // table's size.
  SetProfileLine(plan, m, PhysicalAlg::kScan, detail, built.prop, built.est,
                 {});
  built.pnode = m.node;
  return built;
}

Planner::Built Planner::InsertSort(Built child,
                                   const LogicalNode* logical_child,
                                   PhysicalPlan* plan, int depth,
                                   QueryCounters* ctrs) {
  (void)depth;
  // Planner-inserted sorts always feed code-consuming operators (merge
  // join, dedup, set operation), so the configured sort must deliver
  // codes; catch a code-free ablation config here, at plan time, instead
  // of deep inside a downstream operator's precondition check.
  OVC_CHECK(options_.sort_config.use_ovc ||
            options_.sort_config.naive_output_codes);
  const Meter m = NewMeter(plan, ctrs);
  auto sort = std::make_unique<SortOperator>(child.op, m.ctrs, temp_,
                                             options_.sort_config);
  const Schema& schema = child.op->schema();
  const CardEstimate cc = CardOf(*logical_child, options_.cost_constants);
  Built built;
  built.prop = SortOutput(schema, options_.sort_config);
  built.est.rows = child.est.rows;
  built.est.cost = child.est.cost + SortCostFor(cost_model_, cc, schema);
  built.op = Wrap(plan, plan->Own(std::move(sort)), m);
  built.explain = ExplainLine(PhysicalAlg::kSort, built.prop, "inserted",
                              built.est) +
                  IndentBlock(child.explain);
  SetProfileLine(plan, m, PhysicalAlg::kSort, "inserted", built.prop,
                 built.est, {child.pnode});
  built.pnode = m.node;
  ++plan->inserted_sorts_;
  plan->RecordAlg(PhysicalAlg::kSort, built.est);
  return built;
}

Operator* Planner::BuildExchangeRegion(
    const std::vector<Operator*>& children,
    const std::vector<QueryCounters*>& child_counters,
    const std::vector<NodeEstimate>& child_ests,
    const NodeEstimate& region_est, SplitExchange::Policy policy,
    uint32_t hash_prefix, QueryCounters* merge_counters, PhysicalPlan* plan,
    const std::function<std::unique_ptr<Operator>(
        const std::vector<Operator*>& parts, QueryCounters* wc)>&
        make_worker,
    const RegionProfile& rp, Meter* merge_meter) {
  OVC_CHECK(children.size() == child_counters.size());
  OVC_CHECK(children.size() == child_ests.size());
  QueryProfile* profile = plan->profile();
  const uint32_t workers = options_.parallelism;
  // A split pumps the shared child from whichever worker thread pulls
  // first, all under its pump mutex -- so it shares the region counters
  // its child subtree was built with (one instance per split, rolled up
  // after the run, never the consumer-side counters). Under profiling the
  // routing work is charged to the split's own profile node instead.
  std::vector<SplitExchange*> splits;
  std::vector<int> split_nodes;
  for (size_t c = 0; c < children.size(); ++c) {
    plan->RecordAlg(PhysicalAlg::kSplitExchange, child_ests[c]);
    QueryCounters* split_ctrs = child_counters[c];
    int snode = -1;
    if (profile != nullptr) {
      snode = profile->AddNode();
      // Slice 0 meters the routing work (hash computations, under the pump
      // mutex); the per-partition pull slices added below meter rows and
      // pull time, one per consuming thread.
      split_ctrs = &profile->AddSlice(snode)->counters;
      profile->SetLine(snode,
                       ProfileLabel(PhysicalAlg::kSplitExchange, rp.part_prop,
                                    SplitPolicyName(policy)),
                       child_ests[c].rows, child_ests[c].cost,
                       {rp.child_pnodes[c]});
    }
    split_nodes.push_back(snode);
    splits.push_back(plan->OwnSplit(std::make_unique<SplitExchange>(
        children[c], workers, policy, split_ctrs,
        std::vector<uint64_t>{}, hash_prefix)));
  }
  int wnode = -1;
  if (profile != nullptr) {
    wnode = profile->AddNode();
    profile->SetLine(
        wnode, ProfileLabel(rp.worker_alg, rp.worker_prop, rp.worker_detail),
        rp.worker_est.rows, rp.worker_est.cost, split_nodes);
  }
  std::vector<Operator*> worker_ops;
  for (uint32_t w = 0; w < workers; ++w) {
    std::vector<Operator*> parts;
    parts.reserve(splits.size());
    for (size_t c = 0; c < splits.size(); ++c) {
      Operator* part = splits[c]->partition(w);
      if (profile != nullptr) {
        // One slice per partition stream: each stream is pulled by exactly
        // one worker, and their row counts sum to the split's output.
        part = plan->Own(std::make_unique<ProfiledOperator>(
            part, profile->AddSlice(split_nodes[c])));
      }
      parts.push_back(part);
    }
    QueryCounters* wc = nullptr;
    OperatorStats* wslice = nullptr;
    if (profile != nullptr) {
      // The worker's stats slice doubles as its counters instance,
      // preserving the one-instance-per-producer-thread contract.
      wslice = profile->AddSlice(wnode);
      wc = &wslice->counters;
    } else {
      wc = plan->NewWorkerCounters();
    }
    Operator* worker = plan->Own(make_worker(parts, wc));
    if (wslice != nullptr) {
      worker = plan->Own(std::make_unique<ProfiledOperator>(worker, wslice));
    }
    worker_ops.push_back(worker);
  }
  plan->RecordAlg(PhysicalAlg::kMergeExchange, region_est);
  if (workers > plan->parallel_workers_) plan->parallel_workers_ = workers;
  Meter mm;
  mm.ctrs = merge_counters;
  if (profile != nullptr) {
    mm.node = profile->AddNode();
    mm.slice = profile->AddSlice(mm.node);
    mm.ctrs = &mm.slice->counters;
    profile->SetLine(mm.node,
                     ProfileLabel(PhysicalAlg::kMergeExchange, rp.worker_prop,
                                  std::to_string(workers) + " workers"),
                     region_est.rows, region_est.cost, {wnode});
  }
  // The caller wraps the returned exchange with this meter (after any
  // normalizing projection), so consumer-side pull time and output rows
  // land on the merge node.
  *merge_meter = mm;
  return plan->Own(std::make_unique<MergeExchange>(worker_ops, mm.ctrs,
                                                   options_.exchange));
}

namespace {

/// Explain block for an exchange-parallel region: merge-exchange over
/// `workers` copies of the worker operator (`worker_line`), fed by one
/// splitting exchange per input subtree. `part_prop` is the per-partition
/// property the split preserves (the filter theorem keeps a sorted coded
/// child sorted and coded within every partition).
std::string ExplainParallelRegion(uint32_t workers,
                                  const OrderProperty& out_prop,
                                  const NodeEstimate& region_est,
                                  const std::string& worker_line,
                                  SplitExchange::Policy policy,
                                  const OrderProperty& part_prop,
                                  const std::vector<std::string>& inputs,
                                  const std::vector<NodeEstimate>& in_ests) {
  std::string split_block;
  for (size_t i = 0; i < inputs.size(); ++i) {
    split_block += ExplainLine(PhysicalAlg::kSplitExchange, part_prop,
                               SplitPolicyName(policy), in_ests[i]) +
                   IndentBlock(inputs[i]);
  }
  return ExplainLine(PhysicalAlg::kMergeExchange, out_prop,
                     std::to_string(workers) + " workers", region_est) +
         IndentBlock(worker_line + IndentBlock(split_block));
}

}  // namespace

Planner::Built Planner::BuildNode(LogicalNode* node, PhysicalPlan* plan,
                                  int depth, QueryCounters* ctrs) {
  Built result;
  std::string explain;
  const CostModel& model = cost_model_;
  const double out_rows = node->card.rows;

  switch (node->op) {
    case LogicalOp::kScan: {
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan, plan->Own(node->source.factory()), m);
      result.prop = node->source.order;
      result.est = {out_rows, model.Scan(out_rows)};
      plan->RecordAlg(PhysicalAlg::kScan, result.est);
      explain = ExplainLine(PhysicalAlg::kScan, result.prop,
                            node->source.name, result.est);
      SetProfileLine(plan, m, PhysicalAlg::kScan, node->source.name,
                     result.prop, result.est, {}, node->source.name);
      result.pnode = m.node;
      break;
    }

    case LogicalOp::kFilter: {
      LogicalNode* input = node->children[0].get();
      // A key range over a seekable scan always seeks: the filter stays on
      // top with the whole predicate, so no residual is split off.
      Built child = node->key_range.has_value() &&
                            input->op == LogicalOp::kScan &&
                            input->source.range_factory != nullptr
                        ? BuildRangeScan(*node, plan, ctrs)
                        : BuildNode(input, plan, depth + 1, ctrs);
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<FilterOperator>(
                           child.op, node->predicate, node->block_predicate)),
                       m);
      result.prop = FilterOutput(child.prop);
      result.est = {out_rows, child.est.cost +
                                  model.Filter(child.est.rows, out_rows)};
      plan->RecordAlg(PhysicalAlg::kFilter, result.est);
      explain = ExplainLine(PhysicalAlg::kFilter, result.prop,
                            node->predicate_text, result.est) +
                IndentBlock(child.explain);
      SetProfileLine(plan, m, PhysicalAlg::kFilter, node->predicate_text,
                     result.prop, result.est, {child.pnode});
      result.pnode = m.node;
      break;
    }

    case LogicalOp::kProject: {
      Built child = BuildNode(node->children[0].get(), plan, depth + 1, ctrs);
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<ProjectOperator>(
                           child.op, node->schema, node->mapping)),
                       m);
      result.prop = ProjectOutput(*node, child.prop);
      result.est = {out_rows, child.est.cost + model.Project(out_rows)};
      plan->RecordAlg(PhysicalAlg::kProject, result.est);
      explain = ExplainLine(PhysicalAlg::kProject, result.prop, "",
                            result.est) +
                IndentBlock(child.explain);
      SetProfileLine(plan, m, PhysicalAlg::kProject, "", result.prop,
                     result.est, {child.pnode});
      result.pnode = m.node;
      break;
    }

    case LogicalOp::kJoin: {
      // Pre-decide on the *inferred* child properties (inference runs the
      // same decision rules, so it agrees with the post-build decision):
      // a parallel merge join's input subtrees -- including any inserted
      // sorts -- execute on producer threads under their split's pump
      // mutex, so each side must be built with its own region counters
      // rather than the consumer thread's.
      const bool pre_parallel_join =
          ParallelEnabled() &&
          DecideJoin(*node, node->children[0]->inferred,
                     node->children[1]->inferred, options_)
                  .alg == PhysicalAlg::kMergeJoin;
      QueryCounters* left_ctrs =
          pre_parallel_join ? plan->NewWorkerCounters() : ctrs;
      QueryCounters* right_ctrs =
          pre_parallel_join ? plan->NewWorkerCounters() : ctrs;
      Built left = BuildNode(node->children[0].get(), plan, depth + 1,
                             left_ctrs);
      Built right = BuildNode(node->children[1].get(), plan, depth + 1,
                              right_ctrs);
      JoinDecision d = DecideJoin(*node, left.prop, right.prop, options_);
      if (d.sort_left) {
        left = InsertSort(std::move(left), node->children[0].get(), plan,
                          depth + 1, left_ctrs);
      }
      if (d.sort_right) {
        right = InsertSort(std::move(right), node->children[1].get(), plan,
                           depth + 1, right_ctrs);
      }
      double alg_cost = 0;
      switch (d.alg) {
        case PhysicalAlg::kMergeJoin:
          alg_cost = model.MergeJoin(left.est.rows, right.est.rows, out_rows);
          break;
        case PhysicalAlg::kOrderPreservingHashJoin:
          alg_cost = model.OrderPreservingHashJoin(left.est.rows,
                                                   right.est.rows, out_rows);
          break;
        case PhysicalAlg::kGraceHashJoin:
          alg_cost = model.GraceHashJoin(
              left.est.rows, right.est.rows, out_rows,
              node->children[0]->schema.total_columns(),
              node->children[1]->schema.total_columns());
          break;
        default:
          OVC_CHECK(false);
      }
      // The normalize projection below (hash joins of combining types) is
      // part of this node's physical form: fold its cost in before the
      // estimate is recorded anywhere.
      const double normalize_cost =
          d.normalize ? model.Project(out_rows) : 0.0;
      result.est = {out_rows, left.est.cost + right.est.cost + alg_cost +
                                  normalize_cost};
      Operator* join = nullptr;
      const bool parallel_join =
          pre_parallel_join && d.alg == PhysicalAlg::kMergeJoin;
      NodeEstimate left_split = left.est;
      NodeEstimate right_split = right.est;
      // Cumulative estimate of one worker's merge join (the plan node
      // inserted between the splits and the merging exchange).
      NodeEstimate join_worker_est = result.est;
      if (parallel_join) {
        left_split.cost +=
            model.SplitExchange(left.est.rows, /*hash_policy=*/true);
        right_split.cost +=
            model.SplitExchange(right.est.rows, /*hash_policy=*/true);
        join_worker_est.cost =
            left_split.cost + right_split.cost + alg_cost;
        result.est.cost = join_worker_est.cost +
                          model.MergeExchange(out_rows,
                                              options_.parallelism);
      }
      // The meter of this node's plan line: the merge-exchange meter for
      // the parallel shape (set by BuildExchangeRegion), a fresh serial
      // meter otherwise. The final Wrap sits outside any normalizing
      // projection, so the line's rows/time cover the node's full
      // physical form.
      Meter jm;
      switch (d.alg) {
        case PhysicalAlg::kMergeJoin:
          if (parallel_join) {
            // Co-partitioned parallel merge join: hash-split both (sorted,
            // coded) inputs on the join key with the same hash, so each
            // key lands in the same partition index on both sides; one
            // merge join per partition pair; merge-exchange restores the
            // single sorted coded output stream.
            const JoinType type = node->join_type;
            RegionProfile rp;
            rp.child_pnodes = {left.pnode, right.pnode};
            rp.worker_alg = d.alg;
            rp.worker_detail =
                std::string(JoinTypeName(node->join_type)) + ", per worker";
            rp.worker_prop = d.out;
            rp.worker_est = join_worker_est;
            rp.part_prop = OrderProperty::Sorted(
                node->children[0]->schema.key_arity(), /*ovc=*/true);
            join = BuildExchangeRegion(
                {left.op, right.op}, {left_ctrs, right_ctrs},
                {left_split, right_split}, result.est,
                SplitExchange::Policy::kHashKey,
                node->children[0]->schema.key_arity(), ctrs, plan,
                [type](const std::vector<Operator*>& parts,
                       QueryCounters* wc) {
                  return std::make_unique<MergeJoin>(parts[0], parts[1],
                                                     type, wc);
                },
                rp, &jm);
          } else {
            plan->RecordAlg(d.alg, result.est);
            jm = NewMeter(plan, ctrs);
            join = plan->Own(std::make_unique<MergeJoin>(
                left.op, right.op, node->join_type, jm.ctrs));
          }
          break;
        case PhysicalAlg::kOrderPreservingHashJoin:
          plan->RecordAlg(d.alg, result.est);
          jm = NewMeter(plan, ctrs);
          join = plan->Own(std::make_unique<OrderPreservingHashJoin>(
              left.op, right.op, node->children[0]->schema.key_arity(),
              ToHashType(node->join_type), options_.hash_memory_rows,
              jm.ctrs));
          break;
        case PhysicalAlg::kGraceHashJoin:
          plan->RecordAlg(d.alg, result.est);
          jm = NewMeter(plan, ctrs);
          join = plan->Own(std::make_unique<GraceHashJoin>(
              left.op, right.op, node->children[0]->schema.key_arity(),
              ToHashType(node->join_type), options_.hash_memory_rows,
              jm.ctrs, temp_, options_.hash_partitions, options_.fallback,
              options_.sort_config));
          break;
        default:
          OVC_CHECK(false);
      }
      if (parallel_join) {
        // BuildExchangeRegion recorded the region's algorithms; record
        // the worker join itself so Uses() still sees it.
        plan->RecordAlgBeforeLast(d.alg, join_worker_est);
      }
      if (d.normalize) {
        // Hash joins lay rows out as (probe keys, probe payloads, all
        // build columns, indicator); project back to the canonical merge
        // layout (key, left payloads, right payloads, indicator) so every
        // physical alternative yields identical rows.
        const Schema& ls = node->children[0]->schema;
        const Schema& rs = node->children[1]->schema;
        const uint32_t key = ls.key_arity();
        std::vector<uint32_t> mapping;
        for (uint32_t c = 0; c < key + ls.payload_columns(); ++c) {
          mapping.push_back(c);  // probe keys + probe payloads
        }
        const uint32_t build_base = key + ls.payload_columns();
        for (uint32_t c = 0; c < rs.payload_columns(); ++c) {
          mapping.push_back(build_base + key + c);  // build payloads
        }
        mapping.push_back(build_base + rs.total_columns());  // indicator
        join = plan->Own(
            std::make_unique<ProjectOperator>(join, node->schema, mapping));
      }
      result.op = Wrap(plan, join, jm);
      result.prop = d.out;
      if (!parallel_join) {
        SetProfileLine(plan, jm, d.alg, JoinTypeName(node->join_type),
                       result.prop, result.est, {left.pnode, right.pnode});
      }
      result.pnode = jm.node;
      if (parallel_join) {
        explain = ExplainParallelRegion(
            options_.parallelism, result.prop, result.est,
            ExplainLine(d.alg, result.prop,
                        std::string(JoinTypeName(node->join_type)) +
                            ", per worker",
                        join_worker_est),
            SplitExchange::Policy::kHashKey,
            OrderProperty::Sorted(node->children[0]->schema.key_arity(),
                                  /*ovc=*/true),
            {left.explain, right.explain}, {left_split, right_split});
      } else {
        explain = ExplainLine(d.alg, result.prop,
                              JoinTypeName(node->join_type), result.est) +
                  IndentBlock(left.explain) + IndentBlock(right.explain);
      }
      break;
    }

    case LogicalOp::kAggregate: {
      // Parallel aggregation: hash-split on the grouping prefix co-locates
      // every group in exactly one partition, so per-worker aggregation is
      // exact and the merge-exchange output needs no re-aggregation. The
      // in-stream flavor additionally needs child codes (split partitions
      // keep them by the filter theorem; the merge consumes worker codes),
      // the in-sort flavor produces its own. Pre-decide on the inferred
      // child property: the child subtree of a split executes on producer
      // threads, so it is built with region counters.
      const auto parallel_agg_for = [&](const OrderProperty& child_prop) {
        if (!ParallelEnabled() || node->group_prefix < 1) return false;
        UnaryDecision p = DecideAggregate(*node, child_prop, options_);
        return (p.alg == PhysicalAlg::kInStreamAggregate &&
                child_prop.has_ovc) ||
               p.alg == PhysicalAlg::kInSortAggregate;
      };
      const bool pre_parallel_agg =
          parallel_agg_for(node->children[0]->inferred);
      QueryCounters* region_ctrs =
          pre_parallel_agg ? plan->NewWorkerCounters() : ctrs;
      Built child = BuildNode(node->children[0].get(), plan, depth + 1,
                              region_ctrs);
      UnaryDecision d = DecideAggregate(*node, child.prop, options_);
      const bool parallel_agg =
          pre_parallel_agg && parallel_agg_for(child.prop);
      double alg_cost = 0;
      switch (d.alg) {
        case PhysicalAlg::kInStreamAggregate:
          alg_cost = model.InStreamAggregate(child.est.rows, out_rows,
                                             node->group_prefix,
                                             child.prop.has_ovc);
          break;
        case PhysicalAlg::kInSortAggregate:
          alg_cost = model.InSortAggregate(child.est.rows, out_rows,
                                           node->group_prefix, out_rows,
                                           node->schema.total_columns());
          break;
        case PhysicalAlg::kHashAggregate:
          alg_cost = model.HashAggregate(child.est.rows, out_rows,
                                         node->schema.total_columns());
          break;
        default:
          OVC_CHECK(false);
      }
      result.est = {out_rows, child.est.cost + alg_cost};
      NodeEstimate agg_split = child.est;
      NodeEstimate agg_worker_est = result.est;
      if (parallel_agg) {
        agg_split.cost +=
            model.SplitExchange(child.est.rows, /*hash_policy=*/true);
        agg_worker_est.cost = agg_split.cost + alg_cost;
        result.est.cost =
            agg_worker_est.cost +
            model.MergeExchange(out_rows, options_.parallelism);
        const uint32_t group_prefix = node->group_prefix;
        const std::vector<AggregateSpec>& aggregates = node->aggregates;
        const bool in_stream = d.alg == PhysicalAlg::kInStreamAggregate;
        TempFileManager* temp = temp_;
        const SortConfig& sort_config = options_.sort_config;
        RegionProfile rp;
        rp.child_pnodes = {child.pnode};
        rp.worker_alg = d.alg;
        rp.worker_detail =
            "group=" + std::to_string(node->group_prefix) + ", per worker";
        rp.worker_prop = d.out;
        rp.worker_est = agg_worker_est;
        rp.part_prop = child.prop;
        Meter am;
        result.op = Wrap(
            plan,
            BuildExchangeRegion(
                {child.op}, {region_ctrs}, {agg_split}, result.est,
                SplitExchange::Policy::kHashKey, group_prefix, ctrs, plan,
                [=](const std::vector<Operator*>& parts,
                    QueryCounters* wc) -> std::unique_ptr<Operator> {
                  if (in_stream) {
                    return std::make_unique<InStreamAggregate>(
                        parts[0], group_prefix, aggregates, wc);
                  }
                  return std::make_unique<InSortAggregate>(
                      parts[0], group_prefix, aggregates, wc, temp,
                      sort_config);
                },
                rp, &am),
            am);
        result.pnode = am.node;
        plan->RecordAlgBeforeLast(d.alg, agg_worker_est);
      } else {
        plan->RecordAlg(d.alg, result.est);
        const Meter m = NewMeter(plan, ctrs);
        switch (d.alg) {
          case PhysicalAlg::kInStreamAggregate: {
            InStreamAggregate::Options agg_options;
            agg_options.use_ovc_boundaries = child.prop.has_ovc;
            result.op = plan->Own(std::make_unique<InStreamAggregate>(
                child.op, node->group_prefix, node->aggregates, m.ctrs,
                agg_options));
            break;
          }
          case PhysicalAlg::kInSortAggregate:
            result.op = plan->Own(std::make_unique<InSortAggregate>(
                child.op, node->group_prefix, node->aggregates, m.ctrs,
                temp_, options_.sort_config));
            break;
          case PhysicalAlg::kHashAggregate:
            result.op = plan->Own(std::make_unique<HashAggregate>(
                child.op, node->group_prefix, node->aggregates,
                options_.hash_memory_rows, m.ctrs, temp_,
                options_.hash_partitions, options_.fallback,
                options_.sort_config));
            break;
          default:
            OVC_CHECK(false);
        }
        result.op = Wrap(plan, result.op, m);
        SetProfileLine(plan, m, d.alg,
                       "group=" + std::to_string(node->group_prefix), d.out,
                       result.est, {child.pnode});
        result.pnode = m.node;
      }
      result.prop = d.out;
      if (parallel_agg) {
        explain = ExplainParallelRegion(
            options_.parallelism, result.prop, result.est,
            ExplainLine(d.alg, result.prop,
                        "group=" + std::to_string(node->group_prefix) +
                            ", per worker",
                        agg_worker_est),
            SplitExchange::Policy::kHashKey, child.prop, {child.explain},
            {agg_split});
      } else {
        explain = ExplainLine(d.alg, result.prop,
                              "group=" + std::to_string(node->group_prefix),
                              result.est) +
                  IndentBlock(child.explain);
      }
      break;
    }

    case LogicalOp::kDistinct: {
      Built child = BuildNode(node->children[0].get(), plan, depth + 1, ctrs);
      UnaryDecision d = DecideDistinct(*node, child.prop, options_);
      if (d.sort_child) {
        child = InsertSort(std::move(child), node->children[0].get(), plan,
                           depth + 1, ctrs);
      }
      double alg_cost = 0;
      switch (d.alg) {
        case PhysicalAlg::kDedup:
          alg_cost = model.Dedup(child.est.rows);
          break;
        case PhysicalAlg::kInSortDistinct:
          alg_cost = model.InSortAggregate(child.est.rows, out_rows,
                                           node->schema.key_arity(),
                                           out_rows,
                                           node->schema.total_columns());
          break;
        case PhysicalAlg::kHashDistinct:
          alg_cost = model.HashAggregate(child.est.rows, out_rows,
                                         node->schema.total_columns());
          break;
        default:
          OVC_CHECK(false);
      }
      result.est = {out_rows, child.est.cost + alg_cost};
      plan->RecordAlg(d.alg, result.est);
      const Meter m = NewMeter(plan, ctrs);
      switch (d.alg) {
        case PhysicalAlg::kDedup:
          result.op = plan->Own(std::make_unique<DedupOperator>(child.op));
          break;
        case PhysicalAlg::kInSortDistinct:
          result.op = plan->Own(std::make_unique<InSortAggregate>(
              child.op, node->schema.key_arity(),
              std::vector<AggregateSpec>(), m.ctrs, temp_,
              options_.sort_config));
          break;
        case PhysicalAlg::kHashDistinct:
          result.op = plan->Own(std::make_unique<HashAggregate>(
              child.op, node->schema.key_arity(),
              std::vector<AggregateSpec>(), options_.hash_memory_rows,
              m.ctrs, temp_, options_.hash_partitions, options_.fallback,
              options_.sort_config));
          break;
        default:
          OVC_CHECK(false);
      }
      result.op = Wrap(plan, result.op, m);
      result.prop = d.out;
      explain = ExplainLine(d.alg, result.prop, "", result.est) +
                IndentBlock(child.explain);
      SetProfileLine(plan, m, d.alg, "", result.prop, result.est,
                     {child.pnode});
      result.pnode = m.node;
      break;
    }

    case LogicalOp::kSetOp: {
      Built left = BuildNode(node->children[0].get(), plan, depth + 1, ctrs);
      Built right = BuildNode(node->children[1].get(), plan, depth + 1, ctrs);
      if (!SortedWithCodesOn(left.prop, node->children[0]->schema)) {
        left = InsertSort(std::move(left), node->children[0].get(), plan,
                          depth + 1, ctrs);
      }
      if (!SortedWithCodesOn(right.prop, node->children[1]->schema)) {
        right = InsertSort(std::move(right), node->children[1].get(), plan,
                           depth + 1, ctrs);
      }
      result.est = {out_rows,
                    left.est.cost + right.est.cost +
                        model.SetOperation(left.est.rows, right.est.rows,
                                           out_rows)};
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<SetOperation>(
                           left.op, right.op, node->set_op, node->set_all,
                           m.ctrs)),
                       m);
      result.prop =
          OrderProperty::Sorted(node->schema.key_arity(), /*ovc=*/true);
      plan->RecordAlg(PhysicalAlg::kSetOperation, result.est);
      explain = ExplainLine(PhysicalAlg::kSetOperation, result.prop,
                            node->set_all ? "all" : "distinct", result.est) +
                IndentBlock(left.explain) + IndentBlock(right.explain);
      SetProfileLine(plan, m, PhysicalAlg::kSetOperation,
                     node->set_all ? "all" : "distinct", result.prop,
                     result.est, {left.pnode, right.pnode});
      result.pnode = m.node;
      break;
    }

    case LogicalOp::kSort: {
      // The flagship parallel shape: round-robin split of the raw input,
      // partition-parallel run generation (one sort per worker, each the
      // sole producer of its codes), and a code-preserving merge-exchange
      // -- requires the configured sort to deliver output codes, which is
      // what the merging exchange consumes. Pre-decide on the inferred
      // child property so the subtree below the split is built with
      // region counters (it executes on producer threads).
      const auto parallel_sort_for = [&](const OrderProperty& child_prop) {
        if (!ParallelEnabled()) return false;
        UnaryDecision p = DecideSort(*node, child_prop, options_);
        return p.alg == PhysicalAlg::kSort && p.out.has_ovc;
      };
      const bool pre_parallel_sort =
          parallel_sort_for(node->children[0]->inferred);
      QueryCounters* region_ctrs =
          pre_parallel_sort ? plan->NewWorkerCounters() : ctrs;
      Built child = BuildNode(node->children[0].get(), plan, depth + 1,
                              region_ctrs);
      UnaryDecision d = DecideSort(*node, child.prop, options_);
      const bool parallel_sort =
          pre_parallel_sort && parallel_sort_for(child.prop);
      const double sort_cost =
          d.alg == PhysicalAlg::kElidedSort
              ? 0.0
              : SortCostFor(model, node->card, node->schema);
      result.est = {out_rows, child.est.cost + sort_cost};
      NodeEstimate sort_split = child.est;
      NodeEstimate sort_worker_est = result.est;
      if (d.alg == PhysicalAlg::kElidedSort) {
        result.op = child.op;  // the logical sort vanishes entirely
        ++plan->elided_sorts_;
        plan->RecordAlg(d.alg, result.est);
        // An elided sort is a plan line without an operator: its profile
        // node gets no stats slice, and reports its child's actuals.
        if (QueryProfile* profile = plan->profile()) {
          result.pnode = profile->AddNode();
          profile->SetLine(result.pnode, ProfileLabel(d.alg, d.out, ""),
                           result.est.rows, result.est.cost, {child.pnode});
        }
      } else if (parallel_sort) {
        sort_split.cost +=
            model.SplitExchange(child.est.rows, /*hash_policy=*/false);
        sort_worker_est.cost = sort_split.cost + sort_cost;
        result.est.cost =
            sort_worker_est.cost +
            model.MergeExchange(out_rows, options_.parallelism);
        TempFileManager* temp = temp_;
        const SortConfig& sort_config = options_.sort_config;
        RegionProfile rp;
        rp.child_pnodes = {child.pnode};
        rp.worker_alg = d.alg;
        rp.worker_detail = "per worker";
        rp.worker_prop = d.out;
        rp.worker_est = sort_worker_est;
        rp.part_prop = child.prop;
        Meter sm;
        result.op = Wrap(
            plan,
            BuildExchangeRegion(
                {child.op}, {region_ctrs}, {sort_split}, result.est,
                SplitExchange::Policy::kRoundRobin, 0, ctrs, plan,
                [temp, &sort_config](const std::vector<Operator*>& parts,
                                     QueryCounters* wc) {
                  return std::make_unique<SortOperator>(parts[0], wc, temp,
                                                        sort_config);
                },
                rp, &sm),
            sm);
        result.pnode = sm.node;
        plan->RecordAlgBeforeLast(d.alg, sort_worker_est);
        ++plan->explicit_sorts_;
      } else {
        plan->RecordAlg(d.alg, result.est);
        const Meter m = NewMeter(plan, ctrs);
        result.op = Wrap(plan,
                         plan->Own(std::make_unique<SortOperator>(
                             child.op, m.ctrs, temp_, options_.sort_config)),
                         m);
        SetProfileLine(plan, m, d.alg, "", d.out, result.est, {child.pnode});
        result.pnode = m.node;
        ++plan->explicit_sorts_;
      }
      result.prop = d.out;
      if (parallel_sort) {
        explain = ExplainParallelRegion(
            options_.parallelism, result.prop, result.est,
            ExplainLine(d.alg, result.prop, "per worker", sort_worker_est),
            SplitExchange::Policy::kRoundRobin, child.prop, {child.explain},
            {sort_split});
      } else {
        explain = ExplainLine(d.alg, result.prop, "", result.est) +
                  IndentBlock(child.explain);
      }
      break;
    }

    case LogicalOp::kTopK: {
      Built child = BuildNode(node->children[0].get(), plan, depth + 1, ctrs);
      UnaryDecision d = DecideTopK(*node, child.prop, options_);
      Operator* input = child.op;
      if (d.sort_child) {
        child = InsertSort(std::move(child), node->children[0].get(), plan,
                           depth + 1, ctrs);
        input = child.op;
      }
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(
          plan, plan->Own(std::make_unique<LimitOperator>(input, node->limit)),
          m);
      result.prop = d.out;
      result.est = {out_rows, child.est.cost + model.Limit(out_rows)};
      plan->RecordAlg(PhysicalAlg::kLimit, result.est);
      explain = ExplainLine(PhysicalAlg::kLimit, result.prop,
                            "k=" + std::to_string(node->limit), result.est) +
                IndentBlock(child.explain);
      SetProfileLine(plan, m, PhysicalAlg::kLimit,
                     "k=" + std::to_string(node->limit), result.prop,
                     result.est, {child.pnode});
      result.pnode = m.node;
      break;
    }

    case LogicalOp::kLimit: {
      // A bare limit (no order requested): truncate the child's stream in
      // whatever order it arrives, passing order and codes through.
      Built child = BuildNode(node->children[0].get(), plan, depth + 1, ctrs);
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<LimitOperator>(
                           child.op, node->limit)),
                       m);
      result.prop = child.prop;
      result.est = {out_rows, child.est.cost + model.Limit(out_rows)};
      plan->RecordAlg(PhysicalAlg::kLimit, result.est);
      explain = ExplainLine(PhysicalAlg::kLimit, result.prop,
                            "k=" + std::to_string(node->limit), result.est) +
                IndentBlock(child.explain);
      SetProfileLine(plan, m, PhysicalAlg::kLimit,
                     "k=" + std::to_string(node->limit), result.prop,
                     result.est, {child.pnode});
      result.pnode = m.node;
      break;
    }
  }

  OVC_DCHECK(result.op->sorted() == result.prop.sorted());
  OVC_DCHECK(result.op->has_ovc() == result.prop.has_ovc);
  result.explain = std::move(explain);
  if (depth == 0) plan->explain_ = result.explain;
  return result;
}

}  // namespace ovc::plan
