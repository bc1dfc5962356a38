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

/// Property a SortOperator delivers: sorted on the full key, with codes.
OrderProperty SortOutput(const Schema& schema) {
  return OrderProperty::Sorted(schema.key_arity(), true);
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
// Pure decision rules, shared by the analysis pass and the operator-building
// walk so the two can never disagree. They read the node's facts; the open
// calls compare cost estimates.
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

JoinDecision DecideJoin(const PlanFacts& f, const OrderProperty& left,
                        const OrderProperty& right,
                        const PlannerOptions& options) {
  const LogicalNode& node = *f.node;
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
  const CardEstimate& lc = f.children[0].card;
  const CardEstimate& rc = f.children[1].card;
  const double out_rows = f.card.rows;
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

UnaryDecision DecideAggregate(const PlanFacts& f, const OrderProperty& child,
                              const PlannerOptions& options) {
  const LogicalNode& node = *f.node;
  UnaryDecision d;
  if (child.SortedOn(node.group_prefix)) {
    // Sorted input: group boundaries are one integer test per row when
    // codes are present, column comparisons otherwise (Figure 4's two
    // sides). Cheapest by any estimate.
    d.alg = PhysicalAlg::kInStreamAggregate;
    d.out = OrderProperty::Sorted(node.group_prefix, child.has_ovc);
    return d;
  }
  if (f.required.interested() || options.prefer_sort_based) {
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
  const CardEstimate& cc = f.children[0].card;
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

UnaryDecision DecideDistinct(const PlanFacts& f, const OrderProperty& child,
                             const PlannerOptions& options) {
  const Schema& schema = f.node->schema;
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
      !f.required.interested()) {
    // Same open call as the aggregate above, over the full key.
    const CostModel model = ModelFor(options);
    const CardEstimate& cc = f.children[0].card;
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

UnaryDecision DecideSort(const LogicalNode& node, const OrderProperty& child) {
  UnaryDecision d;
  if (SortedWithCodesOn(child, node.schema)) {
    // The planner's key property payoff: input already sorted and coded
    // means the sort disappears entirely -- zero cost beats any resort.
    d.alg = PhysicalAlg::kElidedSort;
    d.out = child;
    return d;
  }
  d.alg = PhysicalAlg::kSort;
  d.out = SortOutput(node.schema);
  return d;
}

UnaryDecision DecideTopK(const LogicalNode& node, const OrderProperty& child) {
  UnaryDecision d;
  d.alg = PhysicalAlg::kLimit;
  if (SortedWithCodesOn(child, node.schema)) {
    d.out = child;
  } else {
    d.sort_child = true;
    d.out = SortOutput(node.schema);
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
/// this node's chosen physical form delivers, given its children's facts.
OrderProperty NodeOutputProperty(const PlanFacts& f,
                                 const PlannerOptions& options) {
  const LogicalNode& node = *f.node;
  const auto child = [&f](size_t i) -> const OrderProperty& {
    return f.children[i].order;
  };
  switch (node.op) {
    case LogicalOp::kScan:
      return node.source.order;
    case LogicalOp::kFilter:
      return FilterOutput(child(0));
    case LogicalOp::kProject:
      return ProjectOutput(node, child(0));
    case LogicalOp::kJoin:
      return DecideJoin(f, child(0), child(1), options).out;
    case LogicalOp::kAggregate:
      return DecideAggregate(f, child(0), options).out;
    case LogicalOp::kDistinct:
      return DecideDistinct(f, child(0), options).out;
    case LogicalOp::kSetOp:
      return OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
    case LogicalOp::kSort:
      return DecideSort(node, child(0)).out;
    case LogicalOp::kTopK:
      return DecideTopK(node, child(0)).out;
    case LogicalOp::kLimit:
      // Truncation preserves whatever the child delivers.
      return child(0);
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

/// What `node`'s input `child` should find interesting, given what the
/// parent wants of `node`.
OrderRequirement ChildRequirement(const LogicalNode& node,
                                  const LogicalNode& child,
                                  const OrderRequirement& from_parent) {
  switch (node.op) {
    case LogicalOp::kFilter:
    case LogicalOp::kLimit:
      // Order-transparent: filter and limit preserve order and codes.
      return from_parent;
    case LogicalOp::kProject: {
      // A projection can only preserve order the child provides on the key
      // prefix the mapping keeps in place; pass the parent's wish through
      // clamped to the child's arity.
      OrderRequirement down = from_parent;
      down.prefix = std::min(down.prefix, child.schema.key_arity());
      return down;
    }
    case LogicalOp::kAggregate:
      // In-stream aggregation consumes order on the grouping prefix; codes
      // make the boundary test a single integer comparison (Section 4.5).
      return OrderRequirement::Codes(node.group_prefix);
    default:
      // Merge join (on the shared key of both inputs), code-only duplicate
      // removal (Section 4.4), set operations, and a sort or top-k -- elided
      // when its input arrives sorted with codes -- all consume the child's
      // full key with codes: the classic "interesting order".
      return OrderRequirement::Codes(child.schema.key_arity());
  }
}

void Analyze(const LogicalNode& node, const OrderRequirement& required,
             const PlannerOptions& options, PlanFacts* f) {
  f->node = &node;
  f->required = required;
  f->children.resize(node.children.size());
  OVC_DCHECK(node.children.size() <= 2);
  CardEstimate child_cards[2];
  for (size_t i = 0; i < node.children.size(); ++i) {
    const LogicalNode& child = *node.children[i];
    Analyze(child, ChildRequirement(node, child, required), options,
            &f->children[i]);
    child_cards[i] = f->children[i].card;
  }
  // Cardinality first: the decision rules behind the order property
  // consult it.
  f->card = EstimateCardinality(node, child_cards, options.cost_constants);
  f->order = NodeOutputProperty(*f, options);
}

}  // namespace

PlanFacts AnalyzePlan(const LogicalNode& root, const PlannerOptions& options) {
  PlanFacts facts;
  Analyze(root, OrderRequirement::None(), options, &facts);
  return facts;
}

Planner::Planner(QueryCounters* counters, TempFileManager* temp,
                 PlannerOptions options)
    : counters_(counters),
      temp_(temp),
      options_(std::move(options)),
      cost_model_(options_.cost_constants, options_.sort_config,
                  options_.hash_memory_rows) {}

PhysicalPlan Planner::Plan(const LogicalNode* root) {
  const PlanFacts facts = AnalyzePlan(*root, options_);
  PhysicalPlan plan;
  if (options_.profile) plan.profile_ = std::make_unique<QueryProfile>();
  Built built = BuildNode(facts, &plan, counters_);
  plan.root_ = built.op;
  plan.explain_ = built.explain;
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

Planner::Built Planner::BuildRangeScan(const PlanFacts& filter,
                                       PhysicalPlan* plan,
                                       QueryCounters* ctrs) {
  const KeyRange& range = *filter.node->key_range;
  const LogicalNode& scan = *filter.node->children[0];
  const Meter m = NewMeter(plan, ctrs);
  Built built;
  built.op = Wrap(plan, plan->Own(scan.source.range_factory(range, m.ctrs)),
                  m);
  built.prop = scan.source.order;
  const CardEstimate& table = filter.children[0].card;
  const double rows =
      KeyRangeRows(*filter.node, table, options_.cost_constants);
  built.est = {rows, cost_model_.RangeScan(table.rows, rows)};
  plan->RecordAlg(PhysicalAlg::kScan, built.est);
  const std::string detail = scan.source.name + " range " + range.text;
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
                                   const PlanFacts& logical_child,
                                   PhysicalPlan* plan, QueryCounters* ctrs) {
  const Schema& schema = logical_child.node->schema;
  const OrderProperty prop = SortOutput(schema);
  const NodeEstimate est = {
      child.est.rows,
      child.est.cost + SortCostFor(cost_model_, logical_child.card, schema)};
  ++plan->inserted_sorts_;
  if (child.open()) {
    // One sort per worker above its partition stream, each the sole
    // producer of its partition's codes (the parallel ORDER BY shape).
    TempFileManager* temp = temp_;
    const SortConfig& sort_config = options_.sort_config;
    return AppendToRegion(
        {std::move(child)}, PhysicalAlg::kSort, "inserted, per worker", prop,
        est, plan,
        [temp, &sort_config](const std::vector<Operator*>& in,
                             QueryCounters* wc) {
          return std::make_unique<SortOperator>(in[0], wc, temp, sort_config);
        });
  }
  const Meter m = NewMeter(plan, ctrs);
  Built built;
  built.prop = prop;
  built.est = est;
  built.op = Wrap(plan,
                  plan->Own(std::make_unique<SortOperator>(
                      child.op, m.ctrs, temp_, options_.sort_config)),
                  m);
  built.explain = ExplainLine(PhysicalAlg::kSort, built.prop, "inserted",
                              built.est) +
                  IndentBlock(child.explain);
  SetProfileLine(plan, m, PhysicalAlg::kSort, "inserted", built.prop,
                 built.est, {child.pnode});
  built.pnode = m.node;
  plan->RecordAlg(PhysicalAlg::kSort, built.est);
  return built;
}

std::vector<QueryCounters*> Planner::RegionWorkerCounters(
    PhysicalPlan* plan) {
  std::vector<QueryCounters*> wcs;
  if (plan->profile() != nullptr) return wcs;
  for (uint32_t w = 0; w < options_.parallelism; ++w) {
    wcs.push_back(plan->NewWorkerCounters());
  }
  return wcs;
}

Planner::Built Planner::SplitRegion(Built child, QueryCounters* child_ctrs,
                                    SplitExchange::Policy policy,
                                    uint32_t hash_prefix,
                                    std::vector<QueryCounters*> worker_ctrs,
                                    PhysicalPlan* plan) {
  OVC_CHECK(!child.open());
  const uint32_t workers = options_.parallelism;
  const bool hash = policy == SplitExchange::Policy::kHashKey;
  Built region;
  region.prop = child.prop;
  region.est = {child.est.rows,
                child.est.cost + cost_model_.SplitExchange(child.est.rows,
                                                           hash)};
  region.worker_ctrs = std::move(worker_ctrs);
  region.partition_prefix = hash_prefix;  // 0 for a round-robin split
  plan->RecordAlg(PhysicalAlg::kSplitExchange, region.est);
  region.explain = ExplainLine(PhysicalAlg::kSplitExchange, region.prop,
                               SplitPolicyName(policy), region.est) +
                   IndentBlock(child.explain);
  // A split pumps the shared child from whichever worker thread pulls
  // first, all under its pump mutex -- so it shares the region counters
  // its child subtree was built with (rolled up after the run, never the
  // consumer-side counters). Under profiling the routing work is charged
  // to the split's own profile node instead: slice 0 meters the routing
  // (hash computations, under the pump mutex), and one pull slice per
  // partition stream meters rows and pull time -- each stream is pulled
  // by exactly one worker, and their row counts sum to the split's output.
  QueryProfile* profile = plan->profile();
  QueryCounters* split_ctrs = child_ctrs;
  if (profile != nullptr) {
    region.pnode = profile->AddNode();
    split_ctrs = &profile->AddSlice(region.pnode)->counters;
    profile->SetLine(region.pnode,
                     ProfileLabel(PhysicalAlg::kSplitExchange, region.prop,
                                  SplitPolicyName(policy)),
                     region.est.rows, region.est.cost, {child.pnode});
  }
  SplitExchange* split = plan->OwnSplit(std::make_unique<SplitExchange>(
      child.op, workers, policy, split_ctrs, std::vector<uint64_t>{},
      hash_prefix));
  for (uint32_t w = 0; w < workers; ++w) {
    Operator* part = split->partition(w);
    if (profile != nullptr) {
      part = plan->Own(std::make_unique<ProfiledOperator>(
          part, profile->AddSlice(region.pnode)));
    }
    region.workers.push_back(part);
  }
  if (workers > plan->parallel_workers_) plan->parallel_workers_ = workers;
  return region;
}

Planner::Built Planner::AppendToRegion(std::vector<Built> inputs,
                                       PhysicalAlg alg,
                                       const std::string& detail,
                                       const OrderProperty& prop,
                                       const NodeEstimate& est,
                                       PhysicalPlan* plan,
                                       const WorkerFactory& make) {
  QueryProfile* profile = plan->profile();
  Built region;
  region.prop = prop;
  region.est = est;
  region.worker_ctrs = inputs[0].worker_ctrs;
  region.partition_prefix = inputs[0].partition_prefix;
  plan->RecordAlg(alg, est);
  region.explain = ExplainLine(alg, prop, detail, est);
  std::vector<int> children;
  for (const Built& in : inputs) {
    OVC_CHECK(in.open() && in.workers.size() == inputs[0].workers.size());
    region.explain += IndentBlock(in.explain);
    children.push_back(in.pnode);
  }
  if (profile != nullptr) {
    region.pnode = profile->AddNode();
    profile->SetLine(region.pnode, ProfileLabel(alg, prop, detail), est.rows,
                     est.cost, children);
  }
  for (size_t w = 0; w < inputs[0].workers.size(); ++w) {
    std::vector<Operator*> in;
    for (const Built& input : inputs) in.push_back(input.workers[w]);
    // Under profiling each worker's stats slice doubles as its counters
    // instance, preserving the one-instance-per-producer-thread contract.
    OperatorStats* slice =
        profile != nullptr ? profile->AddSlice(region.pnode) : nullptr;
    QueryCounters* wc =
        slice != nullptr ? &slice->counters : region.worker_ctrs[w];
    Operator* worker = plan->Own(make(in, wc));
    if (slice != nullptr) {
      worker = plan->Own(std::make_unique<ProfiledOperator>(worker, slice));
    }
    OVC_DCHECK(worker->sorted() == prop.sorted());
    OVC_DCHECK(worker->has_ovc() == prop.has_ovc);
    region.workers.push_back(worker);
  }
  return region;
}

Planner::Built Planner::CloseRegion(Built region, QueryCounters* ctrs,
                                    PhysicalPlan* plan) {
  const uint32_t workers = static_cast<uint32_t>(region.workers.size());
  const std::string detail = std::to_string(workers) + " workers";
  Built built;
  built.prop = region.prop;
  built.est = {region.est.rows,
               region.est.cost +
                   cost_model_.MergeExchange(region.est.rows, workers)};
  plan->RecordAlg(PhysicalAlg::kMergeExchange, built.est);
  const Meter m = NewMeter(plan, ctrs);
  built.op = Wrap(plan,
                  plan->Own(std::make_unique<MergeExchange>(
                      region.workers, m.ctrs, options_.exchange)),
                  m);
  built.explain = ExplainLine(PhysicalAlg::kMergeExchange, built.prop, detail,
                              built.est) +
                  IndentBlock(region.explain);
  SetProfileLine(plan, m, PhysicalAlg::kMergeExchange, detail, built.prop,
                 built.est, {region.pnode});
  built.pnode = m.node;
  return built;
}

Planner::Built Planner::BuildNode(const PlanFacts& f, PhysicalPlan* plan,
                                  QueryCounters* ctrs) {
  Built built = BuildOpen(f, plan, ctrs);
  if (!built.open()) return built;
  return CloseRegion(std::move(built), ctrs, plan);
}

Planner::Built Planner::BuildOpen(const PlanFacts& f, PhysicalPlan* plan,
                                  QueryCounters* ctrs) {
  const LogicalNode& node = *f.node;
  Built result;
  std::string explain;
  const CostModel& model = cost_model_;
  const double out_rows = f.card.rows;

  switch (node.op) {
    case LogicalOp::kScan: {
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan, plan->Own(node.source.factory()), m);
      result.prop = node.source.order;
      result.est = {out_rows, model.Scan(out_rows)};
      plan->RecordAlg(PhysicalAlg::kScan, result.est);
      explain = ExplainLine(PhysicalAlg::kScan, result.prop,
                            node.source.name, result.est);
      SetProfileLine(plan, m, PhysicalAlg::kScan, node.source.name,
                     result.prop, result.est, {}, node.source.name);
      result.pnode = m.node;
      break;
    }

    case LogicalOp::kFilter: {
      const LogicalNode& input = *node.children[0];
      // A key range over a seekable scan always seeks: the filter stays on
      // top with the whole predicate, so no residual is split off.
      Built child = node.key_range.has_value() &&
                            input.op == LogicalOp::kScan &&
                            input.source.range_factory != nullptr
                        ? BuildRangeScan(f, plan, ctrs)
                        : BuildNode(f.children[0], plan, ctrs);
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<FilterOperator>(
                           child.op, node.predicate, node.block_predicate)),
                       m);
      result.prop = FilterOutput(child.prop);
      result.est = {out_rows, child.est.cost +
                                  model.Filter(child.est.rows, out_rows)};
      plan->RecordAlg(PhysicalAlg::kFilter, result.est);
      explain = ExplainLine(PhysicalAlg::kFilter, result.prop,
                            node.predicate_text, result.est) +
                IndentBlock(child.explain);
      SetProfileLine(plan, m, PhysicalAlg::kFilter, node.predicate_text,
                     result.prop, result.est, {child.pnode});
      result.pnode = m.node;
      break;
    }

    case LogicalOp::kProject: {
      Built child = BuildNode(f.children[0], plan, ctrs);
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<ProjectOperator>(
                           child.op, node.schema, node.mapping)),
                       m);
      result.prop = ProjectOutput(node, child.prop);
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
      // a parallel merge join's input subtrees execute on producer threads
      // under their split's pump mutex, so each side must be built with
      // its own region counters rather than the consumer thread's.
      const bool pre_parallel_join =
          ParallelEnabled() &&
          DecideJoin(f, f.children[0].order,
                     f.children[1].order, options_)
                  .alg == PhysicalAlg::kMergeJoin;
      QueryCounters* left_ctrs =
          pre_parallel_join ? plan->NewWorkerCounters() : ctrs;
      QueryCounters* right_ctrs =
          pre_parallel_join ? plan->NewWorkerCounters() : ctrs;
      Built left = BuildNode(f.children[0], plan, left_ctrs);
      Built right = BuildNode(f.children[1], plan, right_ctrs);
      JoinDecision d = DecideJoin(f, left.prop, right.prop, options_);
      if (pre_parallel_join && d.alg == PhysicalAlg::kMergeJoin) {
        // Co-partitioned parallel merge join: hash-split both raw inputs
        // on the join key with the same hash, so each key lands in the
        // same partition index on both sides; sort per worker where an
        // input lacks order or codes (a sorted coded input keeps its codes
        // through the split by the filter theorem); one merge join per
        // partition pair. The region stays open for a co-partitioned
        // consumer; BuildNode closes it with one merging exchange.
        const uint32_t key = node.children[0]->schema.key_arity();
        const std::vector<QueryCounters*> wcs = RegionWorkerCounters(plan);
        // Per-worker sorts charge their workers' counters, not `ctrs`.
        left = SplitRegion(std::move(left), left_ctrs,
                           SplitExchange::Policy::kHashKey, key, wcs, plan);
        if (d.sort_left) {
          left = InsertSort(std::move(left), f.children[0], plan,
                            /*ctrs=*/nullptr);
        }
        right = SplitRegion(std::move(right), right_ctrs,
                            SplitExchange::Policy::kHashKey, key, wcs, plan);
        if (d.sort_right) {
          right = InsertSort(std::move(right), f.children[1], plan,
                             /*ctrs=*/nullptr);
        }
        const NodeEstimate est = {
            out_rows, left.est.cost + right.est.cost +
                          model.MergeJoin(left.est.rows, right.est.rows,
                                          out_rows)};
        const JoinType type = node.join_type;
        return AppendToRegion(
            {std::move(left), std::move(right)}, d.alg,
            std::string(JoinTypeName(type)) + ", per worker", d.out, est,
            plan,
            [type](const std::vector<Operator*>& in, QueryCounters* wc) {
              return std::make_unique<MergeJoin>(in[0], in[1], type, wc);
            });
      }
      if (d.sort_left) {
        left = InsertSort(std::move(left), f.children[0], plan,
                          ctrs);
      }
      if (d.sort_right) {
        right = InsertSort(std::move(right), f.children[1], plan,
                           ctrs);
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
              node.children[0]->schema.total_columns(),
              node.children[1]->schema.total_columns());
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
      plan->RecordAlg(d.alg, result.est);
      // The final Wrap sits outside any normalizing projection, so the
      // line's rows/time cover the node's full physical form.
      const Meter jm = NewMeter(plan, ctrs);
      Operator* join = nullptr;
      switch (d.alg) {
        case PhysicalAlg::kMergeJoin:
          join = plan->Own(std::make_unique<MergeJoin>(
              left.op, right.op, node.join_type, jm.ctrs));
          break;
        case PhysicalAlg::kOrderPreservingHashJoin:
          join = plan->Own(std::make_unique<OrderPreservingHashJoin>(
              left.op, right.op, node.children[0]->schema.key_arity(),
              ToHashType(node.join_type), options_.hash_memory_rows,
              jm.ctrs));
          break;
        case PhysicalAlg::kGraceHashJoin:
          join = plan->Own(std::make_unique<GraceHashJoin>(
              left.op, right.op, node.children[0]->schema.key_arity(),
              ToHashType(node.join_type), options_.hash_memory_rows,
              jm.ctrs, temp_, kHashPartitions, options_.fallback,
              options_.sort_config));
          break;
        default:
          OVC_CHECK(false);
      }
      if (d.normalize) {
        // Hash joins lay rows out as (probe keys, probe payloads, all
        // build columns, indicator); project back to the canonical merge
        // layout (key, left payloads, right payloads, indicator) so every
        // physical alternative yields identical rows.
        const Schema& ls = node.children[0]->schema;
        const Schema& rs = node.children[1]->schema;
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
            std::make_unique<ProjectOperator>(join, node.schema, mapping));
      }
      result.op = Wrap(plan, join, jm);
      result.prop = d.out;
      SetProfileLine(plan, jm, d.alg, JoinTypeName(node.join_type),
                     result.prop, result.est, {left.pnode, right.pnode});
      result.pnode = jm.node;
      explain = ExplainLine(d.alg, result.prop,
                            JoinTypeName(node.join_type), result.est) +
                IndentBlock(left.explain) + IndentBlock(right.explain);
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
      const uint32_t q = node.group_prefix;
      const auto parallel_agg_for = [&](const OrderProperty& child_prop) {
        if (!ParallelEnabled() || q < 1) return false;
        UnaryDecision p = DecideAggregate(f, child_prop, options_);
        return (p.alg == PhysicalAlg::kInStreamAggregate &&
                child_prop.has_ovc) ||
               p.alg == PhysicalAlg::kInSortAggregate;
      };
      const bool pre_parallel_agg =
          parallel_agg_for(f.children[0].order);
      QueryCounters* region_ctrs =
          pre_parallel_agg ? plan->NewWorkerCounters() : ctrs;
      Built child = BuildOpen(f.children[0], plan, region_ctrs);
      // An open region whose workers are hash-partitioned on p <= q
      // grouping columns already holds every group in one partition: the
      // aggregate joins it, one in-stream aggregate per worker, and the
      // gather followed by a re-split on the same key never happens (the
      // open region has not used region_ctrs). Any other open region is
      // closed here, below this aggregate's own split if it has one.
      const bool in_region = child.open() && child.partition_prefix >= 1 &&
                             q >= child.partition_prefix &&
                             child.prop.SortedWithCodes(q);
      if (child.open() && !in_region) {
        child = CloseRegion(std::move(child), region_ctrs, plan);
      }
      UnaryDecision d = DecideAggregate(f, child.prop, options_);
      const bool parallel_agg =
          !in_region && pre_parallel_agg && parallel_agg_for(child.prop);
      double alg_cost = 0;
      switch (d.alg) {
        case PhysicalAlg::kInStreamAggregate:
          alg_cost = model.InStreamAggregate(child.est.rows, out_rows, q,
                                             child.prop.has_ovc);
          break;
        case PhysicalAlg::kInSortAggregate:
          alg_cost = model.InSortAggregate(child.est.rows, out_rows, q,
                                           out_rows,
                                           node.schema.total_columns());
          break;
        case PhysicalAlg::kHashAggregate:
          alg_cost = model.HashAggregate(child.est.rows, out_rows,
                                         node.schema.total_columns());
          break;
        default:
          OVC_CHECK(false);
      }
      if (in_region || parallel_agg) {
        if (parallel_agg) {
          child = SplitRegion(std::move(child), region_ctrs,
                              SplitExchange::Policy::kHashKey, q,
                              RegionWorkerCounters(plan), plan);
        }
        const std::vector<AggregateSpec>& aggregates = node.aggregates;
        const bool in_stream = d.alg == PhysicalAlg::kInStreamAggregate;
        TempFileManager* temp = temp_;
        const SortConfig& sort_config = options_.sort_config;
        const NodeEstimate est = {out_rows, child.est.cost + alg_cost};
        return AppendToRegion(
            {std::move(child)}, d.alg,
            "group=" + std::to_string(q) + ", per worker", d.out, est, plan,
            [=, &aggregates, &sort_config](const std::vector<Operator*>& in,
                                          QueryCounters* wc)
                -> std::unique_ptr<Operator> {
              if (in_stream) {
                return std::make_unique<InStreamAggregate>(in[0], q,
                                                           aggregates, wc);
              }
              return std::make_unique<InSortAggregate>(
                  in[0], q, aggregates, wc, temp, sort_config);
            });
      }
      result.est = {out_rows, child.est.cost + alg_cost};
      plan->RecordAlg(d.alg, result.est);
      const Meter m = NewMeter(plan, ctrs);
      switch (d.alg) {
        case PhysicalAlg::kInStreamAggregate: {
          InStreamAggregate::Options agg_options;
          agg_options.use_ovc_boundaries = child.prop.has_ovc;
          result.op = plan->Own(std::make_unique<InStreamAggregate>(
              child.op, q, node.aggregates, m.ctrs, agg_options));
          break;
        }
        case PhysicalAlg::kInSortAggregate:
          result.op = plan->Own(std::make_unique<InSortAggregate>(
              child.op, q, node.aggregates, m.ctrs, temp_,
              options_.sort_config));
          break;
        case PhysicalAlg::kHashAggregate:
          result.op = plan->Own(std::make_unique<HashAggregate>(
              child.op, q, node.aggregates, options_.hash_memory_rows,
              m.ctrs, temp_, kHashPartitions, options_.fallback,
              options_.sort_config));
          break;
        default:
          OVC_CHECK(false);
      }
      result.op = Wrap(plan, result.op, m);
      result.prop = d.out;
      SetProfileLine(plan, m, d.alg, "group=" + std::to_string(q), d.out,
                     result.est, {child.pnode});
      result.pnode = m.node;
      explain = ExplainLine(d.alg, result.prop, "group=" + std::to_string(q),
                            result.est) +
                IndentBlock(child.explain);
      break;
    }

    case LogicalOp::kDistinct: {
      Built child = BuildNode(f.children[0], plan, ctrs);
      UnaryDecision d = DecideDistinct(f, child.prop, options_);
      if (d.sort_child) {
        child = InsertSort(std::move(child), f.children[0], plan,
                           ctrs);
      }
      double alg_cost = 0;
      switch (d.alg) {
        case PhysicalAlg::kDedup:
          alg_cost = model.Dedup(child.est.rows);
          break;
        case PhysicalAlg::kInSortDistinct:
          alg_cost = model.InSortAggregate(child.est.rows, out_rows,
                                           node.schema.key_arity(),
                                           out_rows,
                                           node.schema.total_columns());
          break;
        case PhysicalAlg::kHashDistinct:
          alg_cost = model.HashAggregate(child.est.rows, out_rows,
                                         node.schema.total_columns());
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
              child.op, node.schema.key_arity(),
              std::vector<AggregateSpec>(), m.ctrs, temp_,
              options_.sort_config));
          break;
        case PhysicalAlg::kHashDistinct:
          result.op = plan->Own(std::make_unique<HashAggregate>(
              child.op, node.schema.key_arity(),
              std::vector<AggregateSpec>(), options_.hash_memory_rows,
              m.ctrs, temp_, kHashPartitions, options_.fallback,
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
      Built left = BuildNode(f.children[0], plan, ctrs);
      Built right = BuildNode(f.children[1], plan, ctrs);
      if (!SortedWithCodesOn(left.prop, node.children[0]->schema)) {
        left = InsertSort(std::move(left), f.children[0], plan,
                          ctrs);
      }
      if (!SortedWithCodesOn(right.prop, node.children[1]->schema)) {
        right = InsertSort(std::move(right), f.children[1], plan,
                           ctrs);
      }
      result.est = {out_rows,
                    left.est.cost + right.est.cost +
                        model.SetOperation(left.est.rows, right.est.rows,
                                           out_rows)};
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<SetOperation>(
                           left.op, right.op, node.set_op, node.set_all,
                           m.ctrs)),
                       m);
      result.prop =
          OrderProperty::Sorted(node.schema.key_arity(), /*ovc=*/true);
      plan->RecordAlg(PhysicalAlg::kSetOperation, result.est);
      explain = ExplainLine(PhysicalAlg::kSetOperation, result.prop,
                            node.set_all ? "all" : "distinct", result.est) +
                IndentBlock(left.explain) + IndentBlock(right.explain);
      SetProfileLine(plan, m, PhysicalAlg::kSetOperation,
                     node.set_all ? "all" : "distinct", result.prop,
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
        UnaryDecision p = DecideSort(node, child_prop);
        return p.alg == PhysicalAlg::kSort && p.out.has_ovc;
      };
      const bool pre_parallel_sort =
          parallel_sort_for(f.children[0].order);
      QueryCounters* region_ctrs =
          pre_parallel_sort ? plan->NewWorkerCounters() : ctrs;
      Built child = BuildNode(f.children[0], plan, region_ctrs);
      UnaryDecision d = DecideSort(node, child.prop);
      const double sort_cost =
          d.alg == PhysicalAlg::kElidedSort
              ? 0.0
              : SortCostFor(model, f.card, node.schema);
      if (d.alg == PhysicalAlg::kSort) ++plan->explicit_sorts_;
      if (pre_parallel_sort && parallel_sort_for(child.prop)) {
        child = SplitRegion(std::move(child), region_ctrs,
                            SplitExchange::Policy::kRoundRobin, 0,
                            RegionWorkerCounters(plan), plan);
        TempFileManager* temp = temp_;
        const SortConfig& sort_config = options_.sort_config;
        const NodeEstimate est = {out_rows, child.est.cost + sort_cost};
        return AppendToRegion(
            {std::move(child)}, d.alg, "per worker", d.out, est, plan,
            [temp, &sort_config](const std::vector<Operator*>& in,
                                 QueryCounters* wc) {
              return std::make_unique<SortOperator>(in[0], wc, temp,
                                                    sort_config);
            });
      }
      result.est = {out_rows, child.est.cost + sort_cost};
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
      } else {
        plan->RecordAlg(d.alg, result.est);
        const Meter m = NewMeter(plan, ctrs);
        result.op = Wrap(plan,
                         plan->Own(std::make_unique<SortOperator>(
                             child.op, m.ctrs, temp_, options_.sort_config)),
                         m);
        SetProfileLine(plan, m, d.alg, "", d.out, result.est, {child.pnode});
        result.pnode = m.node;
      }
      result.prop = d.out;
      explain = ExplainLine(d.alg, result.prop, "", result.est) +
                IndentBlock(child.explain);
      break;
    }

    case LogicalOp::kTopK: {
      Built child = BuildNode(f.children[0], plan, ctrs);
      UnaryDecision d = DecideTopK(node, child.prop);
      Operator* input = child.op;
      if (d.sort_child) {
        child = InsertSort(std::move(child), f.children[0], plan,
                           ctrs);
        input = child.op;
      }
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(
          plan, plan->Own(std::make_unique<LimitOperator>(input, node.limit)),
          m);
      result.prop = d.out;
      result.est = {out_rows, child.est.cost + model.Limit(out_rows)};
      plan->RecordAlg(PhysicalAlg::kLimit, result.est);
      explain = ExplainLine(PhysicalAlg::kLimit, result.prop,
                            "k=" + std::to_string(node.limit), result.est) +
                IndentBlock(child.explain);
      SetProfileLine(plan, m, PhysicalAlg::kLimit,
                     "k=" + std::to_string(node.limit), result.prop,
                     result.est, {child.pnode});
      result.pnode = m.node;
      break;
    }

    case LogicalOp::kLimit: {
      // A bare limit (no order requested): truncate the child's stream in
      // whatever order it arrives, passing order and codes through.
      Built child = BuildNode(f.children[0], plan, ctrs);
      const Meter m = NewMeter(plan, ctrs);
      result.op = Wrap(plan,
                       plan->Own(std::make_unique<LimitOperator>(
                           child.op, node.limit)),
                       m);
      result.prop = child.prop;
      result.est = {out_rows, child.est.cost + model.Limit(out_rows)};
      plan->RecordAlg(PhysicalAlg::kLimit, result.est);
      explain = ExplainLine(PhysicalAlg::kLimit, result.prop,
                            "k=" + std::to_string(node.limit), result.est) +
                IndentBlock(child.explain);
      SetProfileLine(plan, m, PhysicalAlg::kLimit,
                     "k=" + std::to_string(node.limit), result.prop,
                     result.est, {child.pnode});
      result.pnode = m.node;
      break;
    }
  }

  OVC_DCHECK(result.op->sorted() == result.prop.sorted());
  OVC_DCHECK(result.op->has_ovc() == result.prop.has_ovc);
  result.explain = std::move(explain);
  return result;
}

}  // namespace ovc::plan
