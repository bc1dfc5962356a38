#include "plan/plan_executor.h"

#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/ovc_checker.h"

namespace ovc::plan {

PlanExecutor::PlanExecutor(QueryCounters* counters, TempFileManager* temp,
                           Options options)
    : counters_(counters), temp_(temp), options_(std::move(options)) {}

PhysicalPlan PlanExecutor::Plan(const LogicalNode* root) {
  return Plan(root, options_.planner);
}

PhysicalPlan PlanExecutor::Plan(const LogicalNode* root,
                                const PlannerOptions& planner_options) {
  Planner planner(counters_, temp_, planner_options);
  return planner.Plan(root);
}

ExecutionResult PlanExecutor::Run(const LogicalNode* root) {
  last_plan_ = std::make_unique<PhysicalPlan>(Plan(root));
  return Run(last_plan_.get());
}

ExecutionResult PlanExecutor::Run(PhysicalPlan* plan) {
  OVC_TRACE_SPAN("plan.execute");
  Operator* root = plan->root();
  ExecutionResult result;
  result.order = plan->root_order();
  result.rows = RowBuffer(root->schema().total_columns());

  // Validation applies exactly when the plan promises the full contract:
  // a sorted stream whose rows carry valid codes.
  const bool validate =
      options_.validate &&
      plan->root_order().SortedWithCodes(root->schema().key_arity());
  OvcStreamChecker checker(&root->schema());

  // Drain the root block-wise: one virtual NextBatch per block instead of
  // one virtual Next per row, with bulk appends into the result buffer.
  // Validation still observes every row in stream order, so it checks the
  // sorted-with-codes contract across block boundaries too.
  QueryProfile* profile = plan->profile();
  const uint64_t wall_start = profile != nullptr ? ProfileTicks() : 0;
  // Errors from degrading operators land in the temp manager's first-error
  // slot; start the run with a clean slot so a stale error from an earlier
  // statement cannot fail this one.
  if (temp_ != nullptr) temp_->ClearError();
  root->Open();
  RowBlock block(root->schema().total_columns(), options_.batch_rows);
  // Process-wide drain accounting: one sharded relaxed fetch_add per
  // *batch*, not per row, so the hot path stays inside the <=2%
  // instrumentation budget (bench/bench_metrics_overhead.cc prices it).
  metrics::Counter& batch_metric =
      OVC_METRIC_COUNTER("exec.batches", "Batches drained from root plans");
  metrics::Counter& row_metric =
      OVC_METRIC_COUNTER("exec.rows", "Rows drained from root plans");
  uint32_t n;
  while ((n = root->NextBatch(&block)) > 0) {
    batch_metric.Increment();
    row_metric.Add(n);
    if (validate) {
      for (uint32_t i = 0; i < n; ++i) {
        checker.Observe(block.row(i), block.code(i));
      }
    }
    result.rows.AppendRows(block.data(), n);
  }
  root->Close();
  // Parallel plans meter each worker pipeline through its own counters
  // (the MergeExchange threading contract); fold them into the session
  // counters now that every producer thread has joined, so comparison
  // accounting is exact and repeated runs do not double-count.
  plan->RollUpWorkerCounters(counters_);
  if (profile != nullptr) {
    // Same roll-up for the profile's per-operator slices: every producer
    // thread has joined, so aggregating and folding into the session
    // counters here is exact.
    const uint64_t wall_ns = TicksToNs(ProfileTicks() - wall_start);
    const QueryCounters rolled = profile->FinishRun(counters_, wall_ns);
    if (options_.validate) {
      // Self-consistency of the per-operator attribution: summing the
      // per-node counter totals over the plan tree must reproduce the
      // query totals this run just rolled up -- a double-counted or
      // dropped slice breaks the equality. The root's actual row count
      // must likewise match the materialized result.
      OVC_CHECK(profile->TreeCounterTotals() == rolled);
      OVC_CHECK(profile->ActualRows(profile->root()) ==
                result.rows.size());
    }
  }

  // A degrading operator stops producing and records why; surface that as
  // the result status so callers report a clean error instead of serving
  // the truncated prefix.
  if (temp_ != nullptr) {
    result.status = temp_->first_error();
    if (!result.status.ok()) temp_->ClearError();
  }

  if (validate) {
    result.validated = true;
    if (!checker.ok()) {
      result.validation_error = checker.error();
      if (options_.abort_on_violation) {
        std::fprintf(stderr, "plan output stream violation: %s\n",
                     checker.error().c_str());
        OVC_CHECK(checker.ok());
      }
    }
  }
  return result;
}

}  // namespace ovc::plan
