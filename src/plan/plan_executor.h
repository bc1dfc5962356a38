// Plan execution: planning + running + stream validation in one call.
//
// PlanExecutor is the subsystem's front door: hand it a logical plan, get
// back the materialized result together with the physical plan that
// produced it. In debug builds (or when validation is forced on) the
// executor feeds every output row of an order-carrying plan through
// OvcStreamChecker, so any operator that breaks the sorted-with-codes
// contract is caught at the plan boundary, not three operators later.

#ifndef OVC_PLAN_PLAN_EXECUTOR_H_
#define OVC_PLAN_PLAN_EXECUTOR_H_

#include <memory>
#include <string>

#include "common/counters.h"
#include "common/status.h"
#include "common/temp_file.h"
#include "plan/logical_plan.h"
#include "plan/physical_plan.h"
#include "row/row_buffer.h"

namespace ovc::plan {

/// A materialized query result.
struct ExecutionResult {
  ExecutionResult() : rows(1) {}

  /// All output rows, in the order the root operator produced them.
  RowBuffer rows;
  /// Order property of the root stream.
  OrderProperty order;
  /// True when the output stream was validated with OvcStreamChecker.
  bool validated = false;
  /// First validation violation (empty when none, or when not validated).
  std::string validation_error;
  /// First runtime error recorded by a degrading operator (temp-file I/O
  /// failure that exhausted its retries, spill failure, ...). When not OK,
  /// `rows` is a truncated prefix and must not be served to the client.
  Status status = Status::Ok();

  uint64_t row_count() const { return rows.size(); }
  bool ok() const { return status.ok() && validation_error.empty(); }
};

/// Plans and runs logical plans.
class PlanExecutor {
 public:
  struct Options {
    /// Physical-planner knobs.
    PlannerOptions planner;
    /// Validate sorted-with-codes root streams with OvcStreamChecker.
    /// Defaults to on in debug builds, off in release (per-row naive code
    /// recomputation is quadratic in key arity).
#ifndef NDEBUG
    bool validate = true;
#else
    bool validate = false;
#endif
    /// Abort (OVC_CHECK) on a validation violation instead of only
    /// recording it in the result.
    bool abort_on_violation = true;
    /// Rows per block when draining the root operator through NextBatch.
    /// Tests shrink this to force many block boundaries; validation still
    /// observes every row, so it proves codes stay correct across blocks.
    uint32_t batch_rows = RowBlock::kDefaultRows;
  };

  /// `counters` (optional) and `temp` must outlive the executor.
  PlanExecutor(QueryCounters* counters, TempFileManager* temp)
      : PlanExecutor(counters, temp, Options()) {}
  PlanExecutor(QueryCounters* counters, TempFileManager* temp,
               Options options);

  /// Plans `root` and returns the physical plan without running it.
  /// Planning reads `root` only (see Planner::Plan).
  PhysicalPlan Plan(const LogicalNode* root);

  /// Same, with one-off planner options (how EXPLAIN ANALYZE turns on
  /// PlannerOptions::profile for a single statement).
  PhysicalPlan Plan(const LogicalNode* root,
                    const PlannerOptions& planner_options);

  /// Plans and runs `root`; materializes the full output. The logical plan
  /// (and the storage behind its scans) must stay alive for the call.
  ExecutionResult Run(const LogicalNode* root);

  /// Runs an already-built physical plan.
  ExecutionResult Run(PhysicalPlan* plan);

  /// The physical plan of the most recent Run(const LogicalNode*) call.
  const PhysicalPlan* last_plan() const { return last_plan_.get(); }

  const Options& options() const { return options_; }

 private:
  QueryCounters* counters_;
  TempFileManager* temp_;
  Options options_;
  std::unique_ptr<PhysicalPlan> last_plan_;
};

}  // namespace ovc::plan

#endif  // OVC_PLAN_PLAN_EXECUTOR_H_
