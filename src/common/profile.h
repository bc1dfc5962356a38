// Per-operator runtime profiling.
//
// The paper's argument is quantitative -- column comparisons versus code
// comparisons, spill volume, merge bypass rates -- so a single query-global
// QueryCounters blob is not enough to see *where* a plan spent its work or
// where the cost model's estimates diverged from reality. A QueryProfile
// attributes rows, wall time, and a full QueryCounters slice to every
// physical plan node:
//
//  * OperatorStats is the per-node accumulator. One *slice* is allocated per
//    operator instance per execution thread (worker pipelines, split
//    partition streams, the consumer-side merge), so no slice is ever
//    written concurrently; FinishRun aggregates slices into per-node totals
//    and folds their counters into the session counters, mirroring
//    PhysicalPlan::RollUpWorkerCounters.
//  * Timing uses a raw tick counter (rdtsc on x86-64) converted to
//    nanoseconds once per process, because a steady_clock read per NextBatch
//    would already cost several percent of the hot batched pipeline. Even
//    rdtsc is not free in context (it stalls on in-flight loads), so the
//    wrapper times all of the first kTimeWarmupCalls NextBatch calls, then a
//    deterministic sample of every kTimeSampleEvery-th. The per-node time
//    is the exact warmup time plus the sample scaled to the calls after
//    warmup, so a one-off cost in an early call (a lazily opened sort) is
//    counted once, not multiplied by the sampling rate. Queries short
//    enough to matter for correctness tests stay inside the warmup and are
//    timed exactly; long queries get a sampled estimate and the hot batched
//    path stays within the <=2% instrumentation budget
//    (bench/bench_profile_overhead.cc prices exactly this).
//  * Render() produces the EXPLAIN ANALYZE text -- each plan line carries
//    {rows=est/actual cost=est time=..ms cmp=col/code spill=..} and the
//    worst Q-error nodes are flagged. ToJson() produces the machine-readable
//    profile (ovcsql --profile=FILE). ScanFeedback() reports per-scan
//    estimate-versus-actual cardinalities for TableStats feedback.
//
// Q-error is the standard cardinality-estimation metric:
//   q = max(actual / estimate, estimate / actual), both clamped to >= 1.
// q == 1 is a perfect estimate; q >= 2 is flagged in EXPLAIN ANALYZE.

#ifndef OVC_COMMON_PROFILE_H_
#define OVC_COMMON_PROFILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace ovc {

/// Raw monotonic tick count (rdtsc on x86-64, the generic counter register
/// on aarch64, steady_clock elsewhere). Inline so the hot wrapper pays one
/// instruction, not a call; still sampled there because even rdtsc stalls
/// on in-flight work.
inline uint64_t ProfileTicks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#elif defined(__aarch64__)
  uint64_t ticks;
  asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
  return ticks;
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Converts a tick delta to nanoseconds. Calibrates ticks-per-nanosecond
/// against steady_clock once per process (lazily, on first use).
uint64_t TicksToNs(uint64_t ticks);

/// Timing-sample policy for NextBatch: the first kTimeWarmupCalls calls
/// per wrapper are always timed (short queries -- and tests -- get exact
/// times), after that every kTimeSampleEvery-th.
/// Powers of two; the wrapper masks with kTimeSampleEvery - 1.
inline constexpr uint64_t kTimeWarmupCalls = 32;
inline constexpr uint64_t kTimeSampleEvery = 16;

/// Per-operator, per-execution-thread stats accumulator. Exactly one thread
/// writes a given instance at a time (the thread driving that operator), so
/// plain uint64_t fields suffice; cross-thread aggregation happens in
/// QueryProfile::FinishRun after every producer thread has joined.
struct OperatorStats {
  /// Rows this operator emitted.
  uint64_t rows_out = 0;
  /// Non-empty batches emitted.
  uint64_t batches_out = 0;
  /// Inclusive wall ticks (the operator plus everything below it on the
  /// same thread) inside Open / Close, inside the warmup NextBatch calls
  /// (all timed), and inside the sampled NextBatch calls after warmup.
  uint64_t open_ticks = 0;
  uint64_t warmup_ticks = 0;
  uint64_t next_ticks = 0;
  uint64_t close_ticks = 0;
  /// Total NextBatch calls; how many fell in the warmup window; and how
  /// many after it were timed into next_ticks (see above).
  uint64_t next_calls = 0;
  uint64_t warmup_calls = 0;
  uint64_t next_timed = 0;
  /// Work counters attributed to this operator (handed to its constructor
  /// in place of the session/worker counters when profiling is on).
  QueryCounters counters;

  void Merge(const OperatorStats& other) {
    rows_out += other.rows_out;
    batches_out += other.batches_out;
    open_ticks += other.open_ticks;
    warmup_ticks += other.warmup_ticks;
    next_ticks += other.next_ticks;
    close_ticks += other.close_ticks;
    next_calls += other.next_calls;
    warmup_calls += other.warmup_calls;
    next_timed += other.next_timed;
    counters.Merge(other.counters);
  }

  void Reset() { *this = OperatorStats(); }

  /// Estimated ticks over all NextBatch calls: the warmup ticks as
  /// measured, plus the post-warmup sample scaled to the post-warmup call
  /// count. Exact while every call fell inside the warmup window.
  uint64_t scaled_next_ticks() const {
    if (next_timed == 0) return warmup_ticks;
    const double post_warmup_calls =
        static_cast<double>(next_calls - warmup_calls);
    return warmup_ticks +
           static_cast<uint64_t>(static_cast<double>(next_ticks) *
                                 post_warmup_calls /
                                 static_cast<double>(next_timed));
  }

  uint64_t total_ticks() const {
    return open_ticks + scaled_next_ticks() + close_ticks;
  }
};

/// The per-query profile: one Node per physical plan line, each holding the
/// planner's estimate and (after a run) the aggregated actuals. Owned by
/// PhysicalPlan when PlannerOptions::profile is set; stable-addressed slices
/// let operators write stats without ever resizing under a running query.
class QueryProfile {
 public:
  struct Node {
    /// The explain-line prefix, e.g. "merge-join(inner) [sorted+ovc(2)]".
    std::string label;
    /// Table name for scan nodes (the ScanFeedback target); empty otherwise.
    std::string table;
    /// Planner estimate for this node (output rows, cumulative cost).
    double est_rows = 0;
    double est_cost = 0;
    /// Child node indices, in explain order.
    std::vector<int> children;
    /// Per-thread stat slices (stable addresses; written during a run).
    std::vector<std::unique_ptr<OperatorStats>> slices;
    /// Aggregate of all slices for the most recent finished run.
    OperatorStats total;
    /// True once FinishRun aggregated at least one slice into `total`.
    bool has_actuals = false;
  };

  /// Adds a node; returns its index. Label/estimate/children are filled in
  /// by SetLine once the planner knows them.
  int AddNode();
  void SetLine(int node, std::string label, double est_rows, double est_cost,
               std::vector<int> children, std::string table = std::string());
  /// Allocates one per-thread stats slice under `node`.
  OperatorStats* AddSlice(int node);
  void SetRoot(int node) { root_ = node; }
  int root() const { return root_; }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Ends one run: aggregates every node's slices into its `total`, folds
  /// all slice counters into `into` (skipped when null) and resets the
  /// slices so repeated runs never double-count -- the profile analogue of
  /// PhysicalPlan::RollUpWorkerCounters. Returns the rolled-up counter
  /// total (what this run added to `into`) for consistency checks.
  QueryCounters FinishRun(QueryCounters* into, uint64_t wall_ns);

  /// Sum of per-node counter totals over the tree reachable from the root
  /// (each node once). In a consistent profile this equals what the last
  /// FinishRun returned.
  QueryCounters TreeCounterTotals() const;

  /// Actual output rows of `node` in the last run. Nodes with no slices
  /// (an elided sort is a plan line but no operator) report their only
  /// child's actuals.
  uint64_t ActualRows(int node) const;
  /// Inclusive wall nanoseconds of `node` in the last run (slice-less nodes
  /// report their child's, like ActualRows).
  uint64_t ActualNs(int node) const;
  /// Q-error of `node`: max(actual/est, est/actual), inputs clamped to 1.
  double QError(int node) const;
  /// Largest Q-error over all nodes (1 when the profile has no actuals).
  double WorstQError() const;

  uint64_t wall_ns() const { return wall_ns_; }
  uint64_t runs() const { return runs_; }

  /// EXPLAIN ANALYZE rendering: the plan tree with one line per node,
  /// `{rows=est/actual cost=est time=..ms cmp=col/code spill=..}`
  /// annotations, worst Q-error flags, and a trailing wall-time summary.
  std::string Render() const;

  /// Machine-readable profile: a JSON object with wall time and the plan
  /// tree (per node: label, estimates, actuals, counters, children).
  std::string ToJson() const;

  /// Estimate-versus-actual cardinality per scan node, for TableStats
  /// feedback.
  struct CardFeedback {
    std::string table;
    double est_rows = 0;
    double actual_rows = 0;
    double q_error = 1;
  };
  std::vector<CardFeedback> ScanFeedback() const;

 private:
  void RenderNode(int node, int depth, double worst_q, std::string* out) const;
  void JsonNode(int node, std::string* out) const;

  std::vector<Node> nodes_;
  int root_ = -1;
  uint64_t wall_ns_ = 0;
  uint64_t runs_ = 0;
};

}  // namespace ovc

#endif  // OVC_COMMON_PROFILE_H_
