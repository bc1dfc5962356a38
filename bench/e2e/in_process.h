// The in-process half of the per-layer ledger: a workload's statements
// run through the engine's public SQL and planning functions in this
// process, over a catalog generated from the same `--gen` specs and with
// the same per-query options an ovcd admission slot plans with, each call
// timed from outside.

#ifndef OVCBENCH_IN_PROCESS_H_
#define OVCBENCH_IN_PROCESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/counters.h"
#include "spans.h"
#include "workloads.h"

namespace ovcbench {

struct LayerTimes {
  /// One sample per statement of the timed pass: Tokenize, ParseStatement
  /// (which tokenizes again itself), Binder::Bind, PlanExecutor::Plan and
  /// PlanExecutor::Run(PhysicalPlan*), unprofiled.
  std::vector<double> tokenize_us;
  std::vector<double> parse_us;
  std::vector<double> bind_us;
  std::vector<double> plan_us;
  std::vector<double> execute_ms;
  /// Operator self time per statement from the profiled pass, by physical
  /// algorithm name ("sort", "merge-join", ...).
  std::map<std::string, double> self_ms;
  /// Counters summed over the timed pass, and each result's checksum.
  ovc::QueryCounters counters;
  std::vector<uint64_t> checksums;
  /// Statements run (timed + profiled) and those whose result disagreed
  /// with the oracle or failed.
  uint64_t statements = 0;
  uint64_t mismatches = 0;
};

/// Runs w.timed_queries statements of connection 0's stream unprofiled,
/// then w.profiled_queries profiled, checking every result against
/// `expected`. Spill files go under `temp_dir`. Spans are recorded when
/// `spans` is not null.
LayerTimes RunInProcess(const Workload& w, uint64_t seed,
                        const ExpectedResults& expected,
                        const std::string& temp_dir, SpanLog* spans);

}  // namespace ovcbench

#endif  // OVCBENCH_IN_PROCESS_H_
