// Exchange-parallel sort (Section 4.10): the planner's flagship parallel
// shape -- round-robin split, partition-parallel run generation (one sort
// per worker), code-preserving merge-exchange -- at 1/2/4 workers, against
// the serial sort plan as the 1-worker baseline.
//
// Measured with real time (producer threads do the sorting); the scaling
// these numbers show is bounded by the machine's core count, so expect
// near-flat curves on single-core CI runners and real speedup on
// multi-core hardware: each run records `nproc`, and runs with more workers
// than usable CPUs are labelled "not a scaling measurement".
// column_cmp_per_row tracks the rolled-up per-worker comparison totals,
// which stay hardware-independent.

#include <memory>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "plan/logical_plan.h"
#include "plan/plan_executor.h"

namespace ovc {
namespace {

constexpr uint64_t kRows = 1 << 20;
constexpr uint32_t kArity = 4;
constexpr uint64_t kDistinct = 64;

struct Fixture {
  Schema schema{kArity, 1};
  RowBuffer table;

  Fixture() : table(bench::MakeTable(schema, kRows, kDistinct, /*seed=*/7)) {}
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void ParallelSortPlan(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  QueryCounters counters;
  TempFileManager temp;
  plan::PlanExecutor::Options options;
  options.planner.parallelism = workers;
  options.planner.exchange.threaded = true;
  options.validate = false;
  plan::PlanExecutor executor(&counters, &temp, options);
  for (auto _ : state) {
    auto logical =
        plan::PlanBuilder::Scan(
            plan::BufferSource("t", &fixture.schema, &fixture.table))
            .Sort()
            .Build();
    plan::ExecutionResult result = executor.Run(logical.get());
    benchmark::DoNotOptimize(result.row_count());
    OVC_CHECK(result.row_count() == kRows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["column_cmp_per_row"] =
      static_cast<double>(counters.column_comparisons) /
      (static_cast<double>(state.iterations()) * kRows);
  state.counters["workers"] = workers;
  const int nproc = bench::UsableCpus();
  state.counters["nproc"] = nproc;
  if (static_cast<int>(workers) > nproc) {
    state.SetLabel("not a scaling measurement");
  }
}

BENCHMARK(ParallelSortPlan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace ovc
