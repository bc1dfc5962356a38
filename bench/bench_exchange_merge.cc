// Claim 1, order-preserving (merging) exchange (Section 4.10): the
// many-to-one merge with offset-value codes vs the same merge with full
// comparisons (bench/ablation/plain_merge_exchange.h). Single-threaded pull
// mode isolates comparison costs from thread scheduling, per the paper's
// single-thread methodology; a threaded configuration is included for
// completeness.

#include <algorithm>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/ablation/plain_merge_exchange.h"
#include "bench_util.h"
#include "exec/exchange.h"
#include "exec/scan.h"

namespace ovc {
namespace {

constexpr uint64_t kTotalRows = 1000000;
constexpr uint32_t kInputs = 8;
constexpr uint32_t kArity = 8;
constexpr uint64_t kDistinct = 4;

struct Fixture {
  Schema schema{kArity};
  std::vector<std::unique_ptr<InMemoryRun>> runs;

  Fixture() {
    for (uint32_t i = 0; i < kInputs; ++i) {
      RowBuffer t = bench::MakeTable(schema, kTotalRows / kInputs, kDistinct,
                                     /*seed=*/90 + i, /*sorted=*/true);
      runs.push_back(
          std::make_unique<InMemoryRun>(bench::RunFromSorted(schema, t)));
    }
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void RunExchange(benchmark::State& state, bool use_ovc, bool threaded) {
  Fixture& fixture = GetFixture();
  QueryCounters counters;
  for (auto _ : state) {
    std::vector<std::unique_ptr<RunScan>> scans;
    std::vector<Operator*> inputs;
    for (auto& run : fixture.runs) {
      scans.push_back(std::make_unique<RunScan>(&fixture.schema, run.get()));
      inputs.push_back(scans.back().get());
    }
    std::unique_ptr<Operator> exchange;
    if (use_ovc) {
      MergeExchange::Options options;
      options.threaded = threaded;
      exchange = std::make_unique<MergeExchange>(inputs, &counters, options);
    } else {
      exchange =
          std::make_unique<ablation::PlainMergeExchange>(inputs, &counters);
    }
    const uint64_t n = DrainAndCount(exchange.get());
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kTotalRows);
  state.counters["column_cmp_per_row"] =
      static_cast<double>(counters.column_comparisons) /
      (static_cast<double>(state.iterations()) * kTotalRows);
}

void OvcMergeExchange(benchmark::State& state) {
  RunExchange(state, /*use_ovc=*/true, /*threaded=*/false);
}
void PlainMergeExchange(benchmark::State& state) {
  RunExchange(state, /*use_ovc=*/false, /*threaded=*/false);
}
void OvcMergeExchangeThreaded(benchmark::State& state) {
  RunExchange(state, /*use_ovc=*/true, /*threaded=*/true);
}

BENCHMARK(OvcMergeExchange)->Unit(benchmark::kMillisecond);
BENCHMARK(PlainMergeExchange)->Unit(benchmark::kMillisecond);
BENCHMARK(OvcMergeExchangeThreaded)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace ovc
