// Figure 4: "Group boundaries from offset-value codes".
//
// In-stream aggregation over a sorted input of 1,000,000 rows with many key
// columns. The input/output row ratio (group size) sweeps 1..100. Two
// boundary-detection strategies:
//   * offset-value codes: one integer test per row ("testing the offset
//     against the count of grouping columns"),
//   * full comparisons of multiple key columns (the baseline).
// The paper's result: the code-based test is much faster at every ratio,
// and the advantage persists as groups grow.

#include <algorithm>
#include <map>
#include <memory>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "exec/aggregate.h"
#include "exec/scan.h"

namespace ovc {
namespace {

constexpr uint64_t kInputRows = 1000000;
constexpr uint32_t kKeyColumns = 8;  // "many key columns"
constexpr uint64_t kDistinctPerColumn = 8;

struct Fixture {
  explicit Fixture(uint64_t ratio)
      : schema(kKeyColumns, 1), run(schema.total_columns()) {
    const uint64_t groups = kInputRows / ratio;
    RowBuffer table(schema.total_columns());
    GenerateGroupedRows(schema, groups, ratio, kDistinctPerColumn,
                        /*seed=*/ratio, &table);
    run = bench::RunFromSorted(schema, table);
  }

  Schema schema;
  InMemoryRun run;
};

Fixture& GetFixture(uint64_t ratio) {
  // One prepared input per ratio, built once and reused across iterations
  // ("each experiment starts with a warm cache").
  static std::map<uint64_t, std::unique_ptr<Fixture>>* cache =
      new std::map<uint64_t, std::unique_ptr<Fixture>>();
  auto it = cache->find(ratio);
  if (it == cache->end()) {
    it = cache->emplace(ratio, std::make_unique<Fixture>(ratio)).first;
  }
  return *it->second;
}

void BM_InStreamAgg(benchmark::State& state, bool use_ovc) {
  const uint64_t ratio = static_cast<uint64_t>(state.range(0));
  Fixture& fixture = GetFixture(ratio);
  QueryCounters counters;
  for (auto _ : state) {
    RunScan scan(&fixture.schema, &fixture.run);
    InStreamAggregate::Options options;
    options.use_ovc_boundaries = use_ovc;
    InStreamAggregate agg(&scan, kKeyColumns, {{AggFn::kCount, 0}}, &counters,
                          options);
    const uint64_t groups = DrainAndCount(&agg);
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(state.iterations() * kInputRows);
  state.counters["ratio"] = static_cast<double>(ratio);
  state.counters["column_cmp_per_iter"] = static_cast<double>(
      counters.column_comparisons / std::max<uint64_t>(1, state.iterations()));
}

void OvcBoundaries(benchmark::State& state) { BM_InStreamAgg(state, true); }
void FullComparisons(benchmark::State& state) {
  BM_InStreamAgg(state, false);
}

BENCHMARK(OvcBoundaries)
    ->Arg(1)->Arg(2)->Arg(5)->Arg(10)->Arg(20)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(FullComparisons)
    ->Arg(1)->Arg(2)->Arg(5)->Arg(10)->Arg(20)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
