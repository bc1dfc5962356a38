// Claim 1: offset-value coding speeds up external merge sort. The same
// external sort (same run sizes, same fan-in, same spill format family)
// with OVC on vs off, and against the std::sort baseline, across row counts
// and key-column counts. OvcSort and PlainTreeSort generate runs with one
// tournament over each memory batch; OvcMiniRunSort is the engine's
// default, cache-sized mini-runs. PlainTreeSort and StdSortBaseline are
// the code-free AblationSort (bench/ablation/ablation_sort.h). Each entry
// reports column comparisons per row and minor page faults per iteration
// (`minflt_per_iter`) next to time.

#include <algorithm>
#include <map>
#include <memory>

#include <benchmark/benchmark.h>

#include "bench/ablation/ablation_sort.h"
#include "bench_util.h"
#include "sort/external_sort.h"

namespace ovc {
namespace {

struct Key {
  uint64_t rows;
  uint32_t arity;
  bool operator<(const Key& o) const {
    return rows != o.rows ? rows < o.rows : arity < o.arity;
  }
};

const RowBuffer& GetTable(uint64_t rows, uint32_t arity) {
  static std::map<Key, std::unique_ptr<RowBuffer>>* cache =
      new std::map<Key, std::unique_ptr<RowBuffer>>();
  const Key key{rows, arity};
  auto it = cache->find(key);
  if (it == cache->end()) {
    Schema schema(arity);
    it = cache
             ->emplace(key, std::make_unique<RowBuffer>(bench::MakeTable(
                                schema, rows, /*distinct=*/4, /*seed=*/rows)))
             .first;
  }
  return *it->second;
}

/// Sorts with a `Sort` (ExternalSort or AblationSort) configured by
/// `config`, whose memory holds a tenth of the input.
template <typename Sort, typename Config>
void RunSort(benchmark::State& state, Config config) {
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  const uint32_t arity = static_cast<uint32_t>(state.range(1));
  Schema schema(arity);
  const RowBuffer& table = GetTable(rows, arity);
  QueryCounters counters;
  config.memory_rows = std::max<uint64_t>(2, rows / 10);
  const uint64_t faults_before = bench::MinorFaults();
  for (auto _ : state) {
    TempFileManager temp;
    Sort sort(&schema, &counters, &temp, config);
    for (size_t i = 0; i < table.size(); ++i) sort.Add(table.row(i));
    OVC_CHECK_OK(sort.Finish());
    RowRef ref;
    uint64_t n = 0;
    while (sort.Next(&ref)) ++n;
    benchmark::DoNotOptimize(n);
  }
  const uint64_t faults = bench::MinorFaults() - faults_before;
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["column_cmp_per_row"] =
      static_cast<double>(counters.column_comparisons) /
      (static_cast<double>(state.iterations()) * rows);
  state.counters["minflt_per_iter"] =
      static_cast<double>(faults) / static_cast<double>(state.iterations());
}

void OvcSort(benchmark::State& state) {
  state.SetLabel("single-row runs: ablation baseline");
  SortConfig config;
  config.mini_run_rows = ablation::kSingleTournamentRows;
  RunSort<ExternalSort>(state, config);
}
void PlainTreeSort(benchmark::State& state) {
  RunSort<ablation::AblationSort>(state, ablation::AblationSortConfig());
}
void StdSortBaseline(benchmark::State& state) {
  ablation::AblationSortConfig config;
  config.run_gen = ablation::RunGen::kStdSort;
  RunSort<ablation::AblationSort>(state, config);
}
void OvcMiniRunSort(benchmark::State& state) {
  RunSort<ExternalSort>(state, SortConfig());
}

// Sweep rows x key columns ("many rows and many key columns").
#define SORT_ARGS                                            \
  ->Args({100000, 2})->Args({100000, 8})->Args({1000000, 2}) \
      ->Args({1000000, 8})->Unit(benchmark::kMillisecond)

BENCHMARK(OvcSort) SORT_ARGS;
BENCHMARK(PlainTreeSort) SORT_ARGS;
BENCHMARK(StdSortBaseline) SORT_ARGS;
BENCHMARK(OvcMiniRunSort) SORT_ARGS;

}  // namespace
}  // namespace ovc
