// Section 3 / Section 5 run generation: merging single-row runs (one big
// tournament, the ablation baseline), cache-sized mini-runs (the default),
// replacement selection (longer runs, one extra comparison per row), and the
// std::sort baseline with naive codes. Reports run counts, code and column
// comparisons per row and merge-bypass rows next to time: replacement
// selection halves the run count, and mini-runs trade a few code
// comparisons for a tournament that stays in cache. The last two are
// AblationSorts (bench/ablation/ablation_sort.h).
//
// Shapes ({rows, key columns, distinct values per column, payload columns,
// memory rows, presorted}):
//  * 1,000,000 x 4 keys x 16 distinct, 65,536 rows of memory: many spilled
//    runs.
//  * 250,000 x 1 key x 25,000 distinct, in memory: the inserted sort of the
//    end-to-end join (`lineitem` on `orderkey`).
//  * 65,536 x 3 keys x 256 distinct, in memory: one memory batch of the
//    end-to-end in-sort distinct on `(site, day, visitor)`.
//  * 250,000 x 1 key x 25,000 distinct, presorted, in memory: the one shape
//    where a branch on the match outcome would predict perfectly, so the
//    branch-free match of the coded tournaments gains nothing here.

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include <benchmark/benchmark.h>

#include "bench/ablation/ablation_sort.h"
#include "bench_util.h"
#include "sort/external_sort.h"

namespace ovc {
namespace {

struct Shape {
  uint64_t rows;
  uint32_t arity;
  uint64_t distinct;
  uint32_t payload;
  uint64_t memory_rows;
  bool presorted;

  static Shape From(const benchmark::State& state) {
    return Shape{static_cast<uint64_t>(state.range(0)),
                 static_cast<uint32_t>(state.range(1)),
                 static_cast<uint64_t>(state.range(2)),
                 static_cast<uint32_t>(state.range(3)),
                 static_cast<uint64_t>(state.range(4)), state.range(5) != 0};
  }
  /// The table cache's key: every field that changes the generated table.
  bool operator<(const Shape& o) const {
    return std::tie(rows, arity, distinct, payload, presorted) <
           std::tie(o.rows, o.arity, o.distinct, o.payload, o.presorted);
  }
};

const RowBuffer& GetTable(const Shape& shape) {
  static auto* cache = new std::map<Shape, std::unique_ptr<RowBuffer>>();
  auto it = cache->find(shape);
  if (it == cache->end()) {
    Schema schema(shape.arity, shape.payload);
    it = cache
             ->emplace(shape, std::make_unique<RowBuffer>(bench::MakeTable(
                                  schema, shape.rows, shape.distinct,
                                  /*seed=*/55, shape.presorted)))
             .first;
  }
  return *it->second;
}

/// Sorts with a `Sort` (ExternalSort or AblationSort) configured by
/// `config` and the shape's memory.
template <typename Sort, typename Config>
void RunGen(benchmark::State& state, Config config) {
  const Shape shape = Shape::From(state);
  Schema schema(shape.arity, shape.payload);
  const RowBuffer& table = GetTable(shape);
  QueryCounters counters;
  uint64_t runs = 0;
  config.memory_rows = shape.memory_rows;
  for (auto _ : state) {
    TempFileManager temp;
    Sort sort(&schema, &counters, &temp, config);
    for (size_t i = 0; i < table.size(); ++i) sort.Add(table.row(i));
    OVC_CHECK_OK(sort.Finish());
    RowRef ref;
    uint64_t n = 0;
    while (sort.Next(&ref)) ++n;
    benchmark::DoNotOptimize(n);
    runs = sort.spilled_runs();
  }
  const double rows =
      static_cast<double>(state.iterations()) * static_cast<double>(shape.rows);
  state.SetItemsProcessed(state.iterations() * shape.rows);
  state.counters["initial_runs"] = static_cast<double>(runs);
  state.counters["code_cmp_per_row"] =
      static_cast<double>(counters.code_comparisons) / rows;
  state.counters["column_cmp_per_row"] =
      static_cast<double>(counters.column_comparisons) / rows;
  state.counters["merge_bypass_rows"] =
      static_cast<double>(counters.merge_bypass_rows) /
      static_cast<double>(state.iterations());
}

void SingleRowRuns(benchmark::State& state) {
  state.SetLabel("ablation baseline");
  SortConfig config;
  config.mini_run_rows = ablation::kSingleTournamentRows;
  RunGen<ExternalSort>(state, config);
}
void MiniRuns(benchmark::State& state) {
  RunGen<ExternalSort>(state, SortConfig());
}
void StdSortRuns(benchmark::State& state) {
  ablation::AblationSortConfig config;
  config.run_gen = ablation::RunGen::kStdSort;
  config.naive_codes = true;
  RunGen<ablation::AblationSort>(state, config);
}
void ReplacementSelectionRuns(benchmark::State& state) {
  ablation::AblationSortConfig config;
  config.run_gen = ablation::RunGen::kReplacementSelection;
  RunGen<ablation::AblationSort>(state, config);
}

#define RUN_GEN_SHAPES                            \
  ->Args({1000000, 4, 16, 0, 65536, 0})           \
      ->Args({250000, 1, 25000, 1, 1 << 20, 0})   \
      ->Args({65536, 3, 256, 0, 1 << 20, 0})      \
      ->Args({250000, 1, 25000, 1, 1 << 20, 1})   \
      ->Unit(benchmark::kMillisecond)

BENCHMARK(SingleRowRuns) RUN_GEN_SHAPES;
BENCHMARK(MiniRuns) RUN_GEN_SHAPES;
BENCHMARK(StdSortRuns) RUN_GEN_SHAPES;
BENCHMARK(ReplacementSelectionRuns) RUN_GEN_SHAPES;

}  // namespace
}  // namespace ovc
