// Figures 5 and 6: "intersect distinct" query plans, hash-based vs
// sort-based.
//
//   select B from T1 intersect select B from T2
//
// Hash-based plan (3 blocking operators): HashAggregate(T1),
// HashAggregate(T2) for duplicate removal, then a hash join for the
// intersection. Sort-based plan (2 blocking operators): sort + in-sort
// duplicate removal on each input, then a merge join that exploits both the
// interesting ordering and the offset-value codes.
//
// The paper runs 100,000,000-row inputs against 10,000,000-row operator
// memory; this reproduction keeps the same 10:1 input:memory ratio at
// laptop scale (default 1,000,000 rows, 100,000-row memory), so both plans
// spill with the same structure: the hash plan spills most rows twice, the
// sort plan spills each input row once. Spill volumes are reported as
// counters next to wall-clock time.

#include <algorithm>
#include <map>
#include <memory>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "exec/dedup.h"
#include "exec/hash_aggregate.h"
#include "exec/hash_join.h"
#include "exec/in_sort_aggregate.h"
#include "exec/merge_join.h"
#include "exec/scan.h"
#include "exec/sort_operator.h"

namespace ovc {
namespace {

constexpr uint32_t kKeyColumns = 2;

struct Fixture {
  explicit Fixture(uint64_t rows)
      : schema(kKeyColumns),
        t1(bench::MakeTable(schema, rows, /*distinct=*/2048, /*seed=*/61)),
        t2(bench::MakeTable(schema, rows, /*distinct=*/2048, /*seed=*/62)) {}

  Schema schema;
  RowBuffer t1, t2;
};

Fixture& GetFixture(uint64_t rows) {
  static std::map<uint64_t, std::unique_ptr<Fixture>>* cache =
      new std::map<uint64_t, std::unique_ptr<Fixture>>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    it = cache->emplace(rows, std::make_unique<Fixture>(rows)).first;
  }
  return *it->second;
}

void SortBasedPlan(benchmark::State& state) {
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  const uint64_t memory_rows = rows / 10;
  Fixture& fixture = GetFixture(rows);
  QueryCounters counters;
  uint64_t result_rows = 0;
  for (auto _ : state) {
    TempFileManager temp;
    SortConfig config;
    config.memory_rows = memory_rows;
    BufferScan scan1(&fixture.schema, &fixture.t1);
    BufferScan scan2(&fixture.schema, &fixture.t2);
    SortOperator sort1(&scan1, &counters, &temp, config);
    SortOperator sort2(&scan2, &counters, &temp, config);
    DedupOperator dedup1(&sort1);
    DedupOperator dedup2(&sort2);
    MergeJoin intersect(&dedup1, &dedup2, JoinType::kLeftSemi, &counters);
    result_rows = DrainAndCount(&intersect);
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows);
  state.counters["result_rows"] = static_cast<double>(result_rows);
  state.counters["rows_spilled_per_iter"] = static_cast<double>(
      counters.rows_spilled / std::max<uint64_t>(1, state.iterations()));
  state.counters["column_cmp_per_iter"] = static_cast<double>(
      counters.column_comparisons / std::max<uint64_t>(1, state.iterations()));
}

void InSortAggPlan(benchmark::State& state) {
  // The paper's actual sort-based plan: "both [blocking operators] are
  // in-sort aggregation operators for duplicate removal" -- duplicates
  // collapse during run generation, so spilled runs hold only distinct
  // keys.
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  const uint64_t memory_rows = rows / 10;
  Fixture& fixture = GetFixture(rows);
  QueryCounters counters;
  uint64_t result_rows = 0;
  for (auto _ : state) {
    TempFileManager temp;
    SortConfig config;
    config.memory_rows = memory_rows;
    BufferScan scan1(&fixture.schema, &fixture.t1);
    BufferScan scan2(&fixture.schema, &fixture.t2);
    InSortAggregate dedup1(&scan1, kKeyColumns, {}, &counters, &temp, config);
    InSortAggregate dedup2(&scan2, kKeyColumns, {}, &counters, &temp, config);
    MergeJoin intersect(&dedup1, &dedup2, JoinType::kLeftSemi, &counters);
    result_rows = DrainAndCount(&intersect);
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows);
  state.counters["result_rows"] = static_cast<double>(result_rows);
  state.counters["rows_spilled_per_iter"] = static_cast<double>(
      counters.rows_spilled / std::max<uint64_t>(1, state.iterations()));
  state.counters["column_cmp_per_iter"] = static_cast<double>(
      counters.column_comparisons / std::max<uint64_t>(1, state.iterations()));
}

void HashBasedPlan(benchmark::State& state) {
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  const uint64_t memory_rows = rows / 10;
  Fixture& fixture = GetFixture(rows);
  QueryCounters counters;
  uint64_t result_rows = 0;
  for (auto _ : state) {
    TempFileManager temp;
    BufferScan scan1(&fixture.schema, &fixture.t1);
    BufferScan scan2(&fixture.schema, &fixture.t2);
    HashAggregate dedup1(&scan1, kKeyColumns, {}, memory_rows, &counters,
                         &temp);
    HashAggregate dedup2(&scan2, kKeyColumns, {}, memory_rows, &counters,
                         &temp);
    GraceHashJoin intersect(&dedup1, &dedup2, kKeyColumns,
                            JoinTypeHash::kLeftSemi, memory_rows, &counters,
                            &temp);
    result_rows = DrainAndCount(&intersect);
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows);
  state.counters["result_rows"] = static_cast<double>(result_rows);
  state.counters["rows_spilled_per_iter"] = static_cast<double>(
      counters.rows_spilled / std::max<uint64_t>(1, state.iterations()));
  state.counters["hash_per_iter"] = static_cast<double>(
      counters.hash_computations / std::max<uint64_t>(1, state.iterations()));
}

BENCHMARK(SortBasedPlan)
    ->Arg(100000)->Arg(300000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(InSortAggPlan)
    ->Arg(100000)->Arg(300000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(HashBasedPlan)
    ->Arg(100000)->Arg(300000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
