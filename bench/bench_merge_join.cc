// Claim 1, merge join: "offset-value codes from the in-sort aggregation
// operators speed up row comparisons in the merge join." The engine's
// OVC merge join vs a hand-written merge join that compares keys column by
// column over the same inputs.

#include <algorithm>
#include <cstring>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "exec/merge_join.h"
#include "exec/scan.h"

namespace ovc {
namespace {

constexpr uint64_t kRows = 500000;
constexpr uint32_t kArity = 8;
constexpr uint64_t kDistinct = 3;

struct Fixture {
  Schema schema{kArity, 1};
  RowBuffer left{schema.total_columns()};
  RowBuffer right{schema.total_columns()};
  InMemoryRun left_run{schema.total_columns()};
  InMemoryRun right_run{schema.total_columns()};

  Fixture() {
    left = bench::MakeTable(schema, kRows, kDistinct, /*seed=*/71,
                            /*sorted=*/true);
    right = bench::MakeTable(schema, kRows, kDistinct, /*seed=*/72,
                             /*sorted=*/true);
    left_run = bench::RunFromSorted(schema, left);
    right_run = bench::RunFromSorted(schema, right);
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void OvcMergeJoin(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  QueryCounters counters;
  for (auto _ : state) {
    RunScan left(&fixture.schema, &fixture.left_run);
    RunScan right(&fixture.schema, &fixture.right_run);
    MergeJoin join(&left, &right, JoinType::kLeftSemi, &counters);
    const uint64_t n = DrainAndCount(&join);
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 2 * kRows);
  state.counters["column_cmp_per_iter"] = static_cast<double>(
      counters.column_comparisons / std::max<uint64_t>(1, state.iterations()));
}

void PlainMergeJoin(benchmark::State& state) {
  // Full-comparison merge join (left semi) over the same sorted inputs,
  // materializing output rows like the operator does.
  Fixture& fixture = GetFixture();
  QueryCounters counters;
  KeyComparator cmp(&fixture.schema, &counters);
  std::vector<uint64_t> out_row(fixture.schema.total_columns());
  for (auto _ : state) {
    uint64_t n = 0;
    size_t li = 0, ri = 0;
    const size_t ln = fixture.left.size(), rn = fixture.right.size();
    while (li < ln && ri < rn) {
      const int c = cmp.Compare(fixture.left.row(li), fixture.right.row(ri));
      if (c < 0) {
        ++li;
      } else if (c > 0) {
        ++ri;
      } else {
        std::memcpy(out_row.data(), fixture.left.row(li),
                    out_row.size() * sizeof(uint64_t));
        benchmark::DoNotOptimize(out_row.data());
        ++n;  // emit left row
        ++li;
      }
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 2 * kRows);
  state.counters["column_cmp_per_iter"] = static_cast<double>(
      counters.column_comparisons / std::max<uint64_t>(1, state.iterations()));
}

BENCHMARK(OvcMergeJoin)->Unit(benchmark::kMillisecond);
BENCHMARK(PlainMergeJoin)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
