// Table 3 operational form: producing offset-value codes for a filter's
// output. The filter theorem derives each output code with integer max
// operations on input codes; the baseline recomputes each output row's code
// against its predecessor, column by column.

#include <algorithm>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/accumulator.h"
#include "core/ovc_reference.h"
#include "exec/filter.h"
#include "exec/scan.h"

namespace ovc {
namespace {

constexpr uint64_t kRows = 1000000;
constexpr uint32_t kArity = 4;
constexpr uint64_t kDistinct = 8;

struct Fixture {
  Schema schema{kArity, 1};
  RowBuffer table{schema.total_columns()};
  InMemoryRun run{schema.total_columns()};

  Fixture() {
    table = bench::MakeTable(schema, kRows, kDistinct, /*seed=*/3,
                             /*sorted=*/true);
    run = bench::RunFromSorted(schema, table);
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// Keep ~1/selectivity of the rows.
bool Keep(const uint64_t* row, uint64_t selectivity) {
  return row[kArity] % selectivity == 0;
}

void FilterTheorem(benchmark::State& state) {
  const uint64_t selectivity = static_cast<uint64_t>(state.range(0));
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    RunScan scan(&fixture.schema, &fixture.run);
    FilterOperator filter(&scan, [selectivity](const uint64_t* row) {
      return Keep(row, selectivity);
    });
    filter.Open();
    RowBlock block(fixture.schema.total_columns());
    Ovc sum = 0;
    uint64_t rows = 0;
    uint32_t produced;
    while ((produced = filter.NextBatch(&block)) > 0) {
      for (uint32_t i = 0; i < produced; ++i) sum ^= block.code(i);
      rows += produced;
    }
    filter.Close();
    benchmark::DoNotOptimize(sum);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

void NaiveRecompute(benchmark::State& state) {
  const uint64_t selectivity = static_cast<uint64_t>(state.range(0));
  Fixture& fixture = GetFixture();
  Schema& schema = fixture.schema;
  OvcCodec codec(&schema);
  for (auto _ : state) {
    // Filter, then derive each survivor's code against the previous
    // survivor -- the expensive method.
    Ovc sum = 0;
    const uint64_t* prev = nullptr;
    for (size_t i = 0; i < fixture.table.size(); ++i) {
      const uint64_t* row = fixture.table.row(i);
      if (!Keep(row, selectivity)) continue;
      sum ^= prev == nullptr ? codec.MakeInitial(row)
                             : reference::AscendingOvc(codec, prev, row);
      prev = row;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

BENCHMARK(FilterTheorem)->Arg(2)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(NaiveRecompute)->Arg(2)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
