// Section 3's cost model: with tree-of-losers priority queues and
// offset-value coding, total column-value comparisons in a sort are bounded
// by N x K -- "importantly, there is no log(N) factor". This benchmark
// reports comparisons-per-row for in-memory sorts across N; the OVC series
// stays flat (<= K) while the plain tournament grows with log N.

#include <vector>

#include <benchmark/benchmark.h>

#include "bench/ablation/plain_loser_tree.h"
#include "bench_util.h"
#include "pq/loser_tree.h"

namespace ovc {
namespace {

constexpr uint32_t kArity = 8;
constexpr uint64_t kDistinct = 4;

void SortOnce(const Schema& schema, const RowBuffer& table, bool use_ovc,
              QueryCounters* counters) {
  OvcCodec codec(&schema);
  KeyComparator comparator(&schema, counters);
  std::vector<const uint64_t*> ptrs;
  ptrs.reserve(table.size());
  for (size_t i = 0; i < table.size(); ++i) ptrs.push_back(table.row(i));
  RowRef ref;
  if (use_ovc) {
    PqSorter sorter(&codec, &comparator);
    sorter.Reset(ptrs.data(), static_cast<uint32_t>(ptrs.size()));
    while (sorter.Next(&ref)) {
    }
  } else {
    ablation::PlainPqSorter sorter(&comparator);
    sorter.Reset(ptrs.data(), static_cast<uint32_t>(ptrs.size()));
    while (sorter.Next(&ref)) {
    }
  }
}

void RunCount(benchmark::State& state, bool use_ovc) {
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  Schema schema(kArity);
  RowBuffer table = bench::MakeTable(schema, rows, kDistinct, /*seed=*/rows);
  QueryCounters counters;
  for (auto _ : state) {
    counters.Reset();
    SortOnce(schema, table, use_ovc, &counters);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["column_cmp_per_row"] =
      static_cast<double>(counters.column_comparisons) / rows;
  state.counters["nk_bound_per_row"] = static_cast<double>(kArity);
}

void OvcComparisons(benchmark::State& state) { RunCount(state, true); }
void PlainComparisons(benchmark::State& state) { RunCount(state, false); }

BENCHMARK(OvcComparisons)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(PlainComparisons)
    ->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
