// Claim 1 core (Figures 1-3 machinery): tree-of-losers merge with
// offset-value coding vs the same tournament with full key comparisons,
// across merge fan-ins. Also prices the Section 5 duplicate bypass.
//
// Two input shapes. The default, 8 key columns x 4 distinct values, is
// duplicate-heavy: most rows take the duplicate bypass. OvcMergeLowDup
// merges 1 key column with about kTotalRows distinct values, so nearly
// every match is decided by unequal codes -- the shape that shows a change
// to the tournament's match kernel.

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/ablation/plain_loser_tree.h"
#include "bench_util.h"
#include "pq/loser_tree.h"

namespace ovc {
namespace {

constexpr uint64_t kTotalRows = 1000000;

/// Key columns and distinct values per column of one input shape.
struct Shape {
  uint32_t arity;
  uint64_t distinct;
};
constexpr Shape kDuplicateHeavy{8, 4};
constexpr Shape kLowDuplicate{1, kTotalRows};

struct Fixture {
  Schema schema;
  std::vector<std::unique_ptr<InMemoryRun>> runs;

  Fixture(Shape shape, uint32_t fan_in) : schema(shape.arity) {
    for (uint32_t r = 0; r < fan_in; ++r) {
      RowBuffer t = bench::MakeTable(schema, kTotalRows / fan_in,
                                     shape.distinct, /*seed=*/100 + r,
                                     /*sorted=*/true);
      runs.push_back(
          std::make_unique<InMemoryRun>(bench::RunFromSorted(schema, t)));
    }
  }
};

Fixture& GetFixture(Shape shape, uint32_t fan_in) {
  using Key = std::pair<uint32_t, uint32_t>;  // (arity, fan-in)
  static std::map<Key, std::unique_ptr<Fixture>>* cache =
      new std::map<Key, std::unique_ptr<Fixture>>();
  const Key key{shape.arity, fan_in};
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, std::make_unique<Fixture>(shape, fan_in)).first;
  }
  return *it->second;
}

void RunOvcMerge(benchmark::State& state, Shape shape) {
  const uint32_t fan_in = static_cast<uint32_t>(state.range(0));
  Fixture& fixture = GetFixture(shape, fan_in);
  OvcCodec codec(&fixture.schema);
  QueryCounters counters;
  KeyComparator comparator(&fixture.schema, &counters);
  for (auto _ : state) {
    std::vector<std::unique_ptr<InMemoryRunSource>> sources;
    std::vector<MergeSource*> raw;
    for (auto& run : fixture.runs) {
      sources.push_back(std::make_unique<InMemoryRunSource>(run.get()));
      raw.push_back(sources.back().get());
    }
    OvcMerger merger(&codec, &comparator, raw);
    RowRef ref;
    uint64_t n = 0;
    while (merger.Next(&ref)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kTotalRows);
  state.counters["column_cmp_per_row"] =
      static_cast<double>(counters.column_comparisons) /
      (static_cast<double>(state.iterations()) * kTotalRows);
  state.counters["bypass_per_iter"] = static_cast<double>(
      counters.merge_bypass_rows / std::max<uint64_t>(1, state.iterations()));
}

void OvcMerge(benchmark::State& state) { RunOvcMerge(state, kDuplicateHeavy); }

void OvcMergeLowDup(benchmark::State& state) {
  RunOvcMerge(state, kLowDuplicate);
}

void PlainMerge(benchmark::State& state) {
  const uint32_t fan_in = static_cast<uint32_t>(state.range(0));
  Fixture& fixture = GetFixture(kDuplicateHeavy, fan_in);
  QueryCounters counters;
  KeyComparator comparator(&fixture.schema, &counters);
  for (auto _ : state) {
    std::vector<std::unique_ptr<InMemoryRunSource>> sources;
    std::vector<MergeSource*> raw;
    for (auto& run : fixture.runs) {
      sources.push_back(std::make_unique<InMemoryRunSource>(run.get()));
      raw.push_back(sources.back().get());
    }
    ablation::PlainMerger merger(&comparator, raw);
    RowRef ref;
    uint64_t n = 0;
    while (merger.Next(&ref)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * kTotalRows);
  state.counters["column_cmp_per_row"] =
      static_cast<double>(counters.column_comparisons) /
      (static_cast<double>(state.iterations()) * kTotalRows);
}

BENCHMARK(OvcMerge)->Arg(2)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(OvcMergeLowDup)->Arg(8)->Arg(128)->Unit(benchmark::kMillisecond);
BENCHMARK(PlainMerge)->Arg(2)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
