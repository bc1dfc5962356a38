// Batched execution:
//
//  * scan -> filter -> limit pipeline drained through NextBatch, with the
//    filter's predicate evaluated per row or per block, at several block
//    sizes -- same operators, same rows, only the predicate dispatch and
//    the block size differ. Two filter shapes: a range predicate on
//    the leading sort-key column (long runs over the sorted stream -- the
//    canonical ordered-stream filter, and the best case for span-wise
//    compaction) and a predicate on an uncorrelated payload column (50%
//    random keeps: branch-hostile worst case for every engine).
//  * tree-of-losers merge with inputs pulled through the MergeSource vtable
//    vs the concrete-source merger (OvcMergerT<InMemoryRunSource>) emitting
//    block-sized output, both materializing their output identically. The
//    duplicate-heavy shape exercises the Section 5 bypass, where the
//    per-row work is mostly the source refill itself and devirtualizing it
//    pays the most.
//
// The pipeline is built on the heap behind an opaque Operator* -- exactly
// how PhysicalPlan hands an operator tree to PlanExecutor -- so it pays the
// per-block virtual dispatch a real plan pays; building the operators as
// stack locals in this translation unit would let the compiler
// devirtualize it.
//
// Methodology as everywhere in bench/: single thread, warm inputs, paper-
// shaped data.

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "exec/filter.h"
#include "exec/limit.h"
#include "exec/scan.h"
#include "pq/loser_tree.h"

namespace ovc {
namespace {

constexpr uint64_t kRows = 1 << 20;
constexpr uint64_t kDistinct = 16;

// ---------------------------------------------------------------------------
// Pipeline: scan -> filter (~50% pass) -> limit (no early cutoff; prices
// pure pass-through)
// ---------------------------------------------------------------------------

struct PipelineFixture {
  Schema schema{2, 2};
  RowBuffer table;
  InMemoryRun run;

  PipelineFixture()
      : table(bench::MakeTable(schema, kRows, kDistinct, /*seed=*/1,
                               /*sorted=*/true)),
        run(bench::RunFromSorted(schema, table)) {}
};

PipelineFixture& GetPipelineFixture() {
  static PipelineFixture* fixture = new PipelineFixture();
  return *fixture;
}

// Range-style predicate on the leading sort-key column: over the sorted
// stream, keeps/drops alternate in long runs (~50% pass overall).
bool KeepRowKey(const uint64_t* row) { return row[0] % 2 == 0; }
void KeepRowsKey(const RowBlock& block, uint8_t* keep) {
  for (uint32_t i = 0; i < block.size(); ++i) {
    keep[i] = block.row(i)[0] % 2 == 0;
  }
}

// Predicate on an uncorrelated payload column: ~50% pass, decided
// row-by-row at random -- branch-prediction worst case.
bool KeepRowPayload(const uint64_t* row) { return row[2] % 2 == 0; }
void KeepRowsPayload(const RowBlock& block, uint8_t* keep) {
  for (uint32_t i = 0; i < block.size(); ++i) {
    keep[i] = block.row(i)[2] % 2 == 0;
  }
}

/// Owns a heap-allocated operator tree and exposes only the root pointer,
/// PhysicalPlan-style.
struct Pipeline {
  std::vector<std::unique_ptr<Operator>> operators;
  Operator* root = nullptr;

  Operator* Own(std::unique_ptr<Operator> op) {
    operators.push_back(std::move(op));
    return operators.back().get();
  }
};

enum class FilterShape { kKey, kPayload };

Pipeline BuildPipeline(PipelineFixture& f, FilterShape shape,
                       bool block_predicate) {
  const bool key = shape == FilterShape::kKey;
  Pipeline p;
  Operator* scan = p.Own(std::make_unique<RunScan>(&f.schema, &f.run));
  Operator* filter = p.Own(std::make_unique<FilterOperator>(
      scan, key ? KeepRowKey : KeepRowPayload,
      block_predicate ? (key ? KeepRowsKey : KeepRowsPayload)
                      : BlockPredicate(nullptr)));
  p.root = p.Own(std::make_unique<LimitOperator>(filter, kRows));
  return p;
}

void RunBatched(benchmark::State& state, FilterShape shape,
                bool block_predicate, uint32_t batch_rows) {
  PipelineFixture& f = GetPipelineFixture();
  for (auto _ : state) {
    Pipeline pipeline = BuildPipeline(f, shape, block_predicate);
    Operator* root = pipeline.root;
    benchmark::DoNotOptimize(root);
    root->Open();
    RowBlock block(f.schema.total_columns(), batch_rows);
    uint64_t n = 0;
    uint64_t sum = 0;
    uint32_t produced;
    while ((produced = root->NextBatch(&block)) > 0) {
      for (uint32_t i = 0; i < produced; ++i) {
        sum += block.row(i)[2];
      }
      n += produced;
    }
    root->Close();
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

void ScanFilterLimit_KeyFilter_BatchedRowPredicate(benchmark::State& state) {
  RunBatched(state, FilterShape::kKey, /*block_predicate=*/false,
             static_cast<uint32_t>(state.range(0)));
}
void ScanFilterLimit_KeyFilter_Batched(benchmark::State& state) {
  RunBatched(state, FilterShape::kKey, /*block_predicate=*/true,
             static_cast<uint32_t>(state.range(0)));
}
void ScanFilterLimit_PayloadFilter_Batched(benchmark::State& state) {
  RunBatched(state, FilterShape::kPayload, /*block_predicate=*/true,
             static_cast<uint32_t>(state.range(0)));
}

// ---------------------------------------------------------------------------
// Merge: virtual MergeSource pulls vs the devirtualized concrete-source
// merger. Both materialize output into RowBlocks so the only difference is
// how the tournament refills (vtable vs inlined concrete Next).
// ---------------------------------------------------------------------------

struct MergeShape {
  uint32_t arity;
  uint64_t distinct;
};

// range(1) selects the shape: 0 = duplicate-heavy (4 distinct keys; the
// Section 5 bypass serves most rows, so the refill dominates), 1 = moderate
// (comparison-dominated).
constexpr MergeShape kMergeShapes[] = {{2, 2}, {8, 4}};

struct MergeFixture {
  Schema schema;
  std::vector<std::unique_ptr<InMemoryRun>> runs;

  MergeFixture(uint32_t fan_in, MergeShape shape) : schema(shape.arity) {
    for (uint32_t r = 0; r < fan_in; ++r) {
      RowBuffer t = bench::MakeTable(schema, kRows / fan_in, shape.distinct,
                                     /*seed=*/100 + r, /*sorted=*/true);
      runs.push_back(
          std::make_unique<InMemoryRun>(bench::RunFromSorted(schema, t)));
    }
  }
};

MergeFixture& GetMergeFixture(uint32_t fan_in, int shape_index) {
  static std::map<std::pair<uint32_t, int>, std::unique_ptr<MergeFixture>>*
      cache = new std::map<std::pair<uint32_t, int>,
                           std::unique_ptr<MergeFixture>>();
  auto key = std::make_pair(fan_in, shape_index);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache
             ->emplace(key, std::make_unique<MergeFixture>(
                                fan_in, kMergeShapes[shape_index]))
             .first;
  }
  return *it->second;
}

void Merge_VirtualSources(benchmark::State& state) {
  const uint32_t fan_in = static_cast<uint32_t>(state.range(0));
  MergeFixture& f = GetMergeFixture(fan_in,
                                    static_cast<int>(state.range(1)));
  OvcCodec codec(&f.schema);
  KeyComparator comparator(&f.schema, nullptr);
  for (auto _ : state) {
    std::vector<std::unique_ptr<InMemoryRunSource>> sources;
    std::vector<MergeSource*> raw;
    for (auto& run : f.runs) {
      sources.push_back(std::make_unique<InMemoryRunSource>(run.get()));
      raw.push_back(sources.back().get());
    }
    OvcMerger merger(&codec, &comparator, raw);
    RowBlock block(f.schema.total_columns());
    RowRef ref;
    uint64_t n = 0;
    while (merger.Next(&ref)) {
      if (block.full()) block.Clear();
      block.Append(ref.cols, ref.ovc);
      ++n;
    }
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(block.size());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

void Merge_DevirtualizedBlocks(benchmark::State& state) {
  const uint32_t fan_in = static_cast<uint32_t>(state.range(0));
  MergeFixture& f = GetMergeFixture(fan_in,
                                    static_cast<int>(state.range(1)));
  OvcCodec codec(&f.schema);
  KeyComparator comparator(&f.schema, nullptr);
  for (auto _ : state) {
    std::vector<std::unique_ptr<InMemoryRunSource>> sources;
    std::vector<InMemoryRunSource*> raw;
    for (auto& run : f.runs) {
      sources.push_back(std::make_unique<InMemoryRunSource>(run.get()));
      raw.push_back(sources.back().get());
    }
    OvcMergerT<InMemoryRunSource> merger(&codec, &comparator, raw);
    RowBlock block(f.schema.total_columns());
    uint64_t n = 0;
    uint32_t produced;
    while ((produced = merger.NextBlock(&block)) > 0) {
      n += produced;
    }
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(block.size());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

BENCHMARK(ScanFilterLimit_KeyFilter_BatchedRowPredicate)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ScanFilterLimit_KeyFilter_Batched)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ScanFilterLimit_PayloadFilter_Batched)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(Merge_VirtualSources)
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({8, 1})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(Merge_DevirtualizedBlocks)
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({8, 1})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
