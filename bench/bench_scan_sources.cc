// Section 4.11: ordered scans as sources of offset-value codes. B-tree
// scan (codes stored explicitly), LSM forest scan (merge of prefix-
// truncated runs), RLE column-store scan (codes from segment arithmetic),
// and run-file scan (codes from prefix truncation) -- against re-deriving
// codes naively from a plain sorted array.

#include <memory>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/ovc_reference.h"
#include "exec/scan.h"
#include "sort/run_file.h"
#include "storage/btree.h"
#include "storage/column_store.h"
#include "storage/lsm.h"

namespace ovc {
namespace {

constexpr uint64_t kRows = 500000;
constexpr uint32_t kArity = 4;
constexpr uint64_t kDistinct = 8;

struct Fixture {
  Schema schema{kArity, 1};
  RowBuffer sorted{schema.total_columns()};
  InMemoryRun run{schema.total_columns()};
  std::unique_ptr<BTree> btree;
  std::unique_ptr<TempFileManager> temp;
  std::unique_ptr<LsmForest> lsm;
  std::unique_ptr<RleColumnStore> columns;
  std::string run_path;

  Fixture() {
    sorted = bench::MakeTable(schema, kRows, kDistinct, /*seed=*/66,
                              /*sorted=*/true);
    run = bench::RunFromSorted(schema, sorted);

    btree = std::make_unique<BTree>(&schema, nullptr, 128);
    for (size_t i = 0; i < sorted.size(); ++i) btree->Insert(sorted.row(i));

    temp = std::make_unique<TempFileManager>();
    LsmForest::Options options;
    options.memtable_rows = kRows / 8;
    lsm = std::make_unique<LsmForest>(&schema, nullptr, temp.get(), options);
    for (size_t i = 0; i < sorted.size(); ++i) lsm->Insert(sorted.row(i));
    lsm->Flush();

    columns = std::make_unique<RleColumnStore>(&schema);
    RunScan input(&schema, &run);
    columns->Build(&input);

    RunFileWriter writer(&schema, nullptr);
    run_path = temp->NewPath("bench-run");
    OVC_CHECK_OK(writer.Open(run_path));
    for (size_t i = 0; i < run.size(); ++i) {
      OVC_CHECK_OK(writer.Append(run.row(i), run.code(i)));
    }
    OVC_CHECK_OK(writer.Close());
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void DrainOperator(Operator* op) {
  op->Open();
  RowBlock block(op->schema().total_columns());
  Ovc sum = 0;
  uint64_t n = 0;
  uint32_t produced;
  while ((produced = op->NextBatch(&block)) > 0) {
    for (uint32_t i = 0; i < produced; ++i) sum ^= block.code(i);
    n += produced;
  }
  op->Close();
  benchmark::DoNotOptimize(sum);
  benchmark::DoNotOptimize(n);
}

void BTreeScan(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto scan = fixture.btree->Scan();
    DrainOperator(scan.get());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

void LsmForestScan(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto scan = fixture.lsm->ScanAll();
    DrainOperator(scan.get());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

void RleColumnScan(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    auto scan = fixture.columns->CreateScan();
    DrainOperator(scan.get());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

void RunFileScan(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  for (auto _ : state) {
    RunFileReader reader(&fixture.schema);
    OVC_CHECK_OK(reader.Open(fixture.run_path));
    const uint64_t* row = nullptr;
    Ovc code = 0, sum = 0;
    while (reader.Next(&row, &code)) sum ^= code;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

void NaiveDerivationBaseline(benchmark::State& state) {
  Fixture& fixture = GetFixture();
  OvcCodec codec(&fixture.schema);
  for (auto _ : state) {
    Ovc sum = 0;
    for (size_t i = 1; i < fixture.sorted.size(); ++i) {
      sum ^= reference::AscendingOvc(codec, fixture.sorted.row(i - 1),
                                     fixture.sorted.row(i));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}

BENCHMARK(BTreeScan)->Unit(benchmark::kMillisecond);
BENCHMARK(LsmForestScan)->Unit(benchmark::kMillisecond);
BENCHMARK(RleColumnScan)->Unit(benchmark::kMillisecond);
BENCHMARK(RunFileScan)->Unit(benchmark::kMillisecond);
BENCHMARK(NaiveDerivationBaseline)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
