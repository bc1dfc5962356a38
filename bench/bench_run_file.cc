// Spill I/O: one prefix-truncated run file written, then read back through
// RunFileReader, which rebuilds every row and its offset-value code with no
// column comparison (Section 4.12). Prices the layer under every spill --
// external sort runs, in-sort aggregation, hash partitions, LSM runs --
// apart from run generation and merging. Reports rows/s and bytes/s over
// the round trip (the file's bytes count once).
//
// Shapes ({rows, key columns}), 256 distinct values per column, no
// payload:
//  * 1,000,000 x 1 key: almost every row repeats its predecessor's key, so
//    a row is its 2-byte offset alone -- per-row overhead.
//  * 1,000,000 x 3 keys: the key shape of the end-to-end in-sort distinct
//    on `(site, day, visitor)`, mostly 10 to 26 bytes a row.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "sort/run_file.h"

namespace ovc {
namespace {

void RunFileRoundtrip(benchmark::State& state) {
  const uint64_t rows = static_cast<uint64_t>(state.range(0));
  const Schema schema(static_cast<uint32_t>(state.range(1)));
  const RowBuffer table = bench::MakeTable(schema, rows, /*distinct=*/256,
                                           /*seed=*/57, /*sorted=*/true);
  const InMemoryRun run = bench::RunFromSorted(schema, table);
  TempFileManager temp;
  const std::string path = temp.NewPath("bench-run");
  QueryCounters counters;
  for (auto _ : state) {
    RunFileWriter writer(&schema, &counters);
    OVC_CHECK_OK(writer.Open(path));
    for (size_t i = 0; i < run.size(); ++i) {
      OVC_CHECK_OK(writer.Append(run.row(i), run.code(i)));
    }
    OVC_CHECK_OK(writer.Close());

    RunFileReader reader(&schema);
    OVC_CHECK_OK(reader.Open(path));
    const uint64_t* row = nullptr;
    Ovc code = 0;
    uint64_t n = 0;
    Ovc code_sum = 0;
    while (reader.Next(&row, &code)) {
      ++n;
      code_sum += code;
    }
    OVC_CHECK(n == rows);
    benchmark::DoNotOptimize(code_sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * rows));
  state.SetBytesProcessed(static_cast<int64_t>(counters.bytes_spilled));
  state.counters["bytes_per_row"] =
      static_cast<double>(counters.bytes_spilled) /
      static_cast<double>(counters.rows_spilled);
}

BENCHMARK(RunFileRoundtrip)
    ->Args({1000000, 1})
    ->Args({1000000, 3})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ovc
