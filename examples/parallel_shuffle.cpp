// Order-preserving shuffle (Section 4.10): partition a sorted, coded
// stream across "workers", aggregate each partition independently, and
// merge the partition results back into one sorted, coded stream with a
// tree-of-losers merging exchange driven by producer threads.
//
// The splitting side derives per-partition codes with the filter theorem
// (each partition is a selection from the overall stream); the merging side
// consumes and reproduces codes like a merge step of an external sort.
//
//   ./build/examples/parallel_shuffle

#include <cstdio>
#include <memory>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "core/ovc_checker.h"
#include "exec/aggregate.h"
#include "exec/exchange.h"
#include "exec/scan.h"
#include "exec/sort_operator.h"
#include "row/generator.h"

using namespace ovc;

int main() {
  constexpr uint32_t kPartitions = 4;
  Schema schema(/*key_arity=*/3, /*payload_columns=*/1);
  RowBuffer table(schema.total_columns());
  GeneratorConfig config;
  config.rows = 1000000;
  config.distinct_per_column = 8;
  config.seed = 123;
  GenerateRows(schema, config, &table);

  QueryCounters counters;
  TempFileManager temp;

  // Producer side: sort once, split by key hash (equal keys co-located).
  BufferScan scan(&schema, &table);
  SortOperator sort(&scan, &counters, &temp, SortConfig());
  SplitExchange split(&sort, kPartitions, SplitExchange::Policy::kHashKey,
                      &counters);

  // Per-partition "workers": in-stream aggregation on each partition.
  // Each worker gets its own counters; the pipelines run concurrently
  // under the merging exchange's producer threads.
  std::vector<QueryCounters> worker_counters(kPartitions);
  std::vector<std::unique_ptr<InStreamAggregate>> workers;
  std::vector<Operator*> worker_outputs;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    workers.push_back(std::make_unique<InStreamAggregate>(
        split.partition(p), /*group_prefix=*/3,
        std::vector<AggregateSpec>{{AggFn::kCount, 0}, {AggFn::kSum, 3}},
        &worker_counters[p]));
    worker_outputs.push_back(workers.back().get());
  }

  // Consumer side: merging exchange re-establishes one global order.
  // NOTE: the partitions share the upstream sort, so the split (not the
  // threads) serializes upstream pulls; the exchange still demonstrates
  // the threaded many-to-one merge.
  MergeExchange::Options options;
  options.threaded = false;  // partitions share the child operator
  MergeExchange merge(worker_outputs, &counters, options);

  merge.Open();
  OvcStreamChecker checker(&merge.schema());
  BlockCursor output(&merge);
  RowRef ref;
  uint64_t groups = 0, rows = 0;
  bool valid = true;
  while (output.Next(&ref)) {
    valid = checker.Observe(ref.cols, ref.ovc) && valid;
    ++groups;
    rows += ref.cols[3];
  }
  merge.Close();

  std::printf("input rows:             %lu\n",
              static_cast<unsigned long>(config.rows));
  std::printf("partitions:             %u\n", kPartitions);
  std::printf("merged groups:          %lu (covering %lu rows)\n",
              static_cast<unsigned long>(groups),
              static_cast<unsigned long>(rows));
  std::printf("merged stream valid:    %s (sortedness + codes re-checked "
              "row by row)\n",
              valid ? "yes" : "NO");
  uint64_t worker_cmp = 0;
  for (const auto& c : worker_counters) worker_cmp += c.column_comparisons;
  std::printf("column comparisons:     %lu (sort+split+merge) + %lu "
              "(workers)\n",
              static_cast<unsigned long>(counters.column_comparisons),
              static_cast<unsigned long>(worker_cmp));
  return valid ? 0 : 1;
}
