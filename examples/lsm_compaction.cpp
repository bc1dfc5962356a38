// Napa-style log-structured merge-forest: "ingestion (run generation),
// compaction (merging), and query processing in log-structured
// merge-forests rely heavily on sorting and merging" (Section 7). This
// example ingests a stream into an LSM forest, queries it mid-stream (a
// tree-of-losers merge over all runs, producing codes), compacts, and
// queries again -- all code paths driven by offset-value coding.
//
//   ./build/examples/lsm_compaction

#include <cstdio>

#include "common/counters.h"
#include "common/rng.h"
#include "common/temp_file.h"
#include "exec/aggregate.h"
#include "storage/lsm.h"

using namespace ovc;

namespace {

void Query(const char* label, LsmForest* forest, QueryCounters* counters) {
  auto scan = forest->ScanAll();
  InStreamAggregate agg(scan.get(), /*group_prefix=*/2, {{AggFn::kCount, 0}},
                        counters);
  agg.Open();
  BlockCursor output(&agg);
  RowRef ref;
  uint64_t groups = 0, rows = 0;
  while (output.Next(&ref)) {
    ++groups;
    rows += ref.cols[2];
  }
  agg.Close();
  std::printf("%s: %lu rows in %lu groups across %lu runs\n", label,
              static_cast<unsigned long>(rows),
              static_cast<unsigned long>(groups),
              static_cast<unsigned long>(forest->run_count()));
}

}  // namespace

int main() {
  Schema schema(/*key_arity=*/2, /*payload_columns=*/1);
  QueryCounters counters;
  TempFileManager temp;
  LsmForest::Options options;
  options.memtable_rows = 64 * 1024;
  LsmForest forest(&schema, &counters, &temp, options);

  // Ingest a million updates.
  Rng rng(99);
  for (uint64_t i = 0; i < 1000000; ++i) {
    const uint64_t row[3] = {rng.Uniform(100), rng.Uniform(100), i};
    forest.Insert(row);
  }

  Query("before compaction", &forest, &counters);

  const uint64_t comparisons_before = counters.column_comparisons;
  forest.CompactAll();
  std::printf("compaction merged runs into one (%lu column comparisons, "
              "%lu code comparisons so far)\n",
              static_cast<unsigned long>(counters.column_comparisons -
                                         comparisons_before),
              static_cast<unsigned long>(counters.code_comparisons));

  Query("after compaction ", &forest, &counters);

  std::printf("\ntotals: column_cmp=%lu code_cmp=%lu rows_spilled=%lu "
              "merge_bypass=%lu\n",
              static_cast<unsigned long>(counters.column_comparisons),
              static_cast<unsigned long>(counters.code_comparisons),
              static_cast<unsigned long>(counters.rows_spilled),
              static_cast<unsigned long>(counters.merge_bypass_rows));
  return 0;
}
