// Shared helpers for the paper-reproduction benchmarks.
//
// All benchmarks follow the paper's Section 6 methodology: single execution
// thread, warm cache (inputs fully materialized in memory before the timed
// region), synthetic data shaped like the paper's ("each key column is an
// 8-byte integer with only a few distinct values"), measured with Google's
// benchmark library.

#ifndef OVC_BENCH_BENCH_UTIL_H_
#define OVC_BENCH_BENCH_UTIL_H_

#include <sched.h>
#include <sys/resource.h>

#include <cstdint>

#include "core/ovc.h"
#include "row/comparator.h"
#include "row/generator.h"
#include "row/row_buffer.h"
#include "sort/run.h"

namespace ovc::bench {

/// CPUs this process may run on (what `nproc` prints). A run with more
/// threads than this is not a scaling measurement.
inline int UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Minor page faults this process has taken so far. The difference across
/// a timed loop, per iteration, shows an allocation regression as a count:
/// every page a sort touches for the first time is one fault.
inline uint64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

/// Random table in the paper's shape.
inline RowBuffer MakeTable(const Schema& schema, uint64_t rows,
                           uint64_t distinct, uint64_t seed,
                           bool sorted = false) {
  RowBuffer buffer(schema.total_columns());
  GeneratorConfig config;
  config.rows = rows;
  config.distinct_per_column = distinct;
  config.seed = seed;
  config.sorted = sorted;
  GenerateRows(schema, config, &buffer);
  return buffer;
}

/// Sorted, coded in-memory run derived from a sorted buffer (codes computed
/// the naive way once, outside any timed region).
inline InMemoryRun RunFromSorted(const Schema& schema,
                                 const RowBuffer& sorted) {
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  InMemoryRun run(schema.total_columns());
  run.Reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    Ovc code = i == 0 ? codec.MakeInitial(sorted.row(i))
                      : codec.MakeFromRow(
                            sorted.row(i),
                            cmp.FirstDifference(sorted.row(i - 1),
                                                sorted.row(i), 0));
    run.Append(sorted.row(i), code);
  }
  return run;
}

}  // namespace ovc::bench

#endif  // OVC_BENCH_BENCH_UTIL_H_
