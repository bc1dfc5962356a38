#include "sort/run_generation.h"

#include <algorithm>

#include "pq/loser_tree.h"
#include "sort/run.h"

namespace ovc {

BatchSorter::BatchSorter(const Schema* schema, QueryCounters* counters,
                         uint32_t mini_run_rows)
    : codec_(schema),
      comparator_(schema, counters),
      mini_run_rows_(mini_run_rows) {
  OVC_CHECK(mini_run_rows_ >= 2);
}

void BatchSorter::Sort(const RowBuffer& buffer, RunSink* sink) {
  std::vector<const uint64_t*> rows;
  rows.reserve(buffer.size());
  for (size_t i = 0; i < buffer.size(); ++i) {
    rows.push_back(buffer.row(i));
  }
  PqSorter sorter(&codec_, &comparator_);
  RowRef ref;
  if (rows.size() <= mini_run_rows_) {
    // One mini-run is the whole batch: emit it without a 1-way merge.
    sorter.Reset(rows.data(), static_cast<uint32_t>(rows.size()));
    while (sorter.Next(&ref)) {
      sink->Accept(ref.cols, ref.ovc);
    }
    return;
  }
  // Sort cache-sized mini-runs with one reused tournament, back to back
  // into one run, then merge them all at once.
  InMemoryRun minis(codec_.schema().total_columns());
  minis.Reserve(rows.size());
  std::vector<InMemoryRunSource> slices;
  slices.reserve((rows.size() + mini_run_rows_ - 1) / mini_run_rows_);
  for (size_t begin = 0; begin < rows.size(); begin += mini_run_rows_) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<size_t>(mini_run_rows_, rows.size() - begin));
    sorter.Reset(rows.data() + begin, count);
    while (sorter.Next(&ref)) minis.Append(ref.cols, ref.ovc);
    slices.emplace_back(&minis, begin, begin + count);
  }

  std::vector<InMemoryRunSource*> sources;
  sources.reserve(slices.size());
  for (InMemoryRunSource& slice : slices) sources.push_back(&slice);
  // Concrete-source merger: the refill calls devirtualize (loser_tree.h).
  OvcMergerT<InMemoryRunSource> merger(&codec_, &comparator_,
                                       std::move(sources));
  while (merger.Next(&ref)) {
    sink->Accept(ref.cols, ref.ovc);
  }
}

}  // namespace ovc
