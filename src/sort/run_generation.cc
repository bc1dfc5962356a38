#include "sort/run_generation.h"

#include <algorithm>

namespace ovc {

BatchSorter::BatchSorter(const Schema* schema, QueryCounters* counters,
                         uint32_t mini_run_rows)
    : codec_(schema),
      comparator_(schema, counters),
      mini_run_rows_(mini_run_rows),
      sorter_(&codec_, &comparator_),
      chunk_(schema->total_columns()) {
  OVC_CHECK(mini_run_rows_ >= 2);
}

void BatchSorter::AddRows(const uint64_t* rows, uint64_t count) {
  while (count > 0) {
    const uint64_t n =
        std::min<uint64_t>(count, mini_run_rows_ - chunk_.size());
    chunk_.AppendRows(rows, n);
    rows += n * chunk_.width();
    count -= n;
    rows_ += n;
    if (chunk_.size() == mini_run_rows_) SortChunk();
  }
}

void BatchSorter::SortChunk() {
  const uint32_t count = static_cast<uint32_t>(chunk_.size());
  if (count == 0) return;
  chunk_rows_.clear();
  for (uint32_t i = 0; i < count; ++i) chunk_rows_.push_back(chunk_.row(i));
  if (used_ == minis_.size()) {
    minis_.push_back(std::make_unique<InMemoryRun>(chunk_.width()));
  }
  InMemoryRun* mini = minis_[used_++].get();
  mini->Clear();
  mini->Reserve(count);
  sorter_.Reset(chunk_rows_.data(), count);
  RowRef ref;
  while (sorter_.Next(&ref)) mini->Append(ref.cols, ref.ovc);
  chunk_.Clear();
}

void BatchSorter::Finish() {
  SortChunk();
  sources_.clear();
  for (size_t i = 0; i < used_; ++i) sources_.emplace_back(minis_[i].get());
  if (sources_.size() > 1) {
    // Concrete-source merger: the refill calls devirtualize (loser_tree.h).
    std::vector<InMemoryRunSource*> inputs;
    for (InMemoryRunSource& source : sources_) inputs.push_back(&source);
    merger_ = std::make_unique<OvcMergerT<InMemoryRunSource>>(
        &codec_, &comparator_, std::move(inputs));
  }
}

bool BatchSorter::Next(RowRef* out) {
  if (merger_ != nullptr) return merger_->Next(out);
  // One mini-run is the whole batch: served without a 1-way merge.
  return !sources_.empty() && sources_[0].Next(&out->cols, &out->ovc);
}

uint32_t BatchSorter::NextBlock(RowBlock* out) {
  if (merger_ != nullptr) return merger_->NextBlock(out);
  if (sources_.empty()) {
    out->Clear();
    return 0;
  }
  return sources_[0].NextBlock(out);
}

void BatchSorter::WriteRun(RunSink* sink) {
  Finish();
  RowRef ref;
  while (Next(&ref)) sink->Accept(ref.cols, ref.ovc);
  Clear();
}

void BatchSorter::Clear() {
  chunk_.Clear();
  used_ = 0;
  rows_ = 0;
  sources_.clear();
  merger_.reset();
}

}  // namespace ovc
