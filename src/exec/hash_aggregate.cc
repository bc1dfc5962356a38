#include "exec/hash_aggregate.h"

#include <cstring>
#include <limits>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "exec/hash_join.h"  // HashKeyPrefix
#include "sort/run_file.h"

namespace ovc {

HashAggregate::HashAggregate(Operator* child, uint32_t group_prefix,
                             std::vector<AggregateSpec> aggregates,
                             uint64_t memory_groups, QueryCounters* counters,
                             TempFileManager* temp, uint32_t partitions,
                             FallbackPolicy fallback, SortConfig sort_config)
    : child_(child),
      group_prefix_(group_prefix),
      aggregates_(std::move(aggregates)),
      memory_groups_(memory_groups),
      partitions_(partitions),
      fallback_(fallback),
      sort_config_(sort_config),
      output_schema_(InStreamAggregate::MakeOutputSchema(
          child->schema(), group_prefix, aggregates_.size())),
      counters_(counters),
      temp_(temp),
      group_states_(group_prefix + std::max<uint32_t>(
                                       1, static_cast<uint32_t>(
                                              aggregates_.size()))),
      output_queue_(output_schema_.total_columns()) {
  OVC_CHECK(group_prefix >= 1);
  OVC_CHECK(group_prefix <= child->schema().key_arity());
  OVC_CHECK(memory_groups >= 1);
  OVC_CHECK(partitions >= 2);
}

void HashAggregate::SeedGroup(uint64_t* group_state) {
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    switch (aggregates_[a].fn) {
      case AggFn::kCount:
      case AggFn::kSum:
        group_state[group_prefix_ + a] = 0;
        break;
      case AggFn::kMin:
        group_state[group_prefix_ + a] = std::numeric_limits<uint64_t>::max();
        break;
      case AggFn::kMax:
        group_state[group_prefix_ + a] = 0;
        break;
    }
  }
}

void HashAggregate::AccumulateInto(uint64_t* group_state,
                                   const uint64_t* row) {
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    uint64_t& acc = group_state[group_prefix_ + a];
    switch (aggregates_[a].fn) {
      case AggFn::kCount:
        ++acc;
        break;
      case AggFn::kSum:
        acc += row[aggregates_[a].input_col];
        break;
      case AggFn::kMin:
        acc = std::min(acc, row[aggregates_[a].input_col]);
        break;
      case AggFn::kMax:
        acc = std::max(acc, row[aggregates_[a].input_col]);
        break;
    }
  }
}

bool HashAggregate::TryAccumulate(const uint64_t* row) {
  const uint64_t h = HashKeyPrefix(row, group_prefix_, counters_);
  auto range = table_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    uint64_t* state = group_states_.mutable_row(it->second);
    bool equal = true;
    for (uint32_t c = 0; c < group_prefix_; ++c) {
      if (counters_ != nullptr) ++counters_->column_comparisons;
      if (state[c] != row[c]) {
        equal = false;
        break;
      }
    }
    if (equal) {
      AccumulateInto(state, row);
      return true;
    }
  }
  if (group_states_.size() >= memory_groups_ ||
      OVC_FAILPOINT("hash_aggregate.force_overflow")) {
    return false;  // table full, group absent
  }
  uint64_t* state = group_states_.AppendRow();
  std::memcpy(state, row, group_prefix_ * sizeof(uint64_t));
  SeedGroup(state);
  AccumulateInto(state, row);
  table_.emplace(h, static_cast<uint32_t>(group_states_.size() - 1));
  return true;
}

void HashAggregate::FlushTableToQueue() {
  for (size_t i = 0; i < group_states_.size(); ++i) {
    const uint64_t* state = group_states_.row(i);
    uint64_t* dst = output_queue_.AppendRow();
    std::memcpy(dst, state, group_prefix_ * sizeof(uint64_t));
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      dst[group_prefix_ + a] = state[group_prefix_ + a];
    }
  }
  group_states_.Clear();
  table_.clear();
}

uint32_t HashAggregate::PartitionOf(const uint64_t* row, uint32_t level) {
  uint64_t h = HashKeyPrefix(row, group_prefix_, counters_);
  // Salt by level so that recursive repartitioning separates keys that
  // collided at the previous level.
  h ^= 0x9e3779b97f4a7c15ULL * (level + 1);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return static_cast<uint32_t>(h % partitions_);
}

void HashAggregate::BeginSortMergeFallback() {
  // The group table is full: switch to the sort-based plan mid-query.
  // Every resident state row and every remaining input row feeds one
  // collapsing external sort on the group key (state rows have the output
  // schema), which folds groups already while it generates runs.
  OVC_TRACE_SPAN("hash_aggregate.fallback");
  fell_back_ = true;
  if (counters_ != nullptr) ++counters_->hash_agg_fallbacks;
  OVC_METRIC_COUNTER("hash_aggregate.fallbacks",
                     "Hash aggregations that degraded to in-sort")
      .Increment();
  fb_sort_ = std::make_unique<ExternalSort>(&output_schema_,
                                            StateMergeFns(aggregates_),
                                            counters_, temp_, sort_config_);
  // Resident rows are wider than state rows when there are no aggregates
  // (the table pads to one accumulator column); Add copies exactly the
  // state schema's columns, so passing the wider row is safe.
  for (size_t i = 0; i < group_states_.size(); ++i) {
    fb_sort_->Add(group_states_.row(i));
  }
  group_states_.Clear();
  table_.clear();
  fb_state_row_.assign(output_schema_.total_columns(), 0);
}

void HashAggregate::AddInputRowToFallback(const uint64_t* row) {
  MakeStateRow(row, group_prefix_, aggregates_, fb_state_row_.data());
  fb_sort_->Add(fb_state_row_.data());
}

void HashAggregate::Degrade(const Status& status) {
  failed_ = true;
  if (temp_ != nullptr) temp_->RecordError(status);
}

void HashAggregate::Open() {
  output_queue_.Clear();
  queue_pos_ = 0;
  pending_partitions_.clear();
  group_states_.Clear();
  table_.clear();
  fell_back_ = false;
  failed_ = false;
  fb_sort_.reset();

  const Schema& in = child_->schema();
  OvcCodec codec(&in);
  std::vector<std::unique_ptr<RunFileWriter>> writers;
  std::vector<std::string> paths;
  child_->Open();
  BlockCursor input(child_);
  RowRef ref;
  while (input.Next(&ref)) {
    if (fell_back_) {
      AddInputRowToFallback(ref.cols);
      continue;
    }
    if (TryAccumulate(ref.cols)) continue;
    if (fallback_ == FallbackPolicy::kSortMerge) {
      BeginSortMergeFallback();
      AddInputRowToFallback(ref.cols);
      continue;
    }
    // Spill path: route the row to its hash partition.
    if (writers.empty()) {
      writers.resize(partitions_);
      paths.resize(partitions_);
      for (uint32_t p = 0; p < partitions_; ++p) {
        writers[p] = std::make_unique<RunFileWriter>(&in, counters_);
        paths[p] = temp_->NewPath("hagg-part");
        Status st = writers[p]->Open(paths[p]);
        if (!st.ok()) {
          child_->Close();
          Degrade(st);
          return;
        }
      }
    }
    const uint32_t p = PartitionOf(ref.cols, /*level=*/0);
    Status st = writers[p]->Append(ref.cols, codec.MakeFromRow(ref.cols, 0));
    if (!st.ok()) {
      child_->Close();
      Degrade(st);
      return;
    }
  }
  child_->Close();
  if (fell_back_) {
    const Status st = fb_sort_->Finish();
    if (!st.ok()) Degrade(st);
    return;
  }
  for (uint32_t p = 0; p < writers.size(); ++p) {
    Status st = writers[p]->Close();
    if (!st.ok()) {
      Degrade(st);
      return;
    }
    pending_partitions_.push_back(PendingPartition{paths[p], 1});
  }
  FlushTableToQueue();
}

bool HashAggregate::ProcessNextPartition() {
  while (!pending_partitions_.empty() && !failed_) {
    const PendingPartition pending = pending_partitions_.back();
    pending_partitions_.pop_back();
    // Runaway-recursion guard: with level-salted partitioning, each level
    // divides distinct keys by the fan-out; eight levels cover any input.
    OVC_CHECK(pending.level <= 8);
    output_queue_.Clear();
    queue_pos_ = 0;

    const Schema& in = child_->schema();
    OvcCodec codec(&in);
    std::vector<std::unique_ptr<RunFileWriter>> writers;
    std::vector<std::string> paths;
    RunFileReader reader(&in, temp_);
    Status st = reader.Open(pending.path);
    const uint64_t* row = nullptr;
    Ovc code = 0;
    while (st.ok() && reader.Next(&row, &code)) {
      if (TryAccumulate(row)) continue;
      // Still too many groups: repartition recursively.
      if (writers.empty()) {
        writers.resize(partitions_);
        paths.resize(partitions_);
        for (uint32_t p = 0; p < partitions_ && st.ok(); ++p) {
          writers[p] = std::make_unique<RunFileWriter>(&in, counters_);
          paths[p] = temp_->NewPath("hagg-part");
          st = writers[p]->Open(paths[p]);
        }
        if (!st.ok()) break;
      }
      const uint32_t p = PartitionOf(row, pending.level);
      st = writers[p]->Append(row, codec.MakeFromRow(row, 0));
    }
    for (uint32_t p = 0; p < writers.size() && st.ok(); ++p) {
      st = writers[p]->Close();
      pending_partitions_.push_back(
          PendingPartition{paths[p], pending.level + 1});
    }
    if (!st.ok()) {
      Degrade(st);
      return false;
    }
    FlushTableToQueue();
    if (output_queue_.size() > 0) return true;
  }
  return false;
}

uint32_t HashAggregate::NextBatch(RowBlock* out) {
  out->Clear();
  if (failed_) return 0;
  if (fell_back_) {
    // Collapsed state rows ARE output rows (group keys + merged
    // accumulators); this operator's contract is unordered, no codes.
    RowRef ref;
    while (!out->full() && fb_sort_->Next(&ref)) out->Append(ref.cols, 0);
    return out->size();
  }
  while (queue_pos_ >= output_queue_.size()) {
    if (!ProcessNextPartition()) return 0;
  }
  // The queue stays put until the next partition refills it.
  return output_queue_.ServeBlock(&queue_pos_, out);
}

void HashAggregate::Close() {
  output_queue_.Clear();
  group_states_.Clear();
  table_.clear();
  fb_sort_.reset();
}

}  // namespace ovc
