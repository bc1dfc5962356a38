#include "sort/external_sort.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/trace.h"

namespace ovc {

ExternalSort::ExternalSort(const Schema* schema, QueryCounters* counters,
                           TempFileManager* temp, SortConfig config)
    : schema_(schema),
      codec_(schema),
      comparator_(schema, counters),
      counters_(counters),
      temp_(temp),
      config_(config),
      buffer_(schema->total_columns()) {
  OVC_CHECK(config_.memory_rows >= 2);
  OVC_CHECK(config_.fan_in >= 2);
}

ExternalSort::ExternalSort(const Schema* schema,
                           std::vector<StateMergeFn> collapse_fns,
                           QueryCounters* counters, TempFileManager* temp,
                           SortConfig config)
    : ExternalSort(schema, counters, temp, config) {
  OVC_CHECK(collapse_fns.size() == schema->payload_columns());
  collapse_ = true;
  collapse_fns_ = std::move(collapse_fns);
}

ExternalSort::~ExternalSort() = default;

void ExternalSort::Add(const uint64_t* row) {
  OVC_CHECK(!finished_);
  if (!deferred_error_.ok()) return;  // intake degraded; Finish() reports
  buffer_.AppendRow(row);
  if (buffer_.size() >= config_.memory_rows) {
    DeferError(SpillBuffer());
  }
}

void ExternalSort::AddBlock(const RowBlock& block) {
  OVC_CHECK(!finished_);
  if (!deferred_error_.ok()) return;
  uint32_t taken = 0;
  while (taken < block.size()) {
    const uint64_t room = config_.memory_rows - buffer_.size();
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(room, block.size() - taken));
    buffer_.AppendRows(block.row(taken), n);
    taken += n;
    if (buffer_.size() >= config_.memory_rows) {
      DeferError(SpillBuffer());
      if (!deferred_error_.ok()) return;
    }
  }
}

void ExternalSort::DeferError(const Status& status) {
  if (status.ok() || !deferred_error_.ok()) return;
  // First spill error wins; stop buffering (later Adds are dropped, which
  // is fine -- the query is already failed and Finish() will say so).
  deferred_error_ = status;
  buffer_.Clear();
}

template <typename Feed>
void ExternalSort::FeedRun(RunSink* sink, Feed feed) {
  if (!collapse_) {
    feed(sink);
    return;
  }
  CollapsingSink collapser(schema_, collapse_fns_, sink);
  feed(&collapser);
  collapser.Flush();
}

void ExternalSort::SortBuffer(RunSink* sink) {
  OVC_TRACE_SPAN("sort.run_generation");
  BatchSorter sorter(schema_, counters_, config_.mini_run_rows);
  FeedRun(sink, [&](RunSink* s) { sorter.Sort(buffer_, s); });
}

Status ExternalSort::SpillBuffer() {
  if (buffer_.empty()) return Status::Ok();
  OVC_TRACE_SPAN("sort.spill_run");
  RunFileWriter writer(schema_, counters_);
  const std::string path = temp_->NewPath("run");
  OVC_RETURN_IF_ERROR(writer.Open(path));
  FileRunSink sink(&writer);
  SortBuffer(&sink);
  OVC_RETURN_IF_ERROR(sink.status());
  OVC_RETURN_IF_ERROR(writer.Close());
  runs_.push_back(SpilledRun{path, writer.rows()});
  ++spilled_runs_;
  OVC_METRIC_COUNTER("sort.runs_spilled",
                     "Sorted runs written to temporary storage")
      .Increment();
  buffer_.Clear();
  return Status::Ok();
}

Status ExternalSort::Finish() {
  OVC_CHECK(!finished_);
  finished_ = true;
  // A spill error during intake fails the whole sort; Next()/NextBlock()
  // then serve nothing (no merger is prepared).
  if (!deferred_error_.ok()) return deferred_error_;

  if (runs_.empty()) {
    // Input fits in memory: sort and serve without spilling.
    memory_run_ = std::make_unique<InMemoryRun>(schema_->total_columns());
    memory_run_->Reserve(buffer_.size());
    MemoryRunSink sink(memory_run_.get());
    SortBuffer(&sink);
    memory_source_ =
        std::make_unique<InMemoryRunSource>(memory_run_.get());
    return Status::Ok();
  }

  OVC_RETURN_IF_ERROR(SpillBuffer());
  return PrepareMerge(std::move(runs_));
}

Status ExternalSort::PrepareMerge(std::vector<SpilledRun> runs) {
  // Cascade intermediate merges while the run count exceeds the fan-in.
  while (runs.size() > config_.fan_in) {
    OVC_TRACE_SPAN("sort.merge_level");
    ++merge_levels_;
    OVC_METRIC_COUNTER("sort.merge_levels",
                       "Intermediate merge levels run by external sorts")
        .Increment();
    std::vector<SpilledRun> next_level;
    for (size_t begin = 0; begin < runs.size(); begin += config_.fan_in) {
      const size_t count =
          std::min<size_t>(config_.fan_in, runs.size() - begin);
      if (count == 1) {
        next_level.push_back(runs[begin]);
        continue;
      }
      std::vector<std::unique_ptr<RunFileReader>> readers;
      std::vector<RunFileReader*> sources;
      for (size_t i = 0; i < count; ++i) {
        readers.push_back(std::make_unique<RunFileReader>(schema_, temp_));
        OVC_RETURN_IF_ERROR(readers.back()->Open(runs[begin + i].path));
        sources.push_back(readers.back().get());
      }
      RunFileWriter writer(schema_, counters_);
      const std::string path = temp_->NewPath("merge");
      OVC_RETURN_IF_ERROR(writer.Open(path));
      FileRunSink sink(&writer);
      OvcMergerT<RunFileReader> merger(&codec_, &comparator_, sources);
      FeedRun(&sink, [&](RunSink* s) {
        RowRef ref;
        while (sink.status().ok() && merger.Next(&ref)) {
          s->Accept(ref.cols, ref.ovc);
        }
      });
      OVC_RETURN_IF_ERROR(sink.status());
      OVC_RETURN_IF_ERROR(writer.Close());
      next_level.push_back(SpilledRun{path, writer.rows()});
    }
    runs = std::move(next_level);
  }

  // Final merge, served incrementally through Next()/NextBlock().
  std::vector<RunFileReader*> sources;
  for (const SpilledRun& run : runs) {
    readers_.push_back(std::make_unique<RunFileReader>(schema_, temp_));
    OVC_RETURN_IF_ERROR(readers_.back()->Open(run.path));
    sources.push_back(readers_.back().get());
  }
  merger_ = std::make_unique<OvcMergerT<RunFileReader>>(&codec_, &comparator_,
                                                       sources);
  if (collapse_) {
    merger_source_ =
        std::make_unique<RowRefSource<OvcMergerT<RunFileReader>>>(
            merger_.get());
    collapsed_output_ = std::make_unique<CollapsingSource>(
        schema_, collapse_fns_, merger_source_.get());
  }
  return Status::Ok();
}

bool ExternalSort::Next(RowRef* out) {
  OVC_CHECK(finished_);
  if (memory_source_ != nullptr) {
    const uint64_t* row = nullptr;
    Ovc code = 0;
    if (!memory_source_->Next(&row, &code)) return false;
    out->cols = row;
    out->ovc = code;
    return true;
  }
  if (collapsed_output_ != nullptr) {
    const uint64_t* row = nullptr;
    Ovc code = 0;
    if (!collapsed_output_->Next(&row, &code)) return false;
    out->cols = row;
    out->ovc = code;
    return true;
  }
  if (merger_ != nullptr) {
    return merger_->Next(out);
  }
  return false;  // empty input
}

uint32_t ExternalSort::NextBlock(RowBlock* out) {
  OVC_CHECK(finished_);
  out->Clear();
  if (memory_source_ != nullptr) {
    // In-memory result: the run is stable until the sort is destroyed.
    return memory_source_->NextBlock(out);
  }
  if (collapsed_output_ != nullptr) return FillBlock(this, out);
  if (merger_ != nullptr) {
    return merger_->NextBlock(out);
  }
  return 0;  // empty input
}

}  // namespace ovc
