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
      batch_(schema, counters, config.mini_run_rows),
      files_(temp) {
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

void ExternalSort::Add(const uint64_t* row) {
  OVC_CHECK(!finished_);
  if (!deferred_error_.ok()) return;  // intake degraded; Finish() reports
  batch_.Add(row);
  if (batch_.size() >= config_.memory_rows) {
    DeferError(SpillBatch());
  }
}

void ExternalSort::AddBlock(const RowBlock& block) {
  OVC_CHECK(!finished_);
  if (!deferred_error_.ok()) return;
  uint32_t taken = 0;
  while (taken < block.size()) {
    const uint64_t room = config_.memory_rows - batch_.size();
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(room, block.size() - taken));
    batch_.AddRows(block.row(taken), n);
    taken += n;
    if (batch_.size() >= config_.memory_rows) {
      DeferError(SpillBatch());
      if (!deferred_error_.ok()) return;
    }
  }
}

void ExternalSort::DeferError(const Status& status) {
  if (status.ok() || !deferred_error_.ok()) return;
  // First spill error wins; stop buffering (later Adds are dropped, which
  // is fine -- the query is already failed and Finish() will say so).
  deferred_error_ = status;
  batch_.Clear();
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

template <typename Rows>
void ExternalSort::CollapseOutput(Rows* rows) {
  merger_source_ = std::make_unique<RowRefSource<Rows>>(rows);
  collapsed_output_ = std::make_unique<CollapsingSource>(
      schema_, collapse_fns_, merger_source_.get());
}

Status ExternalSort::SpillBatch() {
  if (batch_.empty()) return Status::Ok();
  OVC_TRACE_SPAN("sort.spill_run");
  RunFileWriter writer(schema_, counters_);
  const std::string path = files_.NewPath("run");
  OVC_RETURN_IF_ERROR(writer.Open(path));
  FileRunSink sink(&writer);
  {
    OVC_TRACE_SPAN("sort.run_generation");
    FeedRun(&sink, [&](RunSink* s) { batch_.WriteRun(s); });
  }
  OVC_RETURN_IF_ERROR(sink.status());
  OVC_RETURN_IF_ERROR(writer.Close());
  runs_.push_back(SpilledRun{path, writer.rows()});
  ++spilled_runs_;
  OVC_METRIC_COUNTER("sort.runs_spilled",
                     "Sorted runs written to temporary storage")
      .Increment();
  return Status::Ok();
}

Status ExternalSort::Finish() {
  OVC_CHECK(!finished_);
  finished_ = true;
  // A spill error during intake fails the whole sort; Next()/NextBlock()
  // then serve nothing (no output is prepared).
  const Status status =
      deferred_error_.ok() ? PrepareOutput() : deferred_error_;
  if (!status.ok()) files_.RemoveAll();
  return status;
}

Status ExternalSort::PrepareOutput() {
  if (runs_.empty()) {
    // Input fits in memory: serve the merge over the mini-runs, unspilled.
    OVC_TRACE_SPAN("sort.run_generation");
    batch_.Finish();
    in_memory_ = true;
    if (collapse_) CollapseOutput(&batch_);
    return Status::Ok();
  }
  OVC_RETURN_IF_ERROR(SpillBatch());
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
      const std::string path = files_.NewPath("merge");
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
  if (collapse_) CollapseOutput(merger_.get());
  return Status::Ok();
}

bool ExternalSort::Next(RowRef* out) {
  OVC_CHECK(finished_);
  if (collapsed_output_ != nullptr) {
    return collapsed_output_->Next(&out->cols, &out->ovc);
  }
  if (in_memory_) return batch_.Next(out);
  if (merger_ != nullptr) return merger_->Next(out);
  return false;  // failed sort
}

uint32_t ExternalSort::NextBlock(RowBlock* out) {
  OVC_CHECK(finished_);
  if (collapsed_output_ != nullptr) return FillBlock(this, out);
  // In memory, a single mini-run is served zero-copy: it is stable until
  // the sort is destroyed.
  if (in_memory_) return batch_.NextBlock(out);
  if (merger_ != nullptr) return merger_->NextBlock(out);
  out->Clear();
  return 0;  // failed sort
}

}  // namespace ovc
