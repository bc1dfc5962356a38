#include "exec/in_sort_aggregate.h"

#include <cstring>

#include "sort/run_generation.h"

namespace ovc {

namespace {

/// RunSink appending to an in-memory run.
class MemorySink : public RunSink {
 public:
  explicit MemorySink(InMemoryRun* run) : run_(run) {}
  void Accept(const uint64_t* row, Ovc code) override {
    run_->Append(row, code);
  }

 private:
  InMemoryRun* run_;
};

/// RunSink appending to a spilled run file. The RunSink interface cannot
/// return errors, so the first append failure is latched for the caller
/// to check after the collapse pass.
class FileSink : public RunSink {
 public:
  explicit FileSink(RunFileWriter* writer) : writer_(writer) {}
  void Accept(const uint64_t* row, Ovc code) override {
    if (!status_.ok()) return;
    status_ = writer_->Append(row, code);
  }
  const Status& status() const { return status_; }

 private:
  RunFileWriter* writer_;
  Status status_ = Status::Ok();
};

}  // namespace

Schema InSortAggregate::MakeStateSchema(const Schema& in,
                                        uint32_t group_prefix,
                                        size_t num_aggregates) {
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < group_prefix; ++c) {
    // Group columns inside the child's sort key keep their direction;
    // others sort ascending.
    dirs.push_back(c < in.key_arity() ? in.direction(c)
                                      : SortDirection::kAscending);
  }
  return Schema(std::move(dirs), static_cast<uint32_t>(num_aggregates));
}

InSortAggregate::InSortAggregate(Operator* child, uint32_t group_prefix,
                                 std::vector<AggregateSpec> aggregates,
                                 QueryCounters* counters,
                                 TempFileManager* temp, SortConfig config)
    : child_(child),
      group_prefix_(group_prefix),
      aggregates_(std::move(aggregates)),
      state_schema_(
          MakeStateSchema(child->schema(), group_prefix, aggregates_.size())),
      counters_(counters),
      temp_(temp),
      config_(config),
      codec_(&state_schema_),
      comparator_(&state_schema_, counters),
      buffer_(state_schema_.total_columns()),
      state_row_(state_schema_.total_columns(), 0) {
  OVC_CHECK(group_prefix >= 1);
  OVC_CHECK(group_prefix <= child->schema().total_columns());
  OVC_CHECK(!config_.replacement_selection);
  for (const AggregateSpec& spec : aggregates_) {
    OVC_CHECK(spec.fn == AggFn::kCount ||
              spec.input_col < child->schema().total_columns());
    switch (spec.fn) {
      case AggFn::kCount:
      case AggFn::kSum:
        merge_fns_.push_back(StateMergeFn::kSum);
        break;
      case AggFn::kMin:
        merge_fns_.push_back(StateMergeFn::kMin);
        break;
      case AggFn::kMax:
        merge_fns_.push_back(StateMergeFn::kMax);
        break;
    }
  }
}

void InSortAggregate::TransformRow(const uint64_t* row) {
  std::memcpy(state_row_.data(), row, group_prefix_ * sizeof(uint64_t));
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    switch (aggregates_[a].fn) {
      case AggFn::kCount:
        state_row_[group_prefix_ + a] = 1;
        break;
      case AggFn::kSum:
      case AggFn::kMin:
      case AggFn::kMax:
        state_row_[group_prefix_ + a] = row[aggregates_[a].input_col];
        break;
    }
  }
}

void InSortAggregate::CollapseBufferInto(RunSink* sink) {
  BatchSorter sorter(&state_schema_, counters_, config_.run_gen,
                     config_.mini_run_rows, /*use_ovc=*/true,
                     /*naive_codes=*/false);
  CollapsingSink collapser(&state_schema_, merge_fns_, sink);
  sorter.Sort(buffer_, &collapser);
  collapser.Flush();
  buffer_.Clear();
}

Status InSortAggregate::SpillBuffer() {
  if (buffer_.empty()) return Status::Ok();
  RunFileWriter writer(&state_schema_, counters_);
  const std::string path = temp_->NewPath("isa-run");
  OVC_RETURN_IF_ERROR(writer.Open(path));
  FileSink sink(&writer);
  CollapseBufferInto(&sink);
  OVC_RETURN_IF_ERROR(sink.status());
  OVC_RETURN_IF_ERROR(writer.Close());
  runs_.push_back(SpilledRun{path, writer.rows()});
  return Status::Ok();
}

Status InSortAggregate::PrepareMerge() {
  // Cascade intermediate merges (collapsing at every level) while the run
  // count exceeds the fan-in.
  while (runs_.size() > config_.fan_in) {
    std::vector<SpilledRun> next_level;
    for (size_t begin = 0; begin < runs_.size(); begin += config_.fan_in) {
      const size_t count =
          std::min<size_t>(config_.fan_in, runs_.size() - begin);
      if (count == 1) {
        next_level.push_back(runs_[begin]);
        continue;
      }
      std::vector<std::unique_ptr<RunFileReader>> readers;
      std::vector<RunFileReader*> sources;
      for (size_t i = 0; i < count; ++i) {
        readers.push_back(std::make_unique<RunFileReader>(&state_schema_, temp_));
        OVC_RETURN_IF_ERROR(readers.back()->Open(runs_[begin + i].path));
        sources.push_back(readers.back().get());
      }
      FileMerger merger(&codec_, &comparator_, std::move(sources));
      RowRefSource<FileMerger> merger_source(&merger);
      CollapsingSource collapser(&state_schema_, merge_fns_, &merger_source);
      RunFileWriter writer(&state_schema_, counters_);
      const std::string path = temp_->NewPath("isa-merge");
      OVC_RETURN_IF_ERROR(writer.Open(path));
      const uint64_t* row = nullptr;
      Ovc code = 0;
      while (collapser.Next(&row, &code)) {
        OVC_RETURN_IF_ERROR(writer.Append(row, code));
      }
      OVC_RETURN_IF_ERROR(writer.Close());
      next_level.push_back(SpilledRun{path, writer.rows()});
    }
    runs_ = std::move(next_level);
  }

  // Final merge, collapsed on the fly.
  std::vector<RunFileReader*> sources;
  for (const SpilledRun& run : runs_) {
    readers_.push_back(std::make_unique<RunFileReader>(&state_schema_, temp_));
    OVC_RETURN_IF_ERROR(readers_.back()->Open(run.path));
    sources.push_back(readers_.back().get());
  }
  merger_ =
      std::make_unique<FileMerger>(&codec_, &comparator_, std::move(sources));
  final_merger_source_ =
      std::make_unique<RowRefSource<FileMerger>>(merger_.get());
  collapsing_output_ = std::make_unique<CollapsingSource>(
      &state_schema_, merge_fns_, final_merger_source_.get());
  return Status::Ok();
}

void InSortAggregate::Degrade(const Status& status) {
  failed_ = true;
  temp_->RecordError(status);
}

void InSortAggregate::Open() {
  runs_.clear();
  buffer_.Clear();
  memory_run_.reset();
  memory_source_.reset();
  readers_.clear();
  merger_.reset();
  collapsing_output_.reset();
  failed_ = false;

  child_->Open();
  BlockCursor input(child_);
  RowRef ref;
  while (input.Next(&ref)) {
    TransformRow(ref.cols);
    buffer_.AppendRow(state_row_.data());
    if (buffer_.size() >= config_.memory_rows) {
      const Status st = SpillBuffer();
      if (!st.ok()) {
        child_->Close();
        Degrade(st);
        return;
      }
    }
  }
  child_->Close();

  if (runs_.empty()) {
    memory_run_ = std::make_unique<InMemoryRun>(state_schema_.total_columns());
    MemorySink sink(memory_run_.get());
    CollapseBufferInto(&sink);
    memory_source_ = std::make_unique<InMemoryRunSource>(memory_run_.get());
    return;
  }
  Status st = SpillBuffer();
  if (st.ok()) st = PrepareMerge();
  if (!st.ok()) Degrade(st);
}

uint32_t InSortAggregate::NextBatch(RowBlock* out) {
  out->Clear();
  if (failed_) return 0;
  if (memory_source_ != nullptr) return memory_source_->NextBlock(out);
  if (collapsing_output_ != nullptr) {
    const uint64_t* row = nullptr;
    Ovc code = 0;
    while (!out->full() && collapsing_output_->Next(&row, &code)) {
      out->Append(row, code);
    }
  }
  return out->size();
}

void InSortAggregate::Close() {
  memory_run_.reset();
  memory_source_.reset();
  collapsing_output_.reset();
  final_merger_source_.reset();
  merger_.reset();
  readers_.clear();
}

}  // namespace ovc
