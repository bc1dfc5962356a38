#include "bench/ablation/ablation_sort.h"

#include <algorithm>
#include <utility>

#include "bench/ablation/plain_loser_tree.h"

namespace ovc::ablation {
namespace {

/// Owns a merger (anything with `bool Next(RowRef*)`) and serves its rows
/// as a MergeSource.
template <typename Merger>
class OwnedMerger final : public MergeSource {
 public:
  template <typename... Args>
  explicit OwnedMerger(Args&&... args) : merger_(std::forward<Args>(args)...) {}

  bool Next(const uint64_t** row, Ovc* code) override {
    RowRef ref;
    if (!merger_.Next(&ref)) return false;
    *row = ref.cols;
    *code = ref.ovc;
    return true;
  }

 private:
  Merger merger_;
};

/// RunSink appending to an in-memory run.
class MemoryRunSink final : public RunSink {
 public:
  explicit MemoryRunSink(InMemoryRun* run) : run_(run) {}
  void Accept(const uint64_t* row, Ovc code) override {
    run_->Append(row, code);
  }

 private:
  InMemoryRun* run_;
};

}  // namespace

AblationSort::AblationSort(const Schema* schema, QueryCounters* counters,
                           TempFileManager* temp, AblationSortConfig config)
    : schema_(schema),
      codec_(schema),
      comparator_(schema, counters),
      counters_(counters),
      temp_(temp),
      config_(config),
      buffer_(schema->total_columns()) {
  OVC_CHECK(config_.memory_rows >= 2);
  OVC_CHECK(config_.fan_in >= 2);
  if (config_.run_gen == RunGen::kReplacementSelection) {
    rs_ = std::make_unique<ReplacementSelection>(
        schema_, counters_, temp_, static_cast<uint32_t>(config_.memory_rows));
  }
}

AblationSort::~AblationSort() = default;

bool AblationSort::coded() const {
  return config_.naive_codes || rs_ != nullptr;
}

void AblationSort::Add(const uint64_t* row) {
  if (rs_ != nullptr) {
    OVC_CHECK_OK(rs_->Add(row));
    return;
  }
  buffer_.AppendRow(row);
  if (buffer_.size() >= config_.memory_rows) OVC_CHECK_OK(SpillBuffer());
}

void AblationSort::SortBuffer(RunSink* sink) {
  std::vector<const uint64_t*> rows;
  rows.reserve(buffer_.size());
  for (size_t i = 0; i < buffer_.size(); ++i) rows.push_back(buffer_.row(i));
  // Offset-0 codes claim nothing about the predecessor; naive codes take
  // one adjacent comparison per row, column by column.
  const uint64_t* prev = nullptr;
  auto emit = [&](const uint64_t* row) {
    const uint32_t offset = config_.naive_codes && prev != nullptr
                                ? comparator_.FirstDifference(prev, row, 0)
                                : 0;
    sink->Accept(row, codec_.MakeFromRow(row, offset));
    prev = row;
  };
  if (config_.run_gen == RunGen::kStdSort) {
    std::stable_sort(rows.begin(), rows.end(),
                     [this](const uint64_t* a, const uint64_t* b) {
                       return comparator_.Compare(a, b) < 0;
                     });
    for (const uint64_t* row : rows) emit(row);
    return;
  }
  PlainPqSorter sorter(&comparator_);
  sorter.Reset(rows.data(), static_cast<uint32_t>(rows.size()));
  RowRef ref;
  while (sorter.Next(&ref)) emit(ref.cols);
}

Status AblationSort::SpillBuffer() {
  RunFileWriter writer(schema_, counters_);
  const std::string path = temp_->NewPath("ablation-run");
  OVC_RETURN_IF_ERROR(writer.Open(path));
  FileRunSink sink(&writer);
  SortBuffer(&sink);
  OVC_RETURN_IF_ERROR(sink.status());
  OVC_RETURN_IF_ERROR(writer.Close());
  runs_.push_back(SpilledRun{path, writer.rows()});
  ++spilled_runs_;
  buffer_.Clear();
  return Status::Ok();
}

Status AblationSort::Finish() {
  if (rs_ != nullptr) {
    OVC_RETURN_IF_ERROR(rs_->Finish());
    runs_ = rs_->TakeRuns();
    spilled_runs_ = runs_.size();
    if (runs_.empty()) return Status::Ok();  // empty input
  } else if (runs_.empty()) {
    // Input fits in memory: sort and serve without spilling.
    memory_run_ = std::make_unique<InMemoryRun>(schema_->total_columns());
    MemoryRunSink sink(memory_run_.get());
    SortBuffer(&sink);
    output_ = std::make_unique<InMemoryRunSource>(memory_run_.get());
    return Status::Ok();
  } else if (!buffer_.empty()) {
    OVC_RETURN_IF_ERROR(SpillBuffer());
  }
  return Merge(std::move(runs_));
}

std::unique_ptr<MergeSource> AblationSort::MakeMerger(
    const std::vector<RunFileReader*>& sources) {
  if (coded()) {
    return std::make_unique<OwnedMerger<OvcMergerT<RunFileReader>>>(
        &codec_, &comparator_, sources);
  }
  return std::make_unique<OwnedMerger<PlainMerger>>(
      &comparator_,
      std::vector<MergeSource*>(sources.begin(), sources.end()));
}

Status AblationSort::Merge(std::vector<SpilledRun> runs) {
  // Cascade intermediate merges while the run count exceeds the fan-in.
  while (runs.size() > config_.fan_in) {
    ++merge_levels_;
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
      const std::string path = temp_->NewPath("ablation-merge");
      OVC_RETURN_IF_ERROR(writer.Open(path));
      std::unique_ptr<MergeSource> merger = MakeMerger(sources);
      const uint64_t* row = nullptr;
      Ovc code = 0;
      while (merger->Next(&row, &code)) {
        // A plain merge's rows are written whole, at offset 0.
        if (!coded()) code = codec_.MakeFromRow(row, 0);
        OVC_RETURN_IF_ERROR(writer.Append(row, code));
      }
      OVC_RETURN_IF_ERROR(writer.Close());
      next_level.push_back(SpilledRun{path, writer.rows()});
    }
    runs = std::move(next_level);
  }

  // Final merge, served through Next().
  std::vector<RunFileReader*> sources;
  for (const SpilledRun& run : runs) {
    readers_.push_back(std::make_unique<RunFileReader>(schema_, temp_));
    OVC_RETURN_IF_ERROR(readers_.back()->Open(run.path));
    sources.push_back(readers_.back().get());
  }
  output_ = MakeMerger(sources);
  return Status::Ok();
}

bool AblationSort::Next(RowRef* out) {
  if (output_ == nullptr) return false;  // empty input
  return output_->Next(&out->cols, &out->ovc);
}

}  // namespace ovc::ablation
