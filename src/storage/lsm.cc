#include "storage/lsm.h"

#include "core/ovc.h"
#include "pq/loser_tree.h"

namespace ovc {

namespace {

/// Operator merging a set of run files (owns readers and merger). With
/// collapsing enabled, key-duplicates across runs fold at scan time so a
/// query always sees the fully aggregated view.
class ForestScan : public Operator {
 public:
  ForestScan(const Schema* schema, QueryCounters* counters,
             std::vector<std::string> paths, bool collapse,
             std::vector<StateMergeFn> collapse_fns)
      : schema_(schema),
        codec_(schema),
        comparator_(schema, counters),
        paths_(std::move(paths)),
        collapse_(collapse),
        collapse_fns_(std::move(collapse_fns)) {}

  void Open() override {
    readers_.clear();
    if (paths_.empty()) return;  // empty forest
    std::vector<MergeSource*> sources;
    for (const std::string& path : paths_) {
      readers_.push_back(std::make_unique<RunFileReader>(schema_));
      OVC_CHECK_OK(readers_.back()->Open(path));
      sources.push_back(readers_.back().get());
    }
    merger_ = std::make_unique<OvcMerger>(&codec_, &comparator_, sources);
    if (collapse_) {
      merger_source_ =
          std::make_unique<RowRefSource<OvcMerger>>(merger_.get());
      collapser_ = std::make_unique<CollapsingSource>(
          schema_, collapse_fns_, merger_source_.get());
    }
  }

  uint32_t NextBatch(RowBlock* out) override {
    out->Clear();
    if (merger_ == nullptr) return 0;
    if (collapser_ == nullptr) return merger_->NextBlock(out);
    const uint64_t* row = nullptr;
    Ovc code = 0;
    while (!out->full() && collapser_->Next(&row, &code)) {
      out->Append(row, code);
    }
    return out->size();
  }

  void Close() override {
    collapser_.reset();
    merger_source_.reset();
    merger_.reset();
    readers_.clear();
  }

  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  const Schema* schema_;
  OvcCodec codec_;
  KeyComparator comparator_;
  std::vector<std::string> paths_;
  bool collapse_;
  std::vector<StateMergeFn> collapse_fns_;
  std::vector<std::unique_ptr<RunFileReader>> readers_;
  std::unique_ptr<OvcMerger> merger_;
  std::unique_ptr<RowRefSource<OvcMerger>> merger_source_;
  std::unique_ptr<CollapsingSource> collapser_;
};

}  // namespace

LsmForest::LsmForest(const Schema* schema, QueryCounters* counters,
                     TempFileManager* temp, Options options)
    : schema_(schema),
      counters_(counters),
      temp_(temp),
      options_(options),
      memtable_(schema, counters, /*mini_run_rows=*/1024) {
  OVC_CHECK(options_.memtable_rows >= 1);
  if (options_.collapse) {
    OVC_CHECK(options_.collapse_fns.size() == schema->payload_columns());
  }
}

void LsmForest::Insert(const uint64_t* row) {
  memtable_.Add(row);
  ++rows_;
  if (memtable_.size() >= options_.memtable_rows) {
    Flush();
    if (options_.compaction_trigger > 0 &&
        runs_.size() >= options_.compaction_trigger) {
      CompactAll();
    }
  }
}

void LsmForest::Flush() {
  if (memtable_.empty()) return;
  RunFileWriter writer(schema_, counters_);
  const std::string path = temp_->NewPath("lsm-run");
  OVC_CHECK_OK(writer.Open(path));
  FileRunSink sink(&writer);
  if (options_.collapse) {
    // Aggregating maintenance: key-duplicates collapse already at flush.
    CollapsingSink collapser(schema_, options_.collapse_fns, &sink);
    memtable_.WriteRun(&collapser);
    collapser.Flush();
  } else {
    memtable_.WriteRun(&sink);
  }
  OVC_CHECK_OK(sink.status());
  OVC_CHECK_OK(writer.Close());
  runs_.push_back(SpilledRun{path, writer.rows()});
}

void LsmForest::CompactAll() {
  if (runs_.size() <= 1) return;
  OvcCodec codec(schema_);
  KeyComparator comparator(schema_, counters_);
  std::vector<std::unique_ptr<RunFileReader>> readers;
  std::vector<MergeSource*> sources;
  for (const SpilledRun& run : runs_) {
    readers.push_back(std::make_unique<RunFileReader>(schema_));
    OVC_CHECK_OK(readers.back()->Open(run.path));
    sources.push_back(readers.back().get());
  }
  RunFileWriter writer(schema_, counters_);
  const std::string path = temp_->NewPath("lsm-compact");
  OVC_CHECK_OK(writer.Open(path));
  OvcMerger merger(&codec, &comparator, sources);
  FileRunSink sink(&writer);
  RowRef ref;
  if (options_.collapse) {
    CollapsingSink collapser(schema_, options_.collapse_fns, &sink);
    while (merger.Next(&ref)) {
      collapser.Accept(ref.cols, ref.ovc);
    }
    collapser.Flush();
  } else {
    while (merger.Next(&ref)) {
      sink.Accept(ref.cols, ref.ovc);
    }
  }
  OVC_CHECK_OK(sink.status());
  OVC_CHECK_OK(writer.Close());
  runs_.clear();
  runs_.push_back(SpilledRun{path, writer.rows()});
  ++compactions_;
}

std::unique_ptr<Operator> LsmForest::ScanAll() {
  Flush();
  std::vector<std::string> paths;
  for (const SpilledRun& run : runs_) {
    paths.push_back(run.path);
  }
  return std::make_unique<ForestScan>(schema_, counters_, std::move(paths),
                                      options_.collapse,
                                      options_.collapse_fns);
}

}  // namespace ovc
