// Sort as a pipeline operator: the blocking wrapper around
// sort/external_sort.h.

#ifndef OVC_EXEC_SORT_OPERATOR_H_
#define OVC_EXEC_SORT_OPERATOR_H_

#include <memory>

#include "common/counters.h"
#include "common/temp_file.h"
#include "exec/operator.h"
#include "sort/external_sort.h"

namespace ovc {

/// Sorts its input on the schema's key prefix, producing a sorted stream
/// with offset-value codes.
class SortOperator : public Operator {
 public:
  /// `child`, `counters` (optional), and `temp` must outlive the operator.
  SortOperator(Operator* child, QueryCounters* counters, TempFileManager* temp,
               SortConfig config = SortConfig())
      : child_(child), counters_(counters), temp_(temp), config_(config) {}

  void Open() override {
    failed_ = false;
    child_->Open();
    sort_ = std::make_unique<ExternalSort>(&child_->schema(), counters_, temp_,
                                           config_);
    // Batched intake: run generation's memory buffer fills with one bulk
    // copy per child block.
    RowBlock block(child_->schema().total_columns());
    while (child_->NextBatch(&block) > 0) {
      sort_->AddBlock(block);
    }
    // A spill failure surfaces here (ExternalSort defers intake errors to
    // Finish). Degrade instead of aborting: record the first error in the
    // temp manager's slot and produce no rows -- the executor reports it.
    const Status st = sort_->Finish();
    if (!st.ok()) {
      failed_ = true;
      temp_->RecordError(st);
    }
  }

  uint32_t NextBatch(RowBlock* out) override {
    if (failed_) {
      out->Clear();
      return 0;
    }
    return sort_->NextBlock(out);
  }

  void Close() override {
    if (sort_ != nullptr) {
      last_spilled_runs_ = sort_->spilled_runs();
    }
    sort_.reset();
    child_->Close();
  }

  const Schema& schema() const override { return child_->schema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

  /// Runs spilled by the most recent execution (survives Close()).
  uint64_t spilled_runs() const {
    return sort_ == nullptr ? last_spilled_runs_ : sort_->spilled_runs();
  }

 private:
  Operator* child_;
  QueryCounters* counters_;
  TempFileManager* temp_;
  SortConfig config_;
  std::unique_ptr<ExternalSort> sort_;
  uint64_t last_spilled_runs_ = 0;
  bool failed_ = false;
};

}  // namespace ovc

#endif  // OVC_EXEC_SORT_OPERATOR_H_
