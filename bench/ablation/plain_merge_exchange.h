// The merging exchange without offset-value coding (claim 1, Section
// 4.10): exec/exchange.h's many-to-one merge, pulled inline on one thread,
// with a plain tournament that compares full rows and emits no codes.

#ifndef OVC_BENCH_ABLATION_PLAIN_MERGE_EXCHANGE_H_
#define OVC_BENCH_ABLATION_PLAIN_MERGE_EXCHANGE_H_

#include <memory>
#include <utility>
#include <vector>

#include "bench/ablation/plain_loser_tree.h"
#include "common/counters.h"
#include "exec/operator.h"
#include "row/comparator.h"

namespace ovc::ablation {

/// Many-to-one order-preserving merge with full key comparisons. Output
/// rows are sorted and carry code 0.
class PlainMergeExchange final : public Operator {
 public:
  /// All inputs must be sorted and share the first input's schema.
  /// `counters` meters the merge.
  PlainMergeExchange(std::vector<Operator*> inputs, QueryCounters* counters)
      : inputs_(std::move(inputs)),
        comparator_(&inputs_[0]->schema(), counters) {}

  void Open() override {
    std::vector<MergeSource*> sources;
    for (Operator* in : inputs_) {
      in->Open();
      cursors_.push_back(std::make_unique<BlockCursor>(in));
      sources.push_back(cursors_.back().get());
    }
    merger_ = std::make_unique<PlainMerger>(&comparator_, sources);
  }
  uint32_t NextBatch(RowBlock* out) override {
    return FillBlock(merger_.get(), out);
  }
  void Close() override {
    merger_.reset();
    cursors_.clear();
    for (Operator* in : inputs_) in->Close();
  }
  const Schema& schema() const override { return inputs_[0]->schema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return false; }

 private:
  std::vector<Operator*> inputs_;
  KeyComparator comparator_;
  std::vector<std::unique_ptr<BlockCursor>> cursors_;
  std::unique_ptr<PlainMerger> merger_;
};

}  // namespace ovc::ablation

#endif  // OVC_BENCH_ABLATION_PLAIN_MERGE_EXCHANGE_H_
