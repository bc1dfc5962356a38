#include "exec/scan.h"

#include <utility>

#include "row/comparator.h"

namespace ovc {

RunScan::RunScan(const Schema* schema, const InMemoryRun* run,
                 uint32_t key_columns, std::vector<uint64_t> low,
                 std::vector<uint64_t> high, QueryCounters* counters)
    : schema_(schema),
      run_(run),
      codec_(schema),
      prefix_(schema->KeyPrefix(key_columns)),
      low_(std::move(low)),
      high_(std::move(high)),
      counters_(counters),
      end_(run->size()) {
  OVC_CHECK(run->width() == schema->total_columns());
  OVC_CHECK(low_.size() == schema->total_columns());
  OVC_CHECK(high_.size() == schema->total_columns());
}

size_t RunScan::Search(const uint64_t* key, bool strict, size_t from,
                       bool* at_key) const {
  const KeyComparator cmp(&prefix_, counters_);
  size_t lo = from, hi = run_->size();
  bool equal = false;  // whether row `hi` compared equal to `key`
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const int c = cmp.Compare(run_->row(mid), key);
    if (c < 0 || (strict && c == 0)) {
      lo = mid + 1;
    } else {
      hi = mid;
      equal = c == 0;
    }
  }
  if (at_key != nullptr) *at_key = equal;
  return lo;
}

void RunScan::Open() {
  if (!low_.empty()) {
    // The bounds are query constants: comparing them with each other is
    // not a comparison against stored data, so it is not counted.
    const int order =
        KeyComparator(&prefix_, nullptr).Compare(low_.data(), high_.data());
    bool found = false;
    begin_ = end_ = 0;
    if (order < 0) {
      begin_ = Search(low_.data(), /*strict=*/false, 0, nullptr);
      end_ = Search(high_.data(), /*strict=*/true, begin_, nullptr);
    } else if (order == 0) {
      begin_ = end_ = Search(low_.data(), /*strict=*/false, 0, &found);
    }
    // An equality range ends where the stored codes first mark a change
    // within the range's key columns: no column comparison.
    if (found) {
      ++end_;
      while (end_ < run_->size() &&
             !codec_.IsBoundary(run_->code(end_), prefix_.key_arity())) {
        ++end_;
      }
    }
  }
  pos_ = begin_;
}

}  // namespace ovc
