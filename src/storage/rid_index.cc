#include "storage/rid_index.h"

#include "core/ovc.h"
#include "exec/merge_join.h"
#include "pq/loser_tree.h"

namespace ovc {

const Schema& RidStreamSchema() {
  static const Schema* schema = new Schema(/*key_arity=*/1);
  return *schema;
}

namespace {

void AppendVarint(std::vector<uint8_t>* bytes, uint64_t v) {
  while (v >= 0x80) {
    bytes->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes->push_back(static_cast<uint8_t>(v));
}

uint64_t ReadVarint(const std::vector<uint8_t>& bytes, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    const uint8_t b = bytes[(*pos)++];
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

}  // namespace

void RidIndex::Build(const RowBuffer& table, uint32_t column) {
  lists_.clear();
  for (size_t rid = 0; rid < table.size(); ++rid) {
    const uint64_t value = table.row(rid)[column];
    RidList& list = lists_[value];
    // RIDs arrive in ascending order; store the delta to the previous one.
    const uint64_t delta =
        list.count == 0 ? rid : rid - list.last_rid;
    AppendVarint(&list.bytes, delta);
    list.last_rid = rid;
    ++list.count;
  }
}

uint64_t RidIndex::compressed_bytes() const {
  uint64_t total = 0;
  for (const auto& [value, list] : lists_) {
    total += list.bytes.size();
  }
  return total;
}

/// Scan over one compressed RID list: decompression hands out RIDs with
/// their codes for free (single-column keys: every non-duplicate row is a
/// fresh value at offset 0; RIDs are unique, so offsets are always 0).
class RidListScan : public Operator {
 public:
  explicit RidListScan(const RidIndex::RidList* list)
      : codec_(&RidStreamSchema()), list_(list) {}

  void Open() override {
    pos_ = 0;
    emitted_ = 0;
    rid_ = 0;
  }

  uint32_t NextBatch(RowBlock* out) override {
    out->Clear();
    if (list_ == nullptr) return 0;
    while (!out->full() && emitted_ < list_->count) {
      const uint64_t delta = ReadVarint(list_->bytes, &pos_);
      rid_ = emitted_ == 0 ? delta : rid_ + delta;
      out->Append(&rid_, codec_.MakeFromRow(&rid_, 0));
      ++emitted_;
    }
    return out->size();
  }

  void Close() override {}
  const Schema& schema() const override { return RidStreamSchema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  OvcCodec codec_;
  const RidIndex::RidList* list_;  // nullptr: empty stream
  size_t pos_ = 0;
  uint64_t emitted_ = 0;
  uint64_t rid_ = 0;
};

namespace {

/// Merges several RID-list scans into one sorted RID stream. Owns the
/// per-list scans.
class RidMergeScan : public Operator {
 public:
  RidMergeScan(std::vector<std::unique_ptr<Operator>> scans,
               QueryCounters* counters)
      : codec_(&RidStreamSchema()),
        comparator_(&RidStreamSchema(), counters),
        scans_(std::move(scans)) {}

  void Open() override {
    sources_.clear();
    std::vector<BlockCursor*> raw;
    for (auto& scan : scans_) {
      scan->Open();
      sources_.push_back(std::make_unique<BlockCursor>(scan.get()));
      raw.push_back(sources_.back().get());
    }
    merger_ = raw.empty()
                  ? nullptr
                  : std::make_unique<OvcMergerT<BlockCursor>>(
                        &codec_, &comparator_, raw);
  }

  uint32_t NextBatch(RowBlock* out) override {
    if (merger_ == nullptr) {
      out->Clear();
      return 0;
    }
    return merger_->NextBlock(out);
  }

  void Close() override {
    merger_.reset();
    sources_.clear();
    for (auto& scan : scans_) scan->Close();
  }

  const Schema& schema() const override { return RidStreamSchema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  OvcCodec codec_;
  KeyComparator comparator_;
  std::vector<std::unique_ptr<Operator>> scans_;
  std::vector<std::unique_ptr<BlockCursor>> sources_;
  std::unique_ptr<OvcMergerT<BlockCursor>> merger_;
};

/// Wraps a MergeJoin and owns it together with its reference to inputs.
class OwningSemiJoin : public Operator {
 public:
  OwningSemiJoin(Operator* a, Operator* b, QueryCounters* counters)
      : join_(std::make_unique<MergeJoin>(a, b, JoinType::kLeftSemi,
                                          counters)) {}

  void Open() override { join_->Open(); }
  uint32_t NextBatch(RowBlock* out) override { return join_->NextBatch(out); }
  void Close() override { join_->Close(); }
  const Schema& schema() const override { return join_->schema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  std::unique_ptr<MergeJoin> join_;
};

}  // namespace

std::unique_ptr<Operator> RidIndex::Lookup(uint64_t value) const {
  auto it = lists_.find(value);
  return std::make_unique<RidListScan>(it == lists_.end() ? nullptr
                                                          : &it->second);
}

std::unique_ptr<Operator> RidIndex::RangeScan(uint64_t low, uint64_t high,
                                              QueryCounters* counters) const {
  std::vector<std::unique_ptr<Operator>> scans;
  for (auto it = lists_.lower_bound(low);
       it != lists_.end() && it->first <= high; ++it) {
    scans.push_back(std::make_unique<RidListScan>(&it->second));
  }
  return std::make_unique<RidMergeScan>(std::move(scans), counters);
}

std::unique_ptr<Operator> RidIndex::MultiLookup(
    const std::vector<uint64_t>& values, QueryCounters* counters) const {
  std::vector<std::unique_ptr<Operator>> scans;
  for (uint64_t v : values) {
    auto it = lists_.find(v);
    if (it != lists_.end()) {
      scans.push_back(std::make_unique<RidListScan>(&it->second));
    }
  }
  return std::make_unique<RidMergeScan>(std::move(scans), counters);
}

std::unique_ptr<Operator> IntersectRidStreams(Operator* a, Operator* b,
                                              QueryCounters* counters) {
  return std::make_unique<OwningSemiJoin>(a, b, counters);
}

}  // namespace ovc
