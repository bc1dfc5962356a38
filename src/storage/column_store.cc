#include "storage/column_store.h"

#include "core/ovc.h"

namespace ovc {

RleColumnStore::RleColumnStore(const Schema* schema) : schema_(schema) {
  key_columns_.resize(schema->key_arity());
  payload_columns_.resize(schema->payload_columns());
}

void RleColumnStore::Build(Operator* sorted_input) {
  OVC_CHECK(sorted_input->sorted() && sorted_input->has_ovc());
  OVC_CHECK(sorted_input->schema() == *schema_);
  OvcCodec codec(schema_);
  sorted_input->Open();
  BlockCursor input(sorted_input);
  RowRef ref;
  while (input.Next(&ref)) {
    // The code's offset tells exactly which key columns start new segments:
    // columns before the offset extend their current segment, the column at
    // the offset and beyond begin fresh ones. (Columns past the offset
    // could coincidentally repeat their previous value; starting a new
    // segment there is valid RLE and keeps the build comparison-free.)
    const uint32_t offset =
        rows_ == 0 ? 0
                   : (codec.IsDuplicate(ref.ovc) ? schema_->key_arity()
                                                 : codec.OffsetOf(ref.ovc));
    for (uint32_t c = 0; c < schema_->key_arity(); ++c) {
      if (c < offset) {
        ++key_columns_[c].back().count;
      } else {
        key_columns_[c].push_back(Segment{ref.cols[c], 1});
      }
    }
    for (uint32_t p = 0; p < schema_->payload_columns(); ++p) {
      payload_columns_[p].push_back(ref.cols[schema_->key_arity() + p]);
    }
    ++rows_;
  }
  sorted_input->Close();
}

uint64_t RleColumnStore::total_segments() const {
  uint64_t total = 0;
  for (const auto& col : key_columns_) {
    total += col.size();
  }
  return total;
}

/// Scan over the RLE store: codes from segment counters only.
class RleColumnScan : public Operator {
 public:
  explicit RleColumnScan(const RleColumnStore* store)
      : store_(store), codec_(store->schema_) {}

  void Open() override {
    const uint32_t arity = store_->schema_->key_arity();
    seg_idx_.assign(arity, 0);
    seg_left_.assign(arity, 0);
    pos_ = 0;
  }

  uint32_t NextBatch(RowBlock* out) override {
    out->Clear();
    while (!out->full() && pos_ < store_->rows_) {
      Ovc code = 0;
      uint64_t* dst = out->AppendRow(0);
      ProduceRow(dst, &code);
      out->set_code(out->size() - 1, code);
    }
    return out->size();
  }

  void Close() override {}
  const Schema& schema() const override { return *store_->schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  /// Materializes the row at the cursor into `dst` (total_columns values),
  /// stores its code in `*code`, and advances. Caller checks
  /// pos_ < rows_.
  void ProduceRow(uint64_t* dst, Ovc* code) {
    const uint32_t arity = store_->schema_->key_arity();
    // The offset is the first key column whose current segment is used up.
    uint32_t offset = arity;
    for (uint32_t c = 0; c < arity; ++c) {
      if (seg_left_[c] == 0) {
        if (offset == arity) offset = c;
        const auto& seg = store_->key_columns_[c][pos_ == 0 ? 0 : seg_idx_[c]];
        dst[c] = seg.value;
        seg_left_[c] = seg.count;
      } else {
        dst[c] = store_->key_columns_[c][seg_idx_[c]].value;
      }
    }
    for (uint32_t c = 0; c < arity; ++c) {
      --seg_left_[c];
      if (seg_left_[c] == 0) {
        ++seg_idx_[c];  // the next row reloads this column
      }
    }
    for (uint32_t p = 0; p < store_->schema_->payload_columns(); ++p) {
      dst[arity + p] = store_->payload_columns_[p][pos_];
    }
    *code = pos_ == 0 ? codec_.MakeInitial(dst)
                      : codec_.MakeFromRow(dst, offset);
    ++pos_;
  }

  const RleColumnStore* store_;
  OvcCodec codec_;
  std::vector<size_t> seg_idx_;
  std::vector<uint64_t> seg_left_;
  uint64_t pos_ = 0;
};

std::unique_ptr<Operator> RleColumnStore::CreateScan() const {
  return std::make_unique<RleColumnScan>(this);
}

}  // namespace ovc
