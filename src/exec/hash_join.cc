#include "exec/hash_join.h"

#include <cstring>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "sort/run_file.h"

namespace ovc {

uint64_t HashKeyPrefix(const uint64_t* row, uint32_t columns,
                       QueryCounters* counters) {
  if (counters != nullptr) ++counters->hash_computations;
  // SplitMix64-style mixing over the key prefix: "hash-based query
  // execution requires accessing N x K column values just for the hash
  // function" -- every column is touched.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (uint32_t c = 0; c < columns; ++c) {
    uint64_t z = row[c] + 0x9e3779b97f4a7c15ULL + h;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

namespace {

/// Raw column equality on the first `columns` columns (counted).
bool KeysEqual(const uint64_t* a, const uint64_t* b, uint32_t columns,
               QueryCounters* counters) {
  for (uint32_t c = 0; c < columns; ++c) {
    if (counters != nullptr) ++counters->column_comparisons;
    if (a[c] != b[c]) return false;
  }
  return true;
}

/// Operator facade over a finished ExternalSort: a sorted, coded stream
/// the MergeJoin continuation can pull. The schema reinterprets the
/// sorted rows with the join key as the full key prefix.
class SortedSortView final : public Operator {
 public:
  SortedSortView(const Schema* schema, ExternalSort* sort)
      : schema_(schema), sort_(sort) {}
  void Open() override {}
  uint32_t NextBatch(RowBlock* out) override { return sort_->NextBlock(out); }
  void Close() override {}
  const Schema& schema() const override { return *schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  const Schema* schema_;
  ExternalSort* sort_;
};

/// The join-key-prefix reinterpretation of `schema`: the first
/// `bind_columns` directions of the probe side become the whole sort key,
/// everything else rides along as payload. Row layout is unchanged.
Schema BindPrefixSchema(const Schema& probe, uint32_t total_columns,
                        uint32_t bind_columns) {
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < bind_columns; ++c) dirs.push_back(probe.direction(c));
  return Schema(std::move(dirs), total_columns - bind_columns);
}

}  // namespace

Schema OrderPreservingHashJoin::MakeOutputSchema() const {
  const Schema& ps = probe_->schema();
  if (type_ == JoinTypeHash::kLeftSemi || type_ == JoinTypeHash::kLeftAnti) {
    return ps;
  }
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < ps.key_arity(); ++c) dirs.push_back(ps.direction(c));
  // Probe keys, probe payloads, all build columns, indicator.
  return Schema(std::move(dirs), ps.payload_columns() +
                                     build_->schema().total_columns() + 1);
}

OrderPreservingHashJoin::OrderPreservingHashJoin(
    Operator* probe, Operator* build, uint32_t bind_columns, JoinTypeHash type,
    uint64_t memory_rows, QueryCounters* counters)
    : probe_(probe),
      build_(build),
      probe_input_(probe),
      bind_columns_(bind_columns),
      type_(type),
      memory_rows_(memory_rows),
      output_schema_(MakeOutputSchema()),
      probe_codec_(&probe->schema()),
      counters_(counters),
      build_rows_(build->schema().total_columns()) {
  OVC_CHECK(probe->sorted() && probe->has_ovc());
  OVC_CHECK(bind_columns >= 1);
  OVC_CHECK(bind_columns <= probe->schema().key_arity());
  OVC_CHECK(bind_columns <= build->schema().key_arity());
}

void OrderPreservingHashJoin::BuildTable() {
  build_->Open();
  BlockCursor input(build_);
  RowRef ref;
  while (input.Next(&ref)) {
    // Section 4.9's precondition: the build side must fit in memory.
    OVC_CHECK(build_rows_.size() < memory_rows_);
    table_.emplace(HashKeyPrefix(ref.cols, bind_columns_, counters_),
                   static_cast<uint32_t>(build_rows_.size()));
    build_rows_.AppendRow(ref.cols);
  }
  build_->Close();
}

void OrderPreservingHashJoin::Open() {
  build_rows_.Clear();
  table_.clear();
  BuildTable();
  probe_->Open();
  probe_input_.Reset();
  acc_.Reset();
  emitting_ = false;
}

void OrderPreservingHashJoin::EmitCombined(const uint64_t* probe_row,
                                           const uint64_t* build_row, Ovc code,
                                           RowBlock* out) {
  const Schema& ps = probe_->schema();
  const Schema& bs = build_->schema();
  uint64_t* dst = out->AppendRow(code);
  std::memcpy(dst, probe_row, ps.total_columns() * sizeof(uint64_t));
  uint64_t* p = dst + ps.total_columns();
  if (build_row != nullptr) {
    std::memcpy(p, build_row, bs.total_columns() * sizeof(uint64_t));
  } else {
    std::memset(p, 0, bs.total_columns() * sizeof(uint64_t));
  }
  p += bs.total_columns();
  *p = build_row != nullptr ? 3 : 1;
}

uint32_t OrderPreservingHashJoin::NextBatch(RowBlock* out) {
  out->Clear();
  // The current probe row stays put in its cursor's block until the probe
  // input advances, so a match list larger than `out` resumes from it.
  while (!out->full()) {
    if (emitting_) {
      if (match_idx_ < matches_.size()) {
        const Ovc code = match_idx_ == 0 ? probe_code_
                                         : probe_codec_.DuplicateCode();
        EmitCombined(pref_.cols, build_rows_.row(matches_[match_idx_]), code,
                     out);
        ++match_idx_;
        continue;
      }
      emitting_ = false;
    }

    if (!probe_input_.Next(&pref_)) break;

    // Probe the table: gather matching build rows.
    matches_.clear();
    const uint64_t h = HashKeyPrefix(pref_.cols, bind_columns_, counters_);
    auto range = table_.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      if (KeysEqual(pref_.cols, build_rows_.row(it->second), bind_columns_,
                    counters_)) {
        matches_.push_back(it->second);
      }
    }

    const bool match = !matches_.empty();
    switch (type_) {
      case JoinTypeHash::kLeftSemi:
      case JoinTypeHash::kLeftAnti: {
        const bool keep = (type_ == JoinTypeHash::kLeftSemi) == match;
        if (!keep) {
          acc_.Absorb(pref_.ovc);
          continue;
        }
        out->Append(pref_.cols, acc_.Combine(pref_.ovc));
        acc_.Reset();
        continue;
      }
      case JoinTypeHash::kInner: {
        if (!match) {
          acc_.Absorb(pref_.ovc);
          continue;
        }
        break;
      }
      case JoinTypeHash::kLeftOuter:
        break;
    }

    // Inner with matches, or left outer.
    probe_code_ = acc_.Combine(pref_.ovc);
    acc_.Reset();
    if (!match) {
      // Left outer, no match: single null-padded row.
      EmitCombined(pref_.cols, nullptr, probe_code_, out);
      continue;
    }
    match_idx_ = 0;
    emitting_ = true;
  }
  return out->size();
}

void OrderPreservingHashJoin::Close() { probe_->Close(); }

Schema GraceHashJoin::MakeOutputSchema() const {
  const Schema& ps = probe_->schema();
  if (type_ == JoinTypeHash::kLeftSemi || type_ == JoinTypeHash::kLeftAnti) {
    return ps;
  }
  std::vector<SortDirection> dirs;
  for (uint32_t c = 0; c < ps.key_arity(); ++c) dirs.push_back(ps.direction(c));
  return Schema(std::move(dirs), ps.payload_columns() +
                                     build_->schema().total_columns() + 1);
}

GraceHashJoin::GraceHashJoin(Operator* probe, Operator* build,
                             uint32_t bind_columns, JoinTypeHash type,
                             uint64_t memory_rows, QueryCounters* counters,
                             TempFileManager* temp, uint32_t partitions,
                             FallbackPolicy fallback, SortConfig sort_config)
    : probe_(probe),
      build_(build),
      bind_columns_(bind_columns),
      type_(type),
      memory_rows_(memory_rows),
      partitions_(partitions),
      fallback_(fallback),
      sort_config_(sort_config),
      output_schema_(MakeOutputSchema()),
      counters_(counters),
      temp_(temp),
      files_(temp),
      resident_build_(build->schema().total_columns()),
      output_queue_(output_schema_.total_columns()) {
  OVC_CHECK(type == JoinTypeHash::kInner || type == JoinTypeHash::kLeftSemi);
  OVC_CHECK(partitions >= 2);
}

uint32_t GraceHashJoin::PartitionOf(const uint64_t* row, uint32_t level) {
  uint64_t h = HashKeyPrefix(row, bind_columns_, counters_);
  h ^= 0x9e3779b97f4a7c15ULL * (level + 1);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return static_cast<uint32_t>(h % partitions_);
}

void GraceHashJoin::JoinResident(const RowBuffer& build,
                                 const uint64_t* probe_row) {
  const uint64_t h = HashKeyPrefix(probe_row, bind_columns_, counters_);
  auto range = table_.equal_range(h);
  const Schema& ps = probe_->schema();
  const Schema& bs = build_->schema();
  for (auto it = range.first; it != range.second; ++it) {
    const uint64_t* build_row = build.row(it->second);
    if (!KeysEqual(probe_row, build_row, bind_columns_, counters_)) continue;
    if (type_ == JoinTypeHash::kLeftSemi) {
      output_queue_.AppendRow(probe_row);
      return;  // one output per probe row
    }
    uint64_t* dst = output_queue_.AppendRow();
    std::memcpy(dst, probe_row, ps.total_columns() * sizeof(uint64_t));
    std::memcpy(dst + ps.total_columns(), build_row,
                bs.total_columns() * sizeof(uint64_t));
    dst[ps.total_columns() + bs.total_columns()] = 3;
  }
}

void GraceHashJoin::BeginSortMergeFallback() {
  // The point of no return for the hash strategy: from here on, every
  // build row -- resident or still unread -- flows into an external sort
  // on the join key, and the probe side will follow. One sort per input,
  // no partition recursion, OVCs preserved end to end.
  OVC_TRACE_SPAN("hash_join.fallback");
  fell_back_ = true;
  if (counters_ != nullptr) ++counters_->hash_join_fallbacks;
  OVC_METRIC_COUNTER("hash_join.fallbacks",
                     "Grace hash joins that degraded to sort+merge")
      .Increment();
  const Schema& ps = probe_->schema();
  fb_probe_schema_ = std::make_unique<Schema>(
      BindPrefixSchema(ps, ps.total_columns(), bind_columns_));
  fb_build_schema_ = std::make_unique<Schema>(
      BindPrefixSchema(ps, build_->schema().total_columns(), bind_columns_));
  fb_build_sort_ = std::make_unique<ExternalSort>(
      fb_build_schema_.get(), counters_, temp_, sort_config_);
  for (size_t i = 0; i < resident_build_.size(); ++i) {
    fb_build_sort_->Add(resident_build_.row(i));
  }
  resident_build_.Clear();
  table_.clear();
}

void GraceHashJoin::FinishSortMergeFallback() {
  Status st = fb_build_sort_->Finish();
  if (!st.ok()) {
    probe_->Close();
    Degrade(st);
    return;
  }
  fb_probe_sort_ = std::make_unique<ExternalSort>(
      fb_probe_schema_.get(), counters_, temp_, sort_config_);
  RowBlock block(probe_->schema().total_columns());
  while (probe_->NextBatch(&block) > 0) {
    fb_probe_sort_->AddBlock(block);
  }
  probe_->Close();
  st = fb_probe_sort_->Finish();
  if (!st.ok()) {
    Degrade(st);
    return;
  }
  fb_probe_view_ = std::make_unique<SortedSortView>(fb_probe_schema_.get(),
                                                    fb_probe_sort_.get());
  fb_build_view_ = std::make_unique<SortedSortView>(fb_build_schema_.get(),
                                                    fb_build_sort_.get());
  fb_join_ = std::make_unique<MergeJoin>(
      fb_probe_view_.get(), fb_build_view_.get(),
      type_ == JoinTypeHash::kLeftSemi ? JoinType::kLeftSemi
                                       : JoinType::kInner,
      counters_);
  fb_join_->Open();
  fb_input_ = std::make_unique<BlockCursor>(fb_join_.get());
}

void GraceHashJoin::Degrade(const Status& status) {
  failed_ = true;
  files_.RemoveAll();
  if (temp_ != nullptr) temp_->RecordError(status);
}

void GraceHashJoin::Open() {
  output_queue_.Clear();
  queue_pos_ = 0;
  pending_.clear();
  files_.RemoveAll();
  resident_build_.Clear();
  table_.clear();
  fell_back_ = false;
  failed_ = false;
  fb_input_.reset();
  fb_join_.reset();
  fb_probe_view_.reset();
  fb_build_view_.reset();
  fb_probe_sort_.reset();
  fb_build_sort_.reset();

  // Consume the build side; if it fits, keep it resident, otherwise
  // degrade per the fallback policy (sort+merge continuation, or classic
  // grace partitioning to temporary storage).
  build_->Open();
  BlockCursor build_input(build_);
  RowRef ref;
  bool build_fits = true;
  std::vector<std::unique_ptr<RunFileWriter>> build_writers;
  std::vector<std::string> build_paths;
  while (build_input.Next(&ref)) {
    if (build_fits &&
        (resident_build_.size() >= memory_rows_ ||
         OVC_FAILPOINT("grace_hash_join.force_overflow"))) {
      build_fits = false;
      if (fallback_ == FallbackPolicy::kSortMerge) {
        BeginSortMergeFallback();
      } else {
        // Overflow: re-partition what is already resident, then continue.
        build_writers.resize(partitions_);
        build_paths.resize(partitions_);
        for (uint32_t p = 0; p < partitions_; ++p) {
          build_writers[p] =
              std::make_unique<RunFileWriter>(&build_->schema(), counters_);
          build_paths[p] = files_.NewPath("ghj-build");
          Status st = build_writers[p]->Open(build_paths[p]);
          if (!st.ok()) {
            build_->Close();
            Degrade(st);
            return;
          }
        }
        OvcCodec codec(&build_->schema());
        for (size_t i = 0; i < resident_build_.size(); ++i) {
          const uint64_t* row = resident_build_.row(i);
          const uint32_t p = PartitionOf(row, /*level=*/0);
          Status st = build_writers[p]->Append(row, codec.MakeFromRow(row, 0));
          if (!st.ok()) {
            build_->Close();
            Degrade(st);
            return;
          }
        }
        resident_build_.Clear();
      }
    }
    if (build_fits) {
      table_.emplace(HashKeyPrefix(ref.cols, bind_columns_, counters_),
                     static_cast<uint32_t>(resident_build_.size()));
      resident_build_.AppendRow(ref.cols);
    } else if (fell_back_) {
      fb_build_sort_->Add(ref.cols);
    } else {
      OvcCodec codec(&build_->schema());
      const uint32_t p = PartitionOf(ref.cols, /*level=*/0);
      Status st =
          build_writers[p]->Append(ref.cols, codec.MakeFromRow(ref.cols, 0));
      if (!st.ok()) {
        build_->Close();
        Degrade(st);
        return;
      }
    }
  }
  build_->Close();
  in_memory_ = build_fits;

  probe_->Open();
  if (in_memory_) {
    // Stream the probe side against the resident table; queue results.
    BlockCursor probe_input(probe_);
    while (probe_input.Next(&ref)) {
      JoinResident(resident_build_, ref.cols);
    }
    probe_->Close();
    return;
  }

  if (fell_back_) {
    FinishSortMergeFallback();
    return;
  }

  // Partition the probe side the same way.
  std::vector<std::unique_ptr<RunFileWriter>> probe_writers(partitions_);
  std::vector<std::string> probe_paths(partitions_);
  for (uint32_t p = 0; p < partitions_; ++p) {
    probe_writers[p] =
        std::make_unique<RunFileWriter>(&probe_->schema(), counters_);
    probe_paths[p] = files_.NewPath("ghj-probe");
    Status st = probe_writers[p]->Open(probe_paths[p]);
    if (!st.ok()) {
      probe_->Close();
      Degrade(st);
      return;
    }
  }
  OvcCodec probe_codec(&probe_->schema());
  BlockCursor probe_input(probe_);
  while (probe_input.Next(&ref)) {
    const uint32_t p = PartitionOf(ref.cols, /*level=*/0);
    Status st =
        probe_writers[p]->Append(ref.cols, probe_codec.MakeFromRow(ref.cols, 0));
    if (!st.ok()) {
      probe_->Close();
      Degrade(st);
      return;
    }
  }
  probe_->Close();
  for (uint32_t p = 0; p < partitions_; ++p) {
    Status st = build_writers[p]->Close();
    if (st.ok()) st = probe_writers[p]->Close();
    if (!st.ok()) {
      Degrade(st);
      return;
    }
    pending_.push_back(PartitionPair{probe_paths[p], build_paths[p], 1});
  }
  resident_build_.Clear();
  table_.clear();
}

void GraceHashJoin::Repartition(const PartitionPair& pair) {
  // Too many build rows collided into this partition: split it (and its
  // probe counterpart) with the next level's salted hash.
  OVC_CHECK(pair.level <= 8);
  const Schema& bs = build_->schema();
  const Schema& ps = probe_->schema();
  OvcCodec bcodec(&bs), pcodec(&ps);
  std::vector<PartitionPair> subs(partitions_);
  std::vector<std::unique_ptr<RunFileWriter>> bw(partitions_), pw(partitions_);
  Status st = Status::Ok();
  for (uint32_t p = 0; p < partitions_ && st.ok(); ++p) {
    subs[p].level = pair.level + 1;
    subs[p].build_path = files_.NewPath("ghj-build");
    subs[p].probe_path = files_.NewPath("ghj-probe");
    bw[p] = std::make_unique<RunFileWriter>(&bs, counters_);
    pw[p] = std::make_unique<RunFileWriter>(&ps, counters_);
    st = bw[p]->Open(subs[p].build_path);
    if (st.ok()) st = pw[p]->Open(subs[p].probe_path);
  }
  const uint64_t* row = nullptr;
  Ovc code = 0;
  if (st.ok()) {
    RunFileReader build_reader(&bs, temp_);
    st = build_reader.Open(pair.build_path);
    while (st.ok() && build_reader.Next(&row, &code)) {
      const uint32_t p = PartitionOf(row, pair.level);
      st = bw[p]->Append(row, bcodec.MakeFromRow(row, 0));
    }
  }
  if (st.ok()) {
    RunFileReader probe_reader(&ps, temp_);
    st = probe_reader.Open(pair.probe_path);
    while (st.ok() && probe_reader.Next(&row, &code)) {
      const uint32_t p = PartitionOf(row, pair.level);
      st = pw[p]->Append(row, pcodec.MakeFromRow(row, 0));
    }
  }
  for (uint32_t p = 0; p < partitions_ && st.ok(); ++p) {
    st = bw[p]->Close();
    if (st.ok()) st = pw[p]->Close();
    pending_.push_back(subs[p]);
  }
  if (!st.ok()) Degrade(st);
}

bool GraceHashJoin::ProcessNextPartition() {
  while (!pending_.empty() && !failed_) {
    PartitionPair pair = pending_.back();
    pending_.pop_back();

    // Load the build partition and index it; a partition that still exceeds
    // the memory budget is split recursively with the next level's salt.
    resident_build_.Clear();
    table_.clear();
    RunFileReader build_reader(&build_->schema(), temp_);
    Status build_st = build_reader.Open(pair.build_path);
    if (!build_st.ok()) {
      // Degrade contract: a lost spill partition ends the operator's
      // output cleanly; the executor surfaces the recorded error.
      Degrade(build_st);
      return false;
    }
    const uint64_t* row = nullptr;
    Ovc code = 0;
    bool overflow = false;
    while (build_reader.Next(&row, &code)) {
      if (resident_build_.size() >= memory_rows_) {
        overflow = true;
        break;
      }
      table_.emplace(HashKeyPrefix(row, bind_columns_, counters_),
                     static_cast<uint32_t>(resident_build_.size()));
      resident_build_.AppendRow(row);
    }
    if (overflow) {
      Repartition(pair);
      RemovePair(pair);
      continue;
    }

    output_queue_.Clear();
    queue_pos_ = 0;
    RunFileReader probe_reader(&probe_->schema(), temp_);
    Status probe_st = probe_reader.Open(pair.probe_path);
    if (!probe_st.ok()) {
      Degrade(probe_st);
      return false;
    }
    while (probe_reader.Next(&row, &code)) {
      JoinResident(resident_build_, row);
    }
    RemovePair(pair);
    if (output_queue_.size() > 0) return true;
  }
  return false;
}

uint32_t GraceHashJoin::NextFallback(RowBlock* out) {
  const uint32_t ps_total = probe_->schema().total_columns();
  RowRef ref;
  while (!out->full() && fb_input_->Next(&ref)) {
    uint64_t* dst = out->AppendRow(0);  // this operator: unordered, no codes
    if (type_ == JoinTypeHash::kLeftSemi) {
      // Passthrough on both layouts: columns line up exactly.
      std::memcpy(dst, ref.cols, ps_total * sizeof(uint64_t));
      continue;
    }
    // MergeJoin emits [join key][probe rest][build rest][indicator]; this
    // operator's inner layout is [probe row][build row][indicator]. The
    // probe row is the continuation's first ps_total columns verbatim, and
    // the build row's leading key columns equal the join key (it is an
    // equi-join), so the remap is three memcpys.
    const uint32_t bs_total = build_->schema().total_columns();
    std::memcpy(dst, ref.cols, ps_total * sizeof(uint64_t));
    std::memcpy(dst + ps_total, ref.cols, bind_columns_ * sizeof(uint64_t));
    std::memcpy(dst + ps_total + bind_columns_, ref.cols + ps_total,
                (bs_total - bind_columns_) * sizeof(uint64_t));
    dst[ps_total + bs_total] = 3;
  }
  return out->size();
}

uint32_t GraceHashJoin::NextBatch(RowBlock* out) {
  out->Clear();
  if (failed_) return 0;
  if (fell_back_) return NextFallback(out);
  while (queue_pos_ >= output_queue_.size()) {
    if (in_memory_ || !ProcessNextPartition()) return 0;
  }
  // The queue stays put until the next partition refills it.
  return output_queue_.ServeBlock(&queue_pos_, out);
}

void GraceHashJoin::RemovePair(const PartitionPair& pair) {
  files_.Remove(pair.build_path);
  files_.Remove(pair.probe_path);
}

void GraceHashJoin::Close() {
  pending_.clear();
  files_.RemoveAll();
  output_queue_.Clear();
  resident_build_.Clear();
  table_.clear();
  fb_input_.reset();
  if (fb_join_ != nullptr) fb_join_->Close();
  fb_join_.reset();
  fb_probe_view_.reset();
  fb_build_view_.reset();
  fb_probe_sort_.reset();
  fb_build_sort_.reset();
  fb_probe_schema_.reset();
  fb_build_schema_.reset();
}

}  // namespace ovc
