#include "bench/ablation/replacement_selection.h"

#include <cstring>

#include "common/bits.h"
#include "core/ovc_compare.h"

namespace ovc::ablation {

ReplacementSelection::ReplacementSelection(const Schema* schema,
                                           QueryCounters* counters,
                                           TempFileManager* temp,
                                           uint32_t capacity)
    : schema_(schema),
      codec_(schema),
      comparator_(schema, counters),
      counters_(counters),
      temp_(temp),
      capacity_(capacity),
      tree_capacity_(CeilToPowerOfTwo(capacity)),
      slots_(schema->total_columns()),
      prev_emitted_(schema->total_columns(), 0) {
  OVC_CHECK(capacity >= 1);
  slots_.ReserveRows(capacity);
  nodes_.assign(tree_capacity_, Entry{});
}

ReplacementSelection::~ReplacementSelection() = default;

ReplacementSelection::Entry ReplacementSelection::MakeFreshEntry(
    const uint64_t* row, uint32_t slot) {
  // Fresh rows before the tree is built: single-row runs relative to minus
  // infinity (base sequence 0), all in run 1.
  Entry e;
  e.code = codec_.MakeInitial(row);
  e.run = 1;
  e.seq = next_seq_++;
  e.base_seq = 0;
  e.slot = slot;
  return e;
}

ReplacementSelection::Entry ReplacementSelection::PlayMatch(uint32_t node,
                                                            Entry a,
                                                            Entry b) {
  Entry winner, loser;
  if (a.run != b.run) {
    // Run numbers decide; codes and bases are untouched (no claim is made
    // about a cross-run code relationship).
    if (counters_ != nullptr) ++counters_->code_comparisons;
    if (a.run < b.run) {
      winner = a;
      loser = b;
    } else {
      winner = b;
      loser = a;
    }
  } else if (!OvcCodec::IsValid(a.code) || !OvcCodec::IsValid(b.code)) {
    // At least one fence: the code word decides, no row data is touched.
    if (counters_ != nullptr) ++counters_->code_comparisons;
    if (a.code < b.code || (a.code == b.code && a.slot < b.slot)) {
      winner = a;
      loser = b;
    } else {
      winner = b;
      loser = a;
    }
  } else if (a.base_seq == b.base_seq) {
    // Same base: offset-value codes apply.
    const uint64_t* ra = slots_.row(a.slot);
    const uint64_t* rb = slots_.row(b.slot);
    const int cmp = CompareWithOvc(codec_, comparator_, ra, &a.code, rb,
                                   &b.code);
    if (cmp < 0 || (cmp == 0 && a.slot < b.slot)) {
      winner = a;
      loser = b;
    } else {
      winner = b;
      loser = a;
    }
    if (cmp == 0) loser.code = codec_.DuplicateCode();
    // Whether the codes decided (unequal-code theorem) or columns did, the
    // loser's code is now valid relative to the winner's row.
    loser.base_seq = winner.seq;
  } else {
    // Different bases: one full key comparison re-bases the loser.
    const uint64_t* ra = slots_.row(a.slot);
    const uint64_t* rb = slots_.row(b.slot);
    if (counters_ != nullptr) ++counters_->row_comparisons;
    const uint32_t d = comparator_.FirstDifference(ra, rb, 0);
    int cmp = 0;
    if (d < schema_->key_arity()) {
      cmp = schema_->NormalizedAt(ra, d) < schema_->NormalizedAt(rb, d) ? -1
                                                                        : 1;
    }
    if (cmp < 0 || (cmp == 0 && a.slot < b.slot)) {
      winner = a;
      loser = b;
    } else {
      winner = b;
      loser = a;
    }
    loser.code = codec_.MakeFromRow(slots_.row(loser.slot), d);
    loser.base_seq = winner.seq;
  }
  nodes_[node] = loser;
  return winner;
}

void ReplacementSelection::BuildTree() {
  // Recursive tournament over all slots (lambda to keep the recursion local).
  struct Builder {
    ReplacementSelection* rs;
    std::vector<Entry>* leaves;
    Entry Build(uint32_t node) {
      if (node >= rs->tree_capacity_) {
        return (*leaves)[node - rs->tree_capacity_];
      }
      Entry a = Build(2 * node);
      Entry b = Build(2 * node + 1);
      return rs->PlayMatch(node, a, b);
    }
  };
  std::vector<Entry> leaves(tree_capacity_);
  for (uint32_t i = 0; i < tree_capacity_; ++i) {
    if (i < slots_.size()) {
      leaves[i] = MakeFreshEntry(slots_.row(i), i);
    } else {
      leaves[i] = Entry{};  // permanent late fence on padding slots
      leaves[i].slot = i;
    }
  }
  if (tree_capacity_ == 1) {
    winner_ = leaves[0];
  } else {
    Builder builder{this, &leaves};
    winner_ = builder.Build(1);
  }
  built_ = true;
}

Status ReplacementSelection::EmitWinner() {
  const uint64_t* row = slots_.row(winner_.slot);
  if (winner_.run != current_run_) {
    // Run boundary: close the current run and start the next.
    OVC_CHECK(winner_.run == current_run_ + 1);
    if (writer_ != nullptr) {
      OVC_RETURN_IF_ERROR(writer_->Close());
      runs_.push_back(SpilledRun{current_path_, writer_->rows()});
      writer_.reset();
    }
    current_run_ = winner_.run;
    run_has_rows_ = false;
  }
  if (writer_ == nullptr) {
    writer_ = std::make_unique<RunFileWriter>(schema_, counters_);
    current_path_ = temp_->NewPath("rs-run");
    OVC_RETURN_IF_ERROR(writer_->Open(current_path_));
  }
  Ovc out_code;
  if (!run_has_rows_) {
    // First row of a run: coded relative to minus infinity.
    out_code = codec_.MakeInitial(row);
  } else if (winner_.base_seq == prev_emitted_seq_) {
    out_code = winner_.code;
  } else {
    // The winner's code is relative to an older base; re-derive against the
    // previously emitted row. Only happens around run boundaries.
    if (counters_ != nullptr) ++counters_->row_comparisons;
    const uint32_t d =
        comparator_.FirstDifference(prev_emitted_.data(), row, 0);
    out_code = codec_.MakeFromRow(row, d);
  }
  OVC_RETURN_IF_ERROR(writer_->Append(row, out_code));
  std::memcpy(prev_emitted_.data(), row,
              schema_->total_columns() * sizeof(uint64_t));
  prev_emitted_seq_ = winner_.seq;
  run_has_rows_ = true;
  return Status::Ok();
}

Status ReplacementSelection::PopAndReplace(const Entry& replacement) {
  OVC_RETURN_IF_ERROR(EmitWinner());
  Entry cand = replacement;
  uint32_t node = (tree_capacity_ + winner_.slot) >> 1;
  while (node >= 1) {
    cand = PlayMatch(node, cand, nodes_[node]);
    node >>= 1;
  }
  winner_ = cand;
  return Status::Ok();
}

Status ReplacementSelection::Add(const uint64_t* row) {
  if (slots_.size() < capacity_) {
    slots_.AppendRow(row);
    return Status::Ok();
  }
  if (!built_) {
    BuildTree();
  }
  // The winner leaves; the fresh row takes its slot. One extra comparison
  // per input row -- against the emitted winner -- assigns the run number
  // and primes the fresh row's offset-value code.
  const uint32_t slot = winner_.slot;
  const uint64_t* emitted = slots_.row(slot);
  Entry fresh;
  fresh.slot = slot;
  fresh.seq = next_seq_++;
  if (counters_ != nullptr) ++counters_->row_comparisons;
  const uint32_t d = comparator_.FirstDifference(emitted, row, 0);
  if (d == schema_->key_arity()) {
    fresh.run = winner_.run;
    fresh.code = codec_.DuplicateCode();
    fresh.base_seq = winner_.seq;
  } else if (schema_->NormalizedAt(row, d) > schema_->NormalizedAt(emitted, d)) {
    fresh.run = winner_.run;
    fresh.code = codec_.MakeFromRow(row, d);
    fresh.base_seq = winner_.seq;
  } else {
    // Sorts before the last winner: next run, coded against minus infinity.
    fresh.run = winner_.run + 1;
    fresh.code = codec_.MakeInitial(row);
    fresh.base_seq = 0;
  }
  Status s = EmitWinner();
  if (!s.ok()) return s;
  // Overwrite the slot only after emitting (EmitWinner reads the row).
  std::memcpy(slots_.mutable_row(slot), row,
              schema_->total_columns() * sizeof(uint64_t));
  Entry cand = fresh;
  uint32_t node = (tree_capacity_ + slot) >> 1;
  while (node >= 1) {
    cand = PlayMatch(node, cand, nodes_[node]);
    node >>= 1;
  }
  winner_ = cand;
  return Status::Ok();
}

Status ReplacementSelection::Finish() {
  if (!built_) {
    if (slots_.empty()) {
      return Status::Ok();
    }
    BuildTree();
  }
  while (OvcCodec::IsValid(winner_.code)) {
    Entry fence;  // defaults: late fence, infinite run
    fence.slot = winner_.slot;
    OVC_RETURN_IF_ERROR(PopAndReplace(fence));
  }
  if (writer_ != nullptr) {
    OVC_RETURN_IF_ERROR(writer_->Close());
    runs_.push_back(SpilledRun{current_path_, writer_->rows()});
    writer_.reset();
  }
  return Status::Ok();
}

std::vector<SpilledRun> ReplacementSelection::TakeRuns() {
  return std::move(runs_);
}

}  // namespace ovc::ablation
