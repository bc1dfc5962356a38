#include "pq/loser_tree.h"

#include "common/bits.h"

namespace ovc {

// OvcMergerT (the merge half of this header's machinery) is a template and
// lives entirely in loser_tree.h; this translation unit holds PqSorter.

PqSorter::PqSorter(const OvcCodec* codec, const KeyComparator* comparator)
    : codec_(codec), comparator_(comparator) {}

void PqSorter::Reset(const uint64_t* const* rows, uint32_t count) {
  rows_ = rows;
  count_ = count;
  capacity_ = CeilToPowerOfTwo(count == 0 ? 1 : count);
  depth_ = Log2OfPowerOfTwo(capacity_);
  nodes_.assign(capacity_, Entry{OvcCodec::LateFence(), 0});
  started_ = false;
  winner_ = Entry{OvcCodec::LateFence(), 0};
}

inline PqSorter::Entry PqSorter::PlayMatch(uint32_t node, Entry a,
                                           Entry b) {
  // The caller counts the match, once per pass.
  if (__builtin_expect(a.code != b.code, 1)) {
    return PlayCodeDecidedMatch(a, b, &nodes_[node]);
  }
  return PlayTie(node, a, b);
}

__attribute__((noinline)) PqSorter::Entry PqSorter::PlayTie(uint32_t node,
                                                            Entry a,
                                                            Entry b) {
  // Fences never tie, so both codes are valid and both rows exist.
  OVC_DCHECK(OvcCodec::IsValid(a.code));
  const int cmp = CompareEqualCodes(*codec_, *comparator_, rows_[a.slot],
                                    &a.code, rows_[b.slot], &b.code);
  Entry winner, loser;
  if (cmp < 0 || (cmp == 0 && a.slot < b.slot)) {
    winner = a;
    loser = b;
  } else {
    winner = b;
    loser = a;
  }
  if (cmp == 0) {
    loser.code = codec_->DuplicateCode();
  }
  nodes_[node] = loser;
  return winner;
}

PqSorter::Entry PqSorter::BuildWinner(uint32_t node) {
  if (node >= capacity_) {
    const uint32_t slot = node - capacity_;
    if (slot >= count_) {
      return Entry{OvcCodec::LateFence(slot), slot};
    }
    // Each row is a single-row run: its code is relative to minus infinity.
    return Entry{codec_->MakeInitial(rows_[slot]), slot};
  }
  Entry a = BuildWinner(2 * node);
  Entry b = BuildWinner(2 * node + 1);
  return PlayMatch(node, a, b);
}

bool PqSorter::Next(RowRef* out) {
  if (!started_) {
    started_ = true;
    if (count_ == 0) return false;
    if (capacity_ == 1) {
      winner_ = Entry{codec_->MakeInitial(rows_[0]), 0};
    } else {
      winner_ = BuildWinner(1);
      CountCodeComparisons(*comparator_, capacity_ - 1);
    }
  } else {
    // The winner's run is a single row, so its successor is its slot's
    // late fence; replaying the path is pure tear-down.
    Entry cand{OvcCodec::LateFence(winner_.slot), winner_.slot};
    uint32_t node = (capacity_ + winner_.slot) >> 1;
    while (node >= 1) {
      cand = PlayMatch(node, cand, nodes_[node]);
      node >>= 1;
    }
    CountCodeComparisons(*comparator_, depth_);
    winner_ = cand;
  }
  if (!OvcCodec::IsValid(winner_.code)) {
    return false;
  }
  out->cols = rows_[winner_.slot];
  out->ovc = winner_.code;
  return true;
}

}  // namespace ovc
