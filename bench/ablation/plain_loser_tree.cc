#include "bench/ablation/plain_loser_tree.h"

#include "common/bits.h"

namespace ovc::ablation {

PlainMerger::PlainMerger(const KeyComparator* comparator,
                         std::vector<MergeSource*> sources)
    : comparator_(comparator), sources_(std::move(sources)) {
  OVC_CHECK(!sources_.empty());
  capacity_ = CeilToPowerOfTwo(static_cast<uint32_t>(sources_.size()));
  nodes_.assign(capacity_, Entry{0, true});
  rows_.assign(capacity_, nullptr);
}

PlainMerger::Entry PlainMerger::LeafEntry(uint32_t slot) {
  if (slot >= sources_.size()) {
    return Entry{slot, true};
  }
  return FetchSuccessor(slot);
}

PlainMerger::Entry PlainMerger::FetchSuccessor(uint32_t slot) {
  const uint64_t* row = nullptr;
  Ovc code = 0;
  if (!sources_[slot]->Next(&row, &code)) {
    rows_[slot] = nullptr;
    return Entry{slot, true};
  }
  rows_[slot] = row;
  return Entry{slot, false};
}

PlainMerger::Entry PlainMerger::PlayMatch(uint32_t node, Entry a, Entry b) {
  Entry winner, loser;
  if (a.exhausted || b.exhausted) {
    // No key comparison needed against an exhausted input.
    if (a.exhausted && b.exhausted) {
      winner = a.slot < b.slot ? a : b;
      loser = a.slot < b.slot ? b : a;
    } else if (a.exhausted) {
      winner = b;
      loser = a;
    } else {
      winner = a;
      loser = b;
    }
  } else {
    const int cmp = comparator_->Compare(rows_[a.slot], rows_[b.slot]);
    if (cmp < 0 || (cmp == 0 && a.slot < b.slot)) {
      winner = a;
      loser = b;
    } else {
      winner = b;
      loser = a;
    }
  }
  nodes_[node] = loser;
  return winner;
}

PlainMerger::Entry PlainMerger::BuildWinner(uint32_t node) {
  if (node >= capacity_) {
    return LeafEntry(node - capacity_);
  }
  Entry a = BuildWinner(2 * node);
  Entry b = BuildWinner(2 * node + 1);
  return PlayMatch(node, a, b);
}

bool PlainMerger::Next(RowRef* out) {
  if (!started_) {
    started_ = true;
    if (capacity_ == 1) {
      winner_ = LeafEntry(0);
    } else {
      winner_ = BuildWinner(1);
    }
  } else if (!winner_.exhausted) {
    Entry cand = FetchSuccessor(winner_.slot);
    uint32_t node = (capacity_ + winner_.slot) >> 1;
    while (node >= 1) {
      cand = PlayMatch(node, cand, nodes_[node]);
      node >>= 1;
    }
    winner_ = cand;
  }
  if (winner_.exhausted) {
    return false;
  }
  out->cols = rows_[winner_.slot];
  out->ovc = 0;
  return true;
}

PlainPqSorter::PlainPqSorter(const KeyComparator* comparator)
    : comparator_(comparator) {}

void PlainPqSorter::Reset(const uint64_t* const* rows, uint32_t count) {
  rows_ = rows;
  count_ = count;
  capacity_ = CeilToPowerOfTwo(count == 0 ? 1 : count);
  nodes_.assign(capacity_, Entry{0, true});
  started_ = false;
  winner_ = Entry{0, true};
}

PlainPqSorter::Entry PlainPqSorter::PlayMatch(uint32_t node, Entry a,
                                              Entry b) {
  Entry winner, loser;
  if (a.exhausted || b.exhausted) {
    if (a.exhausted && b.exhausted) {
      winner = a.slot < b.slot ? a : b;
      loser = a.slot < b.slot ? b : a;
    } else if (a.exhausted) {
      winner = b;
      loser = a;
    } else {
      winner = a;
      loser = b;
    }
  } else {
    const int cmp = comparator_->Compare(rows_[a.slot], rows_[b.slot]);
    if (cmp < 0 || (cmp == 0 && a.slot < b.slot)) {
      winner = a;
      loser = b;
    } else {
      winner = b;
      loser = a;
    }
  }
  nodes_[node] = loser;
  return winner;
}

PlainPqSorter::Entry PlainPqSorter::BuildWinner(uint32_t node) {
  if (node >= capacity_) {
    const uint32_t slot = node - capacity_;
    return Entry{slot, slot >= count_};
  }
  Entry a = BuildWinner(2 * node);
  Entry b = BuildWinner(2 * node + 1);
  return PlayMatch(node, a, b);
}

bool PlainPqSorter::Next(RowRef* out) {
  if (!started_) {
    started_ = true;
    if (count_ == 0) return false;
    if (capacity_ == 1) {
      winner_ = Entry{0, false};
    } else {
      winner_ = BuildWinner(1);
    }
  } else {
    Entry cand{winner_.slot, true};
    uint32_t node = (capacity_ + winner_.slot) >> 1;
    while (node >= 1) {
      cand = PlayMatch(node, cand, nodes_[node]);
      node >>= 1;
    }
    winner_ = cand;
  }
  if (winner_.exhausted) {
    return false;
  }
  out->cols = rows_[winner_.slot];
  out->ovc = 0;
  return true;
}

}  // namespace ovc::ablation
