// Tree-of-losers priority queue with offset-value coding (Section 3).
//
// The tree embeds a balanced binary tournament in an array. Each internal
// node holds the loser of its match; the overall winner sits above the root.
// Replacing a winner with its successor retraces exactly the winner's
// leaf-to-root path -- one comparison per level -- and every key on that
// path is coded relative to the prior overall winner, so offset-value codes
// decide most comparisons with a single integer compare.
//
// Two classes:
//  * OvcMerger merges F sorted inputs that carry offset-value codes and
//    produces a sorted output stream with correct codes -- the codes emitted
//    are the winners' codes, which are relative to the previous overall
//    winner, i.e. the previous output row. This is the merge step of
//    external sort, the merging exchange, LSM compaction, and the model for
//    merge join.
//  * PqSorter sorts an in-memory batch by merging N single-row runs
//    ("run generation merges 'sorted' runs of a single row each"): queue
//    build-up and tear-down only, near-optimal comparison counts, and the
//    output carries offset-value codes as a byproduct.
//
// Exhausted inputs fold into the code word as late fences, so the test for
// a valid key and the comparison of codes are one unsigned integer
// comparison ("the comparison of offset-value codes is practically free",
// Section 5). Each slot has a fence of its own (OvcCodec::LateFence(slot)),
// so fences never tie: every match between two of them, like every match
// between a fence and a key, is decided by the codes. A match whose codes
// differ is also free of branches: the winner is selected with mask
// arithmetic, because on unsorted input the outcome is a coin toss a branch
// predictor misses half the time. Equal codes -- two valid keys, equal up
// to the code (duplicates, saturated value images) -- take an out-of-line
// tie path that reads the rows.

#ifndef OVC_PQ_LOSER_TREE_H_
#define OVC_PQ_LOSER_TREE_H_

#include <cstdint>
#include <vector>

#include "common/bits.h"
#include "core/ovc.h"
#include "core/ovc_compare.h"
#include "core/row_ref.h"
#include "row/comparator.h"
#include "row/row_block.h"

namespace ovc {

/// Pull interface for one sorted, offset-value-coded merge input.
class MergeSource {
 public:
  virtual ~MergeSource() = default;

  /// Produces the next row and its code relative to this input's previous
  /// row (the input's first row must be coded at offset 0, i.e. relative to
  /// minus infinity). Returns false at end of input. The returned pointer
  /// must stay valid until the next call on this source.
  virtual bool Next(const uint64_t** row, Ovc* code) = 0;
};

/// MergeSource view of a row producer with `bool Next(RowRef*)` -- a merger
/// or a finished sort -- so collapsing and merging stages stack on it.
template <typename Rows>
class RowRefSource final : public MergeSource {
 public:
  explicit RowRefSource(Rows* rows) : rows_(rows) {}

  bool Next(const uint64_t** row, Ovc* code) override {
    RowRef ref;
    if (!rows_->Next(&ref)) return false;
    *row = ref.cols;
    *code = ref.ovc;
    return true;
  }

 private:
  Rows* rows_;
};

/// Clears `out` and fills it with copies of up to out->capacity() rows
/// pulled from `rows` (anything with `bool Next(RowRef*)`: a merger, a
/// sort). Returns the row count; 0 once `rows` is exhausted.
template <typename Rows>
uint32_t FillBlock(Rows* rows, RowBlock* out) {
  out->Clear();
  RowRef ref;
  while (!out->full() && rows->Next(&ref)) out->Append(ref.cols, ref.ovc);
  return out->size();
}

/// One tournament slot's current key: its code relative to the last overall
/// winner, and the slot (input or row index) it belongs to.
struct TournamentEntry {
  Ovc code;
  uint32_t slot;
};

/// Plays a match that the codes decide (`a.code != b.code`): the smaller
/// code wins, and by the unequal-code theorem neither code changes. Parks
/// the loser at `*loser` and returns the winner, without a branch.
inline TournamentEntry PlayCodeDecidedMatch(TournamentEntry a,
                                            TournamentEntry b,
                                            TournamentEntry* loser) {
  OVC_DCHECK(a.code != b.code);
  const uint64_t mask = uint64_t{0} - static_cast<uint64_t>(a.code < b.code);
  const uint32_t slot_mask = static_cast<uint32_t>(mask);
  const TournamentEntry winner{(a.code & mask) | (b.code & ~mask),
                               (a.slot & slot_mask) | (b.slot & ~slot_mask)};
  *loser = TournamentEntry{a.code ^ b.code ^ winner.code,
                           a.slot ^ b.slot ^ winner.slot};
  return winner;
}

/// Merges F sorted OVC streams into one sorted OVC stream.
///
/// `Source` is the concrete input type; it only needs
/// `bool Next(const uint64_t**, Ovc*)`. With `Source = MergeSource` (the
/// `OvcMerger` alias below) inputs are pulled through a virtual call, which
/// is what heterogeneous merges (exchange, LSM forests) need. Instantiated
/// over a `final` concrete source (InMemoryRunSource, RunFileReader) the
/// compiler devirtualizes and inlines the per-row refill into the tournament
/// loop -- the hot path of every external-sort merge -- so the inner loop
/// carries no indirect calls at all.
template <typename Source>
class OvcMergerT {
 public:
  struct Options {
    /// Section 5 fast path: when the next row from the winner's input
    /// carries the duplicate code (offset == arity), it is equal to the row
    /// just emitted and goes directly to the output, bypassing the merge
    /// logic entirely.
    bool duplicate_bypass;

    Options() : duplicate_bypass(true) {}
  };

  /// `codec` and `comparator` must outlive the merger; `sources` are
  /// borrowed. At least one source is required.
  OvcMergerT(const OvcCodec* codec, const KeyComparator* comparator,
             std::vector<Source*> sources, Options options = Options())
      : codec_(codec),
        comparator_(comparator),
        sources_(std::move(sources)),
        options_(options) {
    OVC_CHECK(!sources_.empty());
    capacity_ = CeilToPowerOfTwo(static_cast<uint32_t>(sources_.size()));
    depth_ = Log2OfPowerOfTwo(capacity_);
    nodes_.assign(capacity_, Entry{OvcCodec::LateFence(), 0});
    rows_.assign(capacity_, nullptr);
  }

  /// Produces the next merged row; its code is relative to the previously
  /// produced row. Returns false when all inputs are exhausted, and keeps
  /// returning false without further work. The row pointer stays valid
  /// until the next Next()/destruction.
  bool Next(RowRef* out) {
    if (!started_) {
      started_ = true;
      if (capacity_ == 1) {
        winner_ = LeafEntry(0);
      } else {
        winner_ = BuildWinner(1);
        CountCodeComparisons(*comparator_, capacity_ - 1);
      }
    } else if (OvcCodec::IsValid(winner_.code)) {
      Advance();
    }
    if (!OvcCodec::IsValid(winner_.code)) {
      return false;
    }
    out->cols = rows_[winner_.slot];
    out->ovc = winner_.code;
    return true;
  }

  /// Block-sized output: clears `out` and fills it with up to
  /// out->capacity() merged rows (copied out of the sources' buffers), so a
  /// consumer takes whole blocks between tournament refills. Codes follow
  /// the stream contract across block boundaries (the first row of a block
  /// is coded relative to the last row of the previous block). Returns the
  /// number of rows produced; 0 means all inputs are exhausted.
  uint32_t NextBlock(RowBlock* out) { return FillBlock(this, out); }

  /// Number of inputs merged.
  uint32_t fan_in() const { return static_cast<uint32_t>(sources_.size()); }

 private:
  using Entry = TournamentEntry;

  Entry LeafEntry(uint32_t slot) {
    if (slot >= sources_.size()) {
      // Padding slot beyond the real fan-in: permanently exhausted.
      return Entry{OvcCodec::LateFence(slot), slot};
    }
    return FetchSuccessor(slot);
  }

  Entry FetchSuccessor(uint32_t slot) {
    const uint64_t* row = nullptr;
    Ovc code = 0;
    if (!sources_[slot]->Next(&row, &code)) {
      rows_[slot] = nullptr;
      return Entry{OvcCodec::LateFence(slot), slot};
    }
    OVC_DCHECK(OvcCodec::IsValid(code));
    rows_[slot] = row;
    return Entry{code, slot};
  }

  Entry BuildWinner(uint32_t node) {
    if (node >= capacity_) {
      return LeafEntry(node - capacity_);
    }
    Entry a = BuildWinner(2 * node);
    Entry b = BuildWinner(2 * node + 1);
    return PlayMatch(node, a, b);
  }

  void Advance() {
    const uint32_t slot = winner_.slot;
    Entry cand = FetchSuccessor(slot);
    if (options_.duplicate_bypass && codec_->IsDuplicate(cand.code)) {
      // Section 5: the successor equals the row just emitted; no key in the
      // tree can sort earlier, so it goes straight to the output. All parked
      // codes stay valid because the new base has the same sort key.
      if (comparator_->counters() != nullptr) {
        ++comparator_->counters()->merge_bypass_rows;
      }
      winner_ = cand;
      return;
    }
    uint32_t node = (capacity_ + slot) >> 1;
    while (node >= 1) {
      cand = PlayMatch(node, cand, nodes_[node]);
      node >>= 1;
    }
    // A pass plays one match per level; count them in one addition.
    CountCodeComparisons(*comparator_, depth_);
    winner_ = cand;
  }

  /// Plays one match: returns the winner, parks the loser at nodes_[node].
  /// The rows are read only when the codes tie. The caller counts the match.
  Entry PlayMatch(uint32_t node, Entry a, Entry b) {
    if (__builtin_expect(a.code != b.code, 1)) {
      return PlayCodeDecidedMatch(a, b, &nodes_[node]);
    }
    return PlayTie(node, a, b);
  }

  /// PlayMatch for equal codes, which are valid (fences never tie): the
  /// rows decide, then the lower slot, and an equal loser gets the
  /// duplicate code.
  __attribute__((noinline)) Entry PlayTie(uint32_t node, Entry a, Entry b) {
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
      // Equal keys: the loser is a full-key duplicate of the winner.
      loser.code = codec_->DuplicateCode();
    }
    nodes_[node] = loser;
    return winner;
  }

  const OvcCodec* codec_;
  const KeyComparator* comparator_;
  std::vector<Source*> sources_;
  Options options_;

  uint32_t capacity_ = 0;                 // padded power of two
  uint32_t depth_ = 0;                    // matches per leaf-to-root path
  std::vector<Entry> nodes_;              // 1..capacity_-1 hold losers
  std::vector<const uint64_t*> rows_;     // current candidate row per slot
  Entry winner_{OvcCodec::LateFence(), 0};
  bool started_ = false;
};

/// The polymorphic merger: inputs pulled through the MergeSource vtable.
using OvcMerger = OvcMergerT<MergeSource>;

/// Sorts a batch of rows by building a tree of single-row runs and tearing
/// it down. Produces output codes as a byproduct of the sort.
class PqSorter {
 public:
  /// `codec` and `comparator` must outlive the sorter.
  PqSorter(const OvcCodec* codec, const KeyComparator* comparator);

  /// Initializes the tournament over `rows` (borrowed pointers; must stay
  /// valid until the sorter is exhausted). May be called again after the
  /// previous sort finished, reusing the tree allocation.
  void Reset(const uint64_t* const* rows, uint32_t count);

  /// Pops the next row in sort order with its output code.
  bool Next(RowRef* out);

 private:
  using Entry = TournamentEntry;

  Entry BuildWinner(uint32_t node);
  Entry PlayMatch(uint32_t node, Entry a, Entry b);
  Entry PlayTie(uint32_t node, Entry a, Entry b);

  const OvcCodec* codec_;
  const KeyComparator* comparator_;
  uint32_t capacity_ = 0;
  uint32_t depth_ = 0;  // matches per leaf-to-root path
  uint32_t count_ = 0;
  std::vector<Entry> nodes_;
  const uint64_t* const* rows_ = nullptr;
  Entry winner_{OvcCodec::LateFence(), 0};
  bool started_ = false;
};

}  // namespace ovc

#endif  // OVC_PQ_LOSER_TREE_H_
