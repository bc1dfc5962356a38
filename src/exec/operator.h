// Operator framework: Volcano-style iterators that pull blocks of rows
// carrying offset-value codes.
//
// Every operator produces one stream of rows, served block by block through
// NextBatch -- the only pull there is. For order-preserving operators the
// contract is:
//   * rows come out sorted on the operator's output schema key prefix, and
//   * each row's code is its ascending offset-value code relative to the
//     previous output row (offset 0 for the first row),
// which is exactly the contract OvcStreamChecker verifies and the next
// operator in the pipeline consumes (Section 4's central theme: operators
// must not only exploit but also *produce* offset-value codes). Block
// boundaries carry no meaning: the concatenation of blocks is the stream.
//
// Unordered operators (hash baselines, plain scans) set sorted()/has_ovc()
// to false and emit codes of 0.
//
// Row-wise consumers (merge join, aggregates, loser-tree merges) read a
// child one row at a time through a BlockCursor, which pulls the child's
// blocks and hands out their rows without another virtual call per row.

#ifndef OVC_EXEC_OPERATOR_H_
#define OVC_EXEC_OPERATOR_H_

#include <cstdint>
#include <memory>

#include "core/ovc.h"
#include "core/row_ref.h"
#include "pq/loser_tree.h"
#include "row/row_block.h"
#include "row/schema.h"

namespace ovc {

/// Base class for all execution operators.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator (and its inputs) for NextBatch() calls.
  virtual void Open() = 0;

  /// Clears `out`, fills it with up to out->capacity() rows of the stream,
  /// and returns the number of rows produced. A return of 0 means end of
  /// stream, and `out` is then empty; short (non-full) blocks mid-stream
  /// are allowed. The first row of a block is coded relative to the last
  /// row of the previous block, so the concatenation of blocks is the
  /// stream (see row/row_block.h). Block contents stay valid until the
  /// following NextBatch()/Close() call on this operator -- and no longer:
  /// a queue-fed MergeExchange frees a producer batch as soon as it moves
  /// on, so a consumer that needs a row beyond its next pull must copy it.
  virtual uint32_t NextBatch(RowBlock* out) = 0;

  /// Releases resources; the operator may be Open()ed again afterwards
  /// where the concrete class documents support for rescans.
  virtual void Close() = 0;

  /// Output row layout.
  virtual const Schema& schema() const = 0;

  /// True when the output is sorted on the schema's key prefix.
  virtual bool sorted() const = 0;

  /// True when output rows carry valid offset-value codes.
  virtual bool has_ovc() const = 0;
};

/// Reads an operator's stream one row at a time. Owns one RowBlock, refills
/// it from the child's NextBatch when its rows are used up, and hands out
/// RowRefs into it: one virtual call per block, none per row. A RowRef it
/// returns stays valid until the cursor refills, i.e. until the Next() call
/// after the last row of the current block. Also a MergeSource, so loser
/// trees merge operator streams through it.
class BlockCursor final : public MergeSource {
 public:
  /// `child` must outlive the cursor.
  explicit BlockCursor(Operator* child)
      : child_(child), block_(child->schema().total_columns()) {}

  /// Drops buffered rows; call whenever the child is (re)opened.
  void Reset() {
    block_.Clear();
    pos_ = 0;
    done_ = false;
  }

  /// The next row of the child's stream; false at its end.
  bool Next(RowRef* out) {
    if (pos_ == block_.size() && !Refill()) return false;
    out->cols = block_.row(pos_);
    out->ovc = block_.code(pos_);
    ++pos_;
    return true;
  }

  bool Next(const uint64_t** row, Ovc* code) override {
    RowRef ref;
    if (!Next(&ref)) return false;
    *row = ref.cols;
    *code = ref.ovc;
    return true;
  }

 private:
  bool Refill() {
    pos_ = 0;
    if (done_) return false;
    if (child_->NextBatch(&block_) > 0) return true;
    block_.Clear();
    done_ = true;
    return false;
  }

  Operator* child_;
  RowBlock block_;
  uint32_t pos_ = 0;
  bool done_ = false;
};

/// One input of a two-input merge (merge join, set operations): a cursor
/// over the child and its current row. An exhausted input's row is the late
/// fence, so the merge comparison needs no end-of-input special case.
struct MergeInput {
  explicit MergeInput(Operator* child) : cursor(child) {}

  /// Positions on the first row; call after (re)opening the child.
  void Start() {
    cursor.Reset();
    Advance();
  }
  void Advance() {
    valid = cursor.Next(&ref);
    if (!valid) {
      ref.cols = nullptr;
      ref.ovc = OvcCodec::LateFence();
    }
  }
  /// Advances past the rest of the current key group (duplicate codes);
  /// returns the group's row count, the current row included.
  uint64_t SkipGroup(const OvcCodec& codec) {
    uint64_t rows = 1;
    for (Advance(); valid && codec.IsDuplicate(ref.ovc); Advance()) ++rows;
    return rows;
  }

  BlockCursor cursor;
  RowRef ref;
  bool valid = false;
};

/// Convenience: drains `op` (Open/NextBatch/Close) and returns the row
/// count.
uint64_t DrainAndCount(Operator* op);

}  // namespace ovc

#endif  // OVC_EXEC_OPERATOR_H_
