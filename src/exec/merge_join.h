// Merge join with offset-value codes (Section 4.7).
//
// "The logic of merge join is similar to an external merge sort": the two
// sorted inputs are merged key by key, and the comparison that decides
// which input advances is exactly the comparison a two-input merge performs
// -- so CompareWithOvc both drives the join and maintains the code
// invariant (each side's current code stays relative to the last consumed
// key). From there:
//
//  * matched keys: the group's first output row takes the group key's code
//    (combined, via the filter theorem, with codes of keys dropped since
//    the previous output); every further row of the group is a key
//    duplicate and takes the duplicate code;
//  * unmatched keys that the join type drops feed the accumulator;
//  * unmatched keys that the join type emits (outer, anti) take their own
//    combined code.
//
// Full outer join emits the coalesced join key -- the paper's "virtual
// column" -- so output keys are never null; a match-indicator payload
// column records which side(s) contributed.
//
// No column-value comparisons happen beyond those of the merge logic
// itself.

#ifndef OVC_EXEC_MERGE_JOIN_H_
#define OVC_EXEC_MERGE_JOIN_H_

#include <vector>

#include "common/counters.h"
#include "core/accumulator.h"
#include "core/ovc_compare.h"
#include "exec/operator.h"
#include "row/row_buffer.h"

namespace ovc {

/// Join flavors. "Left"/"right" qualify which input's unmatched rows
/// survive (outer) or which input is filtered (semi/anti).
enum class JoinType {
  kInner,
  kLeftOuter,
  kRightOuter,
  kFullOuter,
  kLeftSemi,
  kLeftAnti,
  kRightSemi,
  kRightAnti,
};

/// Returns a short lowercase name, e.g. "left outer".
const char* JoinTypeName(JoinType type);

/// Sort-based join of two inputs sorted on (and carrying codes for) equal
/// join-key prefixes.
///
/// Output layouts:
///  * semi / anti joins: the filtered input's schema, rows passed through;
///  * inner / outer joins: join key columns, then left payloads, then right
///    payloads, then one match-indicator column (bit 0 = left side present,
///    bit 1 = right side present; absent sides have zeroed payloads).
///
/// The right input's rows of each key group are buffered in memory
/// (many-to-many joins need one side's group resident).
class MergeJoin : public Operator {
 public:
  /// Both children must be sorted with codes; their key schemas must match.
  MergeJoin(Operator* left, Operator* right, JoinType type,
            QueryCounters* counters);

  /// Output layout of a merge join of `left` and `right` -- the canonical
  /// join row layout the planner normalizes every physical join to.
  static Schema MakeOutputSchema(const Schema& left, const Schema& right,
                                 JoinType type);

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override;
  const Schema& schema() const override { return output_schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  enum class State { kCompare, kCrossEmit, kRightGroupEmit, kDone };

  /// Buffers all right rows of the current key group and advances past them.
  void BufferRightGroup();
  /// Appends a combined row (join key, payloads, indicator) to `out`.
  void EmitCombined(const uint64_t* left_row, const uint64_t* right_row,
                    Ovc code, RowBlock* out);
  /// The code of the current group's next output row: the group key's code
  /// for its first row, the duplicate code for every further row.
  Ovc NextGroupCode() {
    if (!group_first_pending_) return out_codec_.DuplicateCode();
    group_first_pending_ = false;
    return group_code_;
  }

  bool WantLeftOnly() const {
    return type_ == JoinType::kLeftOuter || type_ == JoinType::kFullOuter ||
           type_ == JoinType::kLeftAnti;
  }
  bool WantRightOnly() const {
    return type_ == JoinType::kRightOuter || type_ == JoinType::kFullOuter ||
           type_ == JoinType::kRightAnti;
  }
  bool WantMatches() const {
    return type_ != JoinType::kLeftAnti && type_ != JoinType::kRightAnti;
  }
  bool IsPassthrough() const {
    return type_ == JoinType::kLeftSemi || type_ == JoinType::kLeftAnti ||
           type_ == JoinType::kRightSemi || type_ == JoinType::kRightAnti;
  }

  Operator* left_;
  Operator* right_;
  MergeInput lhs_;
  MergeInput rhs_;
  JoinType type_;
  Schema output_schema_;
  OvcCodec key_codec_;   // over the left schema (join keys match)
  OvcCodec out_codec_;   // over the output schema (same key arity)
  KeyComparator comparator_;
  QueryCounters* counters_;

  OvcAccumulator acc_;
  State state_ = State::kCompare;

  // Key-group machinery.
  Ovc group_code_ = 0;
  bool group_first_pending_ = false;  // next emission is the group's first
  RowBuffer right_group_;
  size_t right_idx_ = 0;
};

}  // namespace ovc

#endif  // OVC_EXEC_MERGE_JOIN_H_
