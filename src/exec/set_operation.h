// Sort-based set operations (Section 4.7).
//
// "Among set operations, intersection proceeds mostly like an inner join,
// union like a full outer join, and difference like an anti semi join."
// Inputs are two streams of identical schema, sorted on all columns, with
// offset-value codes. Duplicate handling follows SQL:
//   INTERSECT [ALL]  -- distinct: emit once when both sides have the key;
//                       all: emit min(nl, nr) copies
//   EXCEPT   [ALL]   -- distinct: emit once when only the left has it;
//                       all: emit max(nl - nr, 0) copies
//   UNION    [ALL]   -- distinct: emit once; all: emit nl + nr copies
//
// Group sizes (nl, nr) are counted from duplicate codes alone -- no column
// comparisons -- and output codes follow the filter theorem: the first copy
// of an emitted key combines the dropped keys' codes with its own; further
// copies carry the duplicate code.

#ifndef OVC_EXEC_SET_OPERATION_H_
#define OVC_EXEC_SET_OPERATION_H_

#include <vector>

#include "common/counters.h"
#include "core/accumulator.h"
#include "core/ovc_compare.h"
#include "exec/operator.h"
#include "row/row_buffer.h"

namespace ovc {

/// The three SQL set operations.
enum class SetOpType { kIntersect, kExcept, kUnion };

/// Sort-based set operation over two key-only streams.
class SetOperation : public Operator {
 public:
  /// `all` selects the SQL ALL variant (multiset semantics). Both children
  /// must be sorted with codes, have identical schemas, and carry no
  /// payload columns (a set-operation row *is* its key).
  SetOperation(Operator* left, Operator* right, SetOpType type, bool all,
               QueryCounters* counters);

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override;
  const Schema& schema() const override { return left_->schema(); }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  /// Copies to emit for a group of nl left and nr right duplicates.
  uint64_t CopiesFor(uint64_t nl, uint64_t nr) const;

  Operator* left_;
  Operator* right_;
  MergeInput lhs_;
  MergeInput rhs_;
  SetOpType type_;
  bool all_;
  OvcCodec codec_;
  KeyComparator comparator_;

  OvcAccumulator acc_;

  RowBuffer group_row_;
  Ovc group_code_ = 0;
  uint64_t pending_copies_ = 0;
  bool first_copy_pending_ = false;
};

}  // namespace ovc

#endif  // OVC_EXEC_SET_OPERATION_H_
