// Order-preserving nested-loops / lookup join (Section 4.8).
//
// The outer (left) input is sorted with offset-value codes; the inner input
// is a bindable source -- an index lookup, a scan with a pushed-down
// predicate, anything that yields the matching rows for one outer row. The
// join predicate need not be an equality.
//
// Output codes come from the filter theorem over the outer stream (an outer
// row failing the many-table predicate is dropped exactly like a row
// failing a filter predicate). When the inner results are themselves sorted
// with codes, output rows additionally benefit from them: the code of a
// later inner match is the inner code "with the offset incremented by the
// size of the outer sort key".
//
// Many-to-many handling implements the paper's role reversal: within a
// duplicate group of outer keys, "each inner row joins all outer rows
// before processing the next inner row", which keeps the extended output
// key (outer key, inner key) sorted and the offsets maximal.

#ifndef OVC_EXEC_NESTED_LOOPS_JOIN_H_
#define OVC_EXEC_NESTED_LOOPS_JOIN_H_

#include <memory>
#include <vector>

#include "common/counters.h"
#include "core/accumulator.h"
#include "exec/operator.h"
#include "row/row_buffer.h"
#include "sort/run.h"

namespace ovc {

/// Re-bindable inner input of a nested-loops / lookup join.
class LookupSource {
 public:
  virtual ~LookupSource() = default;

  /// Positions the source at the inner rows matching `outer_row`.
  virtual void Bind(const uint64_t* outer_row) = 0;

  /// Next matching inner row. When sorted_with_ovc(), rows arrive in inner
  /// sort order and `code` is the row's code relative to its predecessor in
  /// the underlying ordered structure (the first row's code is relative to
  /// a row outside the match range and is ignored by the join).
  virtual bool Next(const uint64_t** row, Ovc* code) = 0;

  /// The inner rows' schema.
  virtual const Schema& schema() const = 0;

  /// True when matches arrive sorted with usable codes.
  virtual bool sorted_with_ovc() const = 0;
};

/// Equality lookup into a sorted in-memory run: matches are the inner rows
/// whose first `bind_columns` key columns equal the outer row's first
/// `bind_columns` key columns (binary search; an index-lookup stand-in).
class RunLookupSource : public LookupSource {
 public:
  /// `schema` and `run` must outlive the source; `counters` (optional)
  /// prices the binary-search comparisons.
  RunLookupSource(const Schema* schema, const InMemoryRun* run,
                  uint32_t bind_columns, QueryCounters* counters);

  void Bind(const uint64_t* outer_row) override;
  bool Next(const uint64_t** row, Ovc* code) override;
  const Schema& schema() const override { return *schema_; }
  bool sorted_with_ovc() const override { return true; }

 private:
  const Schema* schema_;
  const InMemoryRun* run_;
  uint32_t bind_columns_;
  KeyComparator comparator_;
  size_t pos_ = 0;
  size_t end_ = 0;
};

/// Join flavors supported by NestedLoopsJoin (right variants are not
/// provided, matching common lookup-join implementations and the paper).
enum class JoinTypeNlj { kInner, kLeftOuter, kLeftSemi, kLeftAnti };

/// Nested-loops (lookup) join.
class NestedLoopsJoin : public Operator {
 public:
  /// `outer` must be sorted with codes. Output layout for kInner /
  /// kLeftOuter: outer key columns, then (when the inner is sorted with
  /// codes) inner key columns as additional sort keys, then outer payloads,
  /// inner payloads (inner keys repeat here when not part of the sort key),
  /// and a match indicator. kLeftSemi / kLeftAnti pass outer rows through.
  NestedLoopsJoin(Operator* outer, LookupSource* inner, JoinTypeNlj type,
                  QueryCounters* counters);

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override { outer_->Close(); }
  const Schema& schema() const override { return output_schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  enum class State { kNextGroup, kScanInner, kEmitOuterPerInner,
                     kEmitGroupRows, kDone };

  Schema MakeOutputSchema() const;
  void CollectOuterGroup();
  void EmitCombined(const uint64_t* outer_row, const uint64_t* inner_row,
                    Ovc code, RowBlock* out);
  /// Re-packs an outer-schema code word into the (wider) output schema:
  /// same offset, same value, different arity field.
  Ovc LiftOuterCode(Ovc code) const;

  Operator* outer_;
  BlockCursor outer_input_;
  LookupSource* inner_;
  JoinTypeNlj type_;
  bool extended_;  // inner keys join the output sort key
  Schema output_schema_;
  OvcCodec outer_codec_;
  OvcCodec inner_codec_;
  OvcCodec out_codec_;
  QueryCounters* counters_;

  RowRef oref_;
  bool o_valid_ = false;
  OvcAccumulator acc_;
  State state_ = State::kNextGroup;

  RowBuffer outer_group_;
  Ovc group_code_ = 0;
  bool group_first_pending_ = false;

  std::vector<uint64_t> inner_row_copy_;
  Ovc inner_code_ = 0;
  bool inner_first_ = false;
  size_t outer_idx_ = 0;
  size_t emit_idx_ = 0;
  bool any_match_ = false;
};

}  // namespace ovc

#endif  // OVC_EXEC_NESTED_LOOPS_JOIN_H_
