// Hash joins: the order-preserving in-memory variant (Section 4.9) and the
// spilling grace-hash baseline used by Figure 6's hash-based plan.
//
// Order-preserving: "hash-join preserves the sort order of its probe input
// if the build input and its hash table fit in memory. ... the hash table
// is much like an unsorted version of a database index in index
// nested-loops join." Output codes follow the same rules as lookup join
// with an unsorted inner: filter theorem over the probe stream, duplicate
// codes for additional matches.
//
// Grace: when the build input exceeds its memory budget, both inputs are
// hash-partitioned to temporary storage and each partition pair is joined
// in memory -- every row of both inputs is spilled once, which is exactly
// the behavior Figure 6's discussion charges the hash-based plan for.

#ifndef OVC_EXEC_HASH_JOIN_H_
#define OVC_EXEC_HASH_JOIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "core/accumulator.h"
#include "exec/fallback_policy.h"
#include "exec/merge_join.h"
#include "exec/operator.h"
#include "row/row_buffer.h"
#include "sort/external_sort.h"

namespace ovc {

/// Join flavors supported by the hash joins (probe side is "left").
enum class JoinTypeHash { kInner, kLeftOuter, kLeftSemi, kLeftAnti };

/// Hashes the first `columns` columns of `row` (counted in `counters`).
uint64_t HashKeyPrefix(const uint64_t* row, uint32_t columns,
                       QueryCounters* counters);

/// Order-preserving in-memory hash join: probe (left) input sorted with
/// codes; build (right) input fully resident.
class OrderPreservingHashJoin : public Operator {
 public:
  /// Joins on equality of the first `bind_columns` key columns of both
  /// sides. `memory_rows` is the build-side residency budget; exceeding it
  /// aborts (the compile-time guarantee of Section 4.9 is the caller's job).
  /// Output layout for kInner/kLeftOuter: probe key columns, probe payloads,
  /// all build columns (as payload), match indicator. kLeftSemi/kLeftAnti
  /// pass probe rows through.
  OrderPreservingHashJoin(Operator* probe, Operator* build,
                          uint32_t bind_columns, JoinTypeHash type,
                          uint64_t memory_rows, QueryCounters* counters);

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override;
  const Schema& schema() const override { return output_schema_; }
  bool sorted() const override { return true; }
  bool has_ovc() const override { return true; }

 private:
  Schema MakeOutputSchema() const;
  void BuildTable();
  void EmitCombined(const uint64_t* probe_row, const uint64_t* build_row,
                    Ovc code, RowBlock* out);

  Operator* probe_;
  Operator* build_;
  BlockCursor probe_input_;
  uint32_t bind_columns_;
  JoinTypeHash type_;
  uint64_t memory_rows_;
  Schema output_schema_;
  OvcCodec probe_codec_;
  QueryCounters* counters_;

  RowBuffer build_rows_;
  std::unordered_multimap<uint64_t, uint32_t> table_;

  RowRef pref_;
  OvcAccumulator acc_;
  std::vector<uint32_t> matches_;
  size_t match_idx_ = 0;
  Ovc probe_code_ = 0;
  bool emitting_ = false;
};

/// Grace hash join baseline: unordered output, no codes, spills both inputs
/// when the build side exceeds memory. Blocking: consumes both children in
/// Open().
///
/// Graceful degradation: with FallbackPolicy::kSortMerge, a build side that
/// overflows `memory_rows` mid-Open does NOT trigger recursive partition
/// thrashing. Instead the rows already consumed plus the unread remainder
/// feed an ExternalSort on the join key (spilling coded, prefix-truncated
/// runs), the probe stream is sorted the same way, and a MergeJoin
/// continuation finishes the query with the paper's comparison savings.
/// The overflow is counted in QueryCounters::hash_join_fallbacks and the
/// output keeps this operator's layout, so callers cannot tell the plans
/// apart except by the counters (and the row order).
class GraceHashJoin : public Operator {
 public:
  /// `type` limited to kInner and kLeftSemi (what Figure 6's plans need).
  /// `sort_config` tunes the fallback sorts (only read under kSortMerge).
  GraceHashJoin(Operator* probe, Operator* build, uint32_t bind_columns,
                JoinTypeHash type, uint64_t memory_rows,
                QueryCounters* counters, TempFileManager* temp,
                uint32_t partitions = kHashPartitions,
                FallbackPolicy fallback = FallbackPolicy::kPartition,
                SortConfig sort_config = SortConfig{});

  void Open() override;
  uint32_t NextBatch(RowBlock* out) override;
  void Close() override;
  const Schema& schema() const override { return output_schema_; }
  bool sorted() const override { return false; }
  bool has_ovc() const override { return false; }

 private:
  struct PartitionPair {
    std::string probe_path;
    std::string build_path;
    uint32_t level = 0;
  };

  Schema MakeOutputSchema() const;
  /// Joins one resident (build RowBuffer) against a probe iterator.
  void JoinResident(const RowBuffer& build, const uint64_t* probe_row);
  bool ProcessNextPartition();
  /// Level-salted hash partition (recursion splits colliding keys).
  uint32_t PartitionOf(const uint64_t* row, uint32_t level);
  /// Splits a partition pair into `partitions_` sub-pairs at level+1.
  void Repartition(const PartitionPair& pair);

  /// kSortMerge overflow path: moves the resident build rows into an
  /// ExternalSort keyed on the bind columns (the rest of the build stream
  /// follows via Add in Open's consume loop).
  void BeginSortMergeFallback();
  /// Sorts the probe stream and stands up the MergeJoin continuation.
  void FinishSortMergeFallback();
  /// Fills `out` with continuation rows, remapped to this operator's layout.
  uint32_t NextFallback(RowBlock* out);
  /// Records `status` in the temp manager's error slot and stops output.
  void Degrade(const Status& status);

  Operator* probe_;
  Operator* build_;
  uint32_t bind_columns_;
  JoinTypeHash type_;
  uint64_t memory_rows_;
  uint32_t partitions_;
  FallbackPolicy fallback_;
  SortConfig sort_config_;
  Schema output_schema_;
  QueryCounters* counters_;
  TempFileManager* temp_;

  // In-memory fast path or partition queue.
  std::vector<PartitionPair> pending_;
  RowBuffer resident_build_;
  std::unordered_multimap<uint64_t, uint32_t> table_;
  RowBuffer output_queue_;
  size_t queue_pos_ = 0;
  bool in_memory_ = false;

  // Sort+merge continuation (kSortMerge overflow only). The schemas
  // reinterpret the unchanged row layouts with key_arity == bind_columns_
  // so both sides sort -- and MergeJoin binds -- on exactly the join key.
  bool fell_back_ = false;
  bool failed_ = false;
  std::unique_ptr<Schema> fb_probe_schema_;
  std::unique_ptr<Schema> fb_build_schema_;
  std::unique_ptr<ExternalSort> fb_probe_sort_;
  std::unique_ptr<ExternalSort> fb_build_sort_;
  std::unique_ptr<Operator> fb_probe_view_;
  std::unique_ptr<Operator> fb_build_view_;
  std::unique_ptr<MergeJoin> fb_join_;
  std::unique_ptr<BlockCursor> fb_input_;  // reads fb_join_
};

}  // namespace ovc

#endif  // OVC_EXEC_HASH_JOIN_H_
