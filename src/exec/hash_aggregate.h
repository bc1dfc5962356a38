// Hash aggregation baseline with spilling (Figure 5's hash-based plan).
//
// Hybrid hashing: groups accumulate in an in-memory table until the memory
// budget is reached; rows whose group is not already resident then spill to
// hash partitions on temporary storage, and each partition is aggregated in
// memory afterwards. Output is unordered and carries no offset-value codes
// -- which is precisely why the hash-based plan of Figure 5 needs *three*
// blocking operators where the sort-based plan needs two.

#ifndef OVC_EXEC_HASH_AGGREGATE_H_
#define OVC_EXEC_HASH_AGGREGATE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/temp_file.h"
#include "exec/aggregate.h"
#include "exec/fallback_policy.h"
#include "exec/operator.h"
#include "row/row_buffer.h"
#include "sort/external_sort.h"
#include "sort/run_file.h"

namespace ovc {

/// Hash-based grouping and aggregation with a row budget and grace-style
/// partition spilling. Blocking: consumes its child in Open().
///
/// Graceful degradation: with FallbackPolicy::kSortMerge, a group table
/// that overflows `memory_groups` mid-Open degrades to in-sort aggregation
/// instead of recursive partitioning: the resident partial-aggregate state
/// rows plus every remaining input row (transformed to a state row, counts
/// materialized as 1) feed one collapsing ExternalSort on the group key,
/// which merges key-duplicate states in every run it writes and in every
/// merge -- the Figure 5 sort-based plan, entered mid-query. Counted in
/// QueryCounters::hash_agg_fallbacks.
class HashAggregate : public Operator {
 public:
  /// Groups on the first `group_prefix` key columns; aggregates as in
  /// InStreamAggregate. `memory_groups` bounds the resident group count.
  /// `sort_config` tunes the fallback sort (only read under kSortMerge).
  HashAggregate(Operator* child, uint32_t group_prefix,
                std::vector<AggregateSpec> aggregates, uint64_t memory_groups,
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
  /// Accumulates `row` into the resident table; false when the table is
  /// full and the row's group is absent.
  bool TryAccumulate(const uint64_t* row);
  void SeedGroup(uint64_t* group_state);
  void AccumulateInto(uint64_t* group_state, const uint64_t* row);
  /// Moves the resident table's groups into the output queue.
  void FlushTableToQueue();
  bool ProcessNextPartition();
  /// Hash partition of `row` at recursion `level` (level-salted so that
  /// recursive repartitioning actually splits a partition's keys).
  uint32_t PartitionOf(const uint64_t* row, uint32_t level);

  /// kSortMerge overflow path: moves the resident partial-aggregate state
  /// rows into a collapsing ExternalSort over the output schema.
  void BeginSortMergeFallback();
  /// Transforms one input row into a state row and adds it to the sort.
  void AddInputRowToFallback(const uint64_t* row);
  /// Records `status` in the temp manager's error slot and stops output.
  void Degrade(const Status& status);

  Operator* child_;
  uint32_t group_prefix_;
  std::vector<AggregateSpec> aggregates_;
  uint64_t memory_groups_;
  uint32_t partitions_;
  FallbackPolicy fallback_;
  SortConfig sort_config_;
  Schema output_schema_;
  QueryCounters* counters_;
  TempFileManager* temp_;

  // Resident table: group key hash -> index into group_states_ (rows of
  // group key columns followed by aggregate accumulators).
  std::unordered_multimap<uint64_t, uint32_t> table_;
  RowBuffer group_states_;

  /// A spilled partition awaiting (possibly recursive) processing.
  struct PendingPartition {
    std::string path;
    uint32_t level;
  };

  std::vector<PendingPartition> pending_partitions_;

  RowBuffer output_queue_;
  size_t queue_pos_ = 0;

  // In-sort continuation (kSortMerge overflow only). State rows are
  // [group keys][one mergeable accumulator per aggregate]; the sort folds
  // key-duplicates (partial counts merge by summation).
  bool fell_back_ = false;
  bool failed_ = false;
  std::unique_ptr<ExternalSort> fb_sort_;
  std::vector<uint64_t> fb_state_row_;
};

}  // namespace ovc

#endif  // OVC_EXEC_HASH_AGGREGATE_H_
