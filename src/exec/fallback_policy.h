// Mid-query graceful degradation policy.
//
// The paper's Figure 6 race (and the companion sorting paper's robustness
// argument) say that with offset-value codes the sort-based plan is cheap
// enough to be the *safe* answer when a hash-based plan's memory estimate
// turns out wrong. This enum selects what a hash operator does when its
// budget check fails mid-query:
//
//  * kPartition -- the classic grace behavior: spill both inputs to hash
//    partitions and recurse. Every row is written and re-read at least
//    once per level; a badly skewed key can re-partition repeatedly.
//    This is the pre-fallback behavior and stays the default for directly
//    constructed operators (benchmarks that *measure* the hash plan's
//    spill cost must keep it).
//  * kSortMerge -- degrade to the sort-based plan from the point of
//    failure: the rows already consumed plus the unread remainder feed an
//    ExternalSort (which spills with prefix-truncated, coded runs), and
//    the result is joined/aggregated by merge logic with the paper's
//    comparison savings. Bounded: one sort per input, no recursion.
//    Planner-built plans default to this (PlannerOptions::fallback).

#ifndef OVC_EXEC_FALLBACK_POLICY_H_
#define OVC_EXEC_FALLBACK_POLICY_H_

#include <cstdint>

namespace ovc {

/// Spill partitions of a grace hash join or hash aggregation (the fan-out
/// of the kPartition path).
constexpr uint32_t kHashPartitions = 16;

enum class FallbackPolicy {
  kPartition,
  kSortMerge,
};

inline const char* FallbackPolicyName(FallbackPolicy policy) {
  return policy == FallbackPolicy::kSortMerge ? "sort-merge" : "partition";
}

}  // namespace ovc

#endif  // OVC_EXEC_FALLBACK_POLICY_H_
