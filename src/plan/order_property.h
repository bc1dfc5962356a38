// Order properties: the planner's currency.
//
// The paper's thesis is that offset-value codes must flow *through* query
// plans: each sort-based operator consumes its input's order and codes and
// re-derives them for its output (Section 4 throughout). The planner
// therefore tracks, for every plan node, exactly the pair of facts the
// operator contract in exec/operator.h exposes at runtime:
//
//   * sorted_prefix -- how many leading key columns the stream is
//     guaranteed sorted on (0 = no order guarantee), and
//   * has_ovc      -- whether rows carry valid ascending offset-value
//     codes relative to the stream's full key.
//
// Matching these *available* properties against the *required* properties
// of order-consuming operators (merge join, in-stream aggregation,
// duplicate removal, set operations) is what lets the planner elide
// redundant sorts and choose between sort-based and hash-based physical
// operators.

#ifndef OVC_PLAN_ORDER_PROPERTY_H_
#define OVC_PLAN_ORDER_PROPERTY_H_

#include <cstdint>
#include <string>

namespace ovc::plan {

/// What a stream guarantees about its order and codes.
struct OrderProperty {
  /// Leading key columns the stream is sorted on (0 = unsorted).
  uint32_t sorted_prefix = 0;
  /// True when rows carry valid offset-value codes (meaningful only when
  /// sorted_prefix > 0; codes are relative to the stream's full key).
  bool has_ovc = false;

  /// An unsorted, code-free stream.
  static OrderProperty Unsorted() { return {0, false}; }
  /// Sorted on `prefix` columns, with or without codes.
  static OrderProperty Sorted(uint32_t prefix, bool ovc) {
    return {prefix, ovc};
  }

  bool sorted() const { return sorted_prefix > 0; }

  /// True when the stream delivers at least `required` sorted columns.
  bool SortedOn(uint32_t required) const { return sorted_prefix >= required; }

  /// True when the stream delivers `required` sorted columns *and* codes --
  /// the precondition of every code-consuming operator.
  bool SortedWithCodes(uint32_t required) const {
    return SortedOn(required) && has_ovc;
  }

  bool operator==(const OrderProperty& other) const {
    return sorted_prefix == other.sorted_prefix && has_ovc == other.has_ovc;
  }
  bool operator!=(const OrderProperty& other) const {
    return !(*this == other);
  }

  /// e.g. "sorted(3)+ovc", "sorted(2)", "unsorted".
  std::string ToString() const;
};

/// What a consumer would like its input to provide: the planner's
/// "interesting order", propagated top-down by AnalyzePlan. A requirement
/// is a wish, not a contract -- the physical planner decides per node
/// whether satisfying it (with a sort or an order-producing operator)
/// beats a hash-based alternative.
struct OrderRequirement {
  /// Sorted columns the parent could exploit (0 = order is of no use).
  uint32_t prefix = 0;
  /// True when the parent also consumes offset-value codes.
  bool needs_ovc = false;

  static OrderRequirement None() { return {0, false}; }
  static OrderRequirement Codes(uint32_t prefix) { return {prefix, true}; }

  bool interested() const { return prefix > 0; }

  /// True when `available` satisfies this requirement.
  bool SatisfiedBy(const OrderProperty& available) const {
    if (prefix == 0) return true;
    return needs_ovc ? available.SortedWithCodes(prefix)
                     : available.SortedOn(prefix);
  }
};

}  // namespace ovc::plan

#endif  // OVC_PLAN_ORDER_PROPERTY_H_
