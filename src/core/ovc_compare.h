// The central comparison primitive: compare two keys that are coded relative
// to the same base, updating the loser's code relative to the winner.
//
// This implements both of Iyer's corollaries from Section 4 of the paper:
//
//  * Unequal-code theorem: if the codes (relative to the shared base) decide
//    the comparison, the loser's code relative to the winner equals its old
//    code -- nothing to recompute.
//  * Equal-code theorem: if the codes are equal, the keys' first difference
//    lies past the shared prefix and value; column-value comparisons resume
//    there, and the loser's new code is (first-difference index, loser's
//    value at that index).
//
// The unequal-code path is one integer compare ("practically free",
// Section 5) and is inline here; the equal-code path, which reads the rows,
// stays out of line. CompareWithOvc counts every code comparison and every
// column-value comparison through the comparator's QueryCounters; a
// tournament that calls the two halves directly counts its matches itself.

#ifndef OVC_CORE_OVC_COMPARE_H_
#define OVC_CORE_OVC_COMPARE_H_

#include "core/ovc.h"
#include "row/comparator.h"

namespace ovc {

/// Adds `n` code comparisons to the comparator's counters, if any.
inline void CountCodeComparisons(const KeyComparator& comparator,
                                 uint64_t n) {
  QueryCounters* counters = comparator.counters();
  if (counters != nullptr) counters->code_comparisons += n;
}

/// The row half of CompareWithOvc, for `*left_code == *right_code`: column
/// comparisons resume past the shared prefix, and the loser is re-coded
/// relative to the winner. Counts column comparisons, not the code
/// comparison. Rows are not touched when the codes are fences. Lets a
/// tournament load a row only on a tie; it plays a known number of matches
/// per pass and counts them in one CountCodeComparisons.
int CompareEqualCodes(const OvcCodec& codec, const KeyComparator& comparator,
                      const uint64_t* left_row, Ovc* left_code,
                      const uint64_t* right_row, Ovc* right_code);

/// Compares the sort keys of `left` and `right`, both of whose codes are
/// relative to the same base key that sorts no later than either.
///
/// Returns <0 when left sorts earlier, >0 when right sorts earlier, 0 when
/// the keys are equal. On a decided comparison (non-zero result) the
/// *loser's* code is updated in place to be relative to the winner; the
/// winner's code is never touched. On equality neither code is changed --
/// the caller decides which row to emit first (e.g. by input index, for a
/// stable merge) and gives the other the duplicate code.
///
/// Fences participate: an early fence sorts before everything, a late fence
/// after everything, and no column comparisons are spent on them.
inline int CompareWithOvc(const OvcCodec& codec,
                          const KeyComparator& comparator,
                          const uint64_t* left_row, Ovc* left_code,
                          const uint64_t* right_row, Ovc* right_code) {
  CountCodeComparisons(comparator, 1);
  // Unequal-code theorem: the codes decide, and the loser's code relative
  // to the winner is unchanged. A smaller ascending code sorts earlier.
  if (*left_code != *right_code) return *left_code < *right_code ? -1 : 1;
  return CompareEqualCodes(codec, comparator, left_row, left_code, right_row,
                           right_code);
}

}  // namespace ovc

#endif  // OVC_CORE_OVC_COMPARE_H_
