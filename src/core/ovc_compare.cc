#include "core/ovc_compare.h"

namespace ovc {

int CompareEqualCodes(const OvcCodec& codec, const KeyComparator& comparator,
                      const uint64_t* left_row, Ovc* left_code,
                      const uint64_t* right_row, Ovc* right_code) {
  const Ovc code = *left_code;
  OVC_DCHECK(code == *right_code);
  if (!OvcCodec::IsValid(code)) {
    // Two equal fences; no key data to compare, so a tie. Only a
    // CompareWithOvc caller can pass them: the tree-of-losers tournaments
    // give each slot its own fence, and merge join and set operations stop
    // before comparing two exhausted inputs.
    return 0;
  }

  // Equal-code theorem: both keys share prefix and value with the base;
  // column comparisons resume past them (or at the offset itself when the
  // 48-bit value image saturated and may hide a difference).
  const uint32_t resume = codec.ResumeColumn(code);
  const uint32_t arity = codec.arity();
  if (resume >= arity) {
    // Both rows are full-key duplicates of the base, hence of each other.
    return 0;
  }

  const uint32_t diff = comparator.FirstDifference(left_row, right_row, resume);
  if (diff == arity) {
    // Keys are equal; the caller assigns the duplicate code to whichever row
    // it emits second.
    return 0;
  }

  const uint64_t lv = codec.schema().NormalizedAt(left_row, diff);
  const uint64_t rv = codec.schema().NormalizedAt(right_row, diff);
  OVC_DCHECK(lv != rv);
  if (lv < rv) {
    // Left wins; right is the loser and is re-coded relative to left.
    *right_code = codec.Make(diff, rv);
    return -1;
  }
  *left_code = codec.Make(diff, lv);
  return 1;
}

}  // namespace ovc
