// RowRef: the unit of data flow between operators.

#ifndef OVC_CORE_ROW_REF_H_
#define OVC_CORE_ROW_REF_H_

#include <cstdint>

#include "core/ovc.h"

namespace ovc {

/// A non-owning view of one row together with its ascending offset-value
/// code relative to the stream's previous row (the stream's first row is
/// coded relative to "minus infinity", i.e. offset 0).
///
/// Operators produce blocks, not RowRefs (exec/operator.h: NextBatch is the
/// one pull); a RowRef points into a block or into a merge kernel's
/// storage. One handed out by a BlockCursor stays valid until the cursor
/// refills its block; one from a merger or sort until that kernel's next
/// pull.
struct RowRef {
  const uint64_t* cols = nullptr;
  Ovc ovc = 0;
};

}  // namespace ovc

#endif  // OVC_CORE_ROW_REF_H_
