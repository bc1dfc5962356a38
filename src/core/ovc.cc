#include "core/ovc.h"

namespace ovc {

std::string OvcCodec::ToString(Ovc code) const {
  if (code == EarlyFence()) return "-inf";
  if (code >= kKindLateFence) return "+inf";  // any slot's late fence
  if (!IsValid(code)) return "invalid(" + std::to_string(code) + ")";
  if (IsDuplicate(code)) return "dup";
  return "(off=" + std::to_string(OffsetOf(code)) +
         ",val=" + std::to_string(ValueOf(code)) + ")";
}

}  // namespace ovc
