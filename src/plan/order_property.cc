#include "plan/order_property.h"

namespace ovc::plan {

std::string OrderProperty::ToString() const {
  if (sorted_prefix == 0) return "unsorted";
  std::string s = "sorted(" + std::to_string(sorted_prefix) + ")";
  if (has_ovc) s += "+ovc";
  return s;
}

}  // namespace ovc::plan
