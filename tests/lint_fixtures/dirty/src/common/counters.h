// Dirty fixture: OVC-L008 -- a counter field list entry whose
// `query.<field>` metric has no row in docs/OBSERVABILITY.md. The other
// entry is documented and stays silent.
#ifndef OVC_COMMON_COUNTERS_H_
#define OVC_COMMON_COUNTERS_H_

#define OVC_QUERY_COUNTER_FIELDS(X)            \
  X(documented_field, "has a registry row")    \
  X(undocumented_field, "has no registry row")

#endif  // OVC_COMMON_COUNTERS_H_
