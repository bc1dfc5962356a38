// Clean fixture: a counter field list whose entry is documented as
// `query.<field>`, and a generated metric site that stringizes the field
// name (skipped: its names come from the list).
#ifndef OVC_COMMON_COUNTERS_H_
#define OVC_COMMON_COUNTERS_H_

#define OVC_QUERY_COUNTER_FIELDS(X)                            \
  /* A documented field; the comment continues the define. \
     */                                                        \
  X(demo_field, "documented counter field")

#define OVC_RECORD_DEMO(field, help) \
  OVC_METRIC_COUNTER("query." #field, help).Add(1);

#endif  // OVC_COMMON_COUNTERS_H_
