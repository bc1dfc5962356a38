// Instrumentation counters.
//
// The paper's cost model is stated in terms of *column value comparisons*
// (bounded by N x K, with no log N factor) and *code comparisons* (folded
// into other work, effectively free). Every comparator and operator in this
// library counts its work through a QueryCounters instance so that tests can
// assert the paper's bounds and benchmarks can report comparison counts next
// to wall-clock time.

#ifndef OVC_COMMON_COUNTERS_H_
#define OVC_COMMON_COUNTERS_H_

#include <cstdint>
#include <string>

namespace ovc {

/// The one list of QueryCounters fields, in declaration order (which is
/// also the RESULT_DONE wire order). Each entry is X(field, help), where
/// `help` is the help text of the `query.<field>` metric. The struct
/// members, Merge/Delta/==/ToString, the wire codec, the JSON profile,
/// the query.* metrics and ovcsql `.counters` all expand this list, so a
/// new counter is one entry here plus one row in the docs/OBSERVABILITY.md
/// metric registry.
#define OVC_QUERY_COUNTER_FIELDS(X)                                          \
  /* Individual column-value comparisons (the expensive kind the paper       \
     bounds by N x K). */                                                    \
  X(column_comparisons, "Column value comparisons across all statements")    \
  /* Integer comparisons of whole offset-value codes (the cheap kind;        \
     "practically free" when folded into validity tests). */                 \
  X(code_comparisons, "Offset-value code comparisons across all statements") \
  /* Full row comparisons requested (each may cost several column            \
     comparisons). */                                                        \
  X(row_comparisons, "Row comparisons across all statements")                \
  /* Hash computations over key columns (hash-based baselines). */           \
  X(hash_computations, "Key hash computations across all statements")        \
  /* Rows written to temporary storage (spill volume, Figure 6               \
     discussion). */                                                         \
  X(rows_spilled, "Rows written to temporary storage")                       \
  /* Bytes written to temporary storage. */                                  \
  X(bytes_spilled, "Bytes written to temporary storage")                     \
  /* Rows that bypassed merge logic because their code marked them as        \
     duplicates of the previous winner (Section 5). */                       \
  X(merge_bypass_rows, "Rows that bypassed merge logic as coded duplicates") \
  /* Grace hash joins whose build side overflowed its memory budget and      \
     degraded to the sort+merge continuation mid-query. */                   \
  X(hash_join_fallbacks,                                                     \
    "Grace hash joins degraded to sort+merge mid-query")                     \
  /* Hash aggregations whose group table overflowed and degraded to          \
     in-sort aggregation mid-query. */                                       \
  X(hash_agg_fallbacks, "Hash aggregations degraded to in-sort mid-query")   \
  /* Transient temp-file I/O failures recovered by retry-with-backoff. */    \
  X(io_retries, "Transient temp-file I/O failures recovered by retry")

/// Work counters threaded through comparators, operators, and storage.
/// Not thread-safe; each execution thread owns its own instance and parallel
/// operators (exchange) aggregate at the end.
struct QueryCounters {
#define OVC_DECLARE_COUNTER(field, help) uint64_t field = 0;
  OVC_QUERY_COUNTER_FIELDS(OVC_DECLARE_COUNTER)
#undef OVC_DECLARE_COUNTER

  /// Calls `f(name, member)` for every field in declaration order, where
  /// `member` is a `uint64_t QueryCounters::*`.
  template <typename F>
  static void ForEachField(F&& f) {
#define OVC_VISIT_COUNTER(field, help) f(#field, &QueryCounters::field);
    OVC_QUERY_COUNTER_FIELDS(OVC_VISIT_COUNTER)
#undef OVC_VISIT_COUNTER
  }

  /// Adds all counts from `other` into this instance.
  void Merge(const QueryCounters& other) {
    ForEachField([&](const char*, uint64_t QueryCounters::*m) {
      this->*m += other.*m;
    });
  }

  /// Resets all counts to zero.
  void Reset() { *this = QueryCounters(); }

  /// Per-field difference `after - before`. Counters are monotone within a
  /// session, so snapshotting before a run and diffing after yields that
  /// run's exact resource slice (QueryResult::counters_delta).
  static QueryCounters Delta(const QueryCounters& before,
                             const QueryCounters& after) {
    QueryCounters d;
    ForEachField([&](const char*, uint64_t QueryCounters::*m) {
      d.*m = after.*m - before.*m;
    });
    return d;
  }

  /// One-line `field=value` summary of every field, for examples,
  /// benchmarks and test failure messages.
  std::string ToString() const {
    std::string out;
    ForEachField([&](const char* name, uint64_t QueryCounters::*m) {
      if (!out.empty()) out += ' ';
      out += name;
      out += '=';
      out += std::to_string(this->*m);
    });
    return out;
  }

  friend bool operator==(const QueryCounters& a, const QueryCounters& b) {
    bool equal = true;
    ForEachField([&](const char*, uint64_t QueryCounters::*m) {
      equal = equal && a.*m == b.*m;
    });
    return equal;
  }
  friend bool operator!=(const QueryCounters& a, const QueryCounters& b) {
    return !(a == b);
  }
};

}  // namespace ovc

#endif  // OVC_COMMON_COUNTERS_H_
