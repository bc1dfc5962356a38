// Deterministic fault injection for robustness tests.
//
// A *failpoint* is a named site in production code where a test can inject
// a failure without real resource exhaustion: the site asks
// OVC_FAILPOINT("name") and takes its error path when a test armed that
// name. Arming is counter-based -- skip the first N evaluations, then fail
// the next M -- so a test can target "the third temp-file write of this
// query" deterministically, with no timing or environment dependence.
//
// Cost discipline: failpoints are compiled in for Debug builds and any
// build defining OVC_ENABLE_FAILPOINTS (the CMake option of the same name;
// CI's TSan job turns it on). In plain Release builds OVC_FAILPOINT(name)
// is the literal constant `false` -- zero instructions on the hot path,
// priced by bench/bench_failpoint_overhead.cc exactly like the profiling
// wrapper's overhead budget.
//
// Registry (every name compiled into the tree; see docs/ROBUSTNESS.md):
//   tempfile.open                 FileWriter::Open fails (retryable)
//   tempfile.write                a FileWriter block flush fails (retryable)
//   grace_hash_join.force_overflow   build-side budget check reports full
//   hash_aggregate.force_overflow    group-table budget check reports full

#ifndef OVC_COMMON_FAILPOINT_H_
#define OVC_COMMON_FAILPOINT_H_

#include <cstdint>
#include <string>

#if !defined(NDEBUG) || defined(OVC_ENABLE_FAILPOINTS)
#define OVC_FAILPOINTS_ENABLED 1
#else
#define OVC_FAILPOINTS_ENABLED 0
#endif

namespace ovc {
namespace failpoint {

inline constexpr uint64_t kAlways = ~uint64_t{0};

#if OVC_FAILPOINTS_ENABLED

/// Arms `name`: the next `skip_first` evaluations pass, the `fail_times`
/// after that fail, everything later passes again. Re-arming resets the
/// counters. Thread-safe (one mutex; failpoints are a test facility).
void Arm(const std::string& name, uint64_t skip_first = 0,
         uint64_t fail_times = kAlways);
/// Disarms `name`; evaluations pass and stop counting.
void Disarm(const std::string& name);
/// Disarms everything (test teardown).
void DisarmAll();
/// Evaluations of `name` since it was armed (0 when not armed).
uint64_t Hits(const std::string& name);
/// The hot-path check behind OVC_FAILPOINT. Unarmed names return false.
bool ShouldFail(const char* name);

#else

inline void Arm(const std::string&, uint64_t = 0, uint64_t = kAlways) {}
inline void Disarm(const std::string&) {}
inline void DisarmAll() {}
inline uint64_t Hits(const std::string&) { return 0; }
inline bool ShouldFail(const char*) { return false; }

#endif

}  // namespace failpoint
}  // namespace ovc

/// True when the named failpoint is armed and scheduled to fire now.
/// A literal `false` (no call, no branch input) in builds without
/// failpoints, so production hot paths pay nothing.
#if OVC_FAILPOINTS_ENABLED
#define OVC_FAILPOINT(name) (::ovc::failpoint::ShouldFail(name))
#else
#define OVC_FAILPOINT(name) (false)
#endif

#endif  // OVC_COMMON_FAILPOINT_H_
