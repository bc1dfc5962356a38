// The four ovcbench workloads: tables, server flags, statement streams and
// expected results. Everything derives from the benchmark seed, so the
// same seed gives the same tables, literals and answers.

#ifndef OVCBENCH_WORKLOADS_H_
#define OVCBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "oracle.h"
#include "plan/plan_executor.h"

namespace ovcbench {

enum class Shape { kPointLookup, kJoinGroupBy, kDistinct };

struct Workload {
  std::string name;
  std::string why;
  Shape shape = Shape::kPointLookup;
  /// Closed-loop client connections, one thread each.
  int connections = 1;
  /// ovcd's --workers-per-query, also used by the in-process passes.
  uint32_t workers_per_query = 1;
  /// ovcd's machine-wide sort budget in rows, divided among the admission
  /// slots; 0 keeps ovcd's default.
  uint64_t sort_memory_rows = 0;
  std::vector<TableDef> tables;
  /// Statements from connection 0's stream that the exact-count served
  /// pass sends, and that the in-process timed and profiled passes run.
  int count_queries = 1;
  int timed_queries = 1;
  int profiled_queries = 1;
  /// The percentile latency_tail_ms reports: the highest one with at least
  /// 10 samples beyond it in a 20 s window.
  double tail_percentile = 0.9;

  /// True when the statement fixes its output order (ORDER BY), so results
  /// are checked in order rather than as a multiset.
  bool ordered() const { return shape == Shape::kJoinGroupBy; }
  /// Base-table rows one statement reads: the denominator of *_per_row.
  uint64_t input_rows() const;
};

const std::vector<Workload>& AllWorkloads();
/// Nullptr when no workload has that name.
const Workload* FindWorkload(const std::string& name);

/// ovcd arguments (without the program name) serving `w` at `seed`.
std::vector<std::string> OvcdArgs(const Workload& w, uint64_t seed,
                                  const std::string& temp_dir);

/// The executor options one admitted ovcd statement plans with.
ovc::plan::PlanExecutor::Options SessionOptions(const Workload& w);

/// One connection's deterministic statement stream.
class QueryStream {
 public:
  QueryStream(const Workload& w, uint64_t seed, uint64_t stream);

  struct Query {
    std::string sql;
    /// The looked-up key (point lookups only).
    uint64_t key = 0;
  };
  Query Next();

 private:
  const Workload& w_;
  ovc::Rng rng_;
  /// Point lookups: the literal for each Zipf rank, and the rank CDF.
  std::vector<uint64_t> literals_;
  std::vector<double> cdf_;
};

/// Expected results of `w` at `seed`, from the naive oracle.
class ExpectedResults {
 public:
  ExpectedResults(const Workload& w, uint64_t seed);

  const Digest& For(const QueryStream::Query& q) const;

 private:
  Shape shape_;
  std::map<uint64_t, Digest> by_key_;
  Digest single_;
  Digest empty_;
};

}  // namespace ovcbench

#endif  // OVCBENCH_WORKLOADS_H_
