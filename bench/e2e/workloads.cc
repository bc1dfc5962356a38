#include "workloads.h"

#include <algorithm>
#include <numeric>

#include "server/admission.h"

namespace ovcbench {

namespace {

// Seed salts: tables use their index, so these stay clear of them.
constexpr uint64_t kLiteralSalt = 100;
constexpr uint64_t kStreamSalt = 200;

/// Point lookups draw their key from this many literals, Zipf(1) by rank.
/// Literals are not parameterised, so with 4,096 statements and a 128-entry
/// plan cache the cache both hits and misses.
constexpr size_t kLiterals = 4096;

/// ovcd's admission slots and plan-cache capacity. They equal ovcd's
/// defaults but are passed explicitly, so the benchmark stays pinned if
/// those defaults change.
constexpr uint32_t kSlots = 4;
constexpr uint64_t kPlanCache = 128;

const char kJoinSql[] =
    "SELECT o.orderkey, COUNT(*) AS n, SUM(l.qty) AS total "
    "FROM orders o INNER JOIN lineitem l ON o.orderkey = l.orderkey "
    "GROUP BY o.orderkey ORDER BY o.orderkey";
const char kDistinctSql[] =
    "SELECT site, day, COUNT(DISTINCT visitor) AS v "
    "FROM visits GROUP BY site, day";

std::vector<TableDef> JoinTables() {
  return {{"orders", {"orderkey", "custkey"}, 1, 25000, 25000, true},
          {"lineitem", {"orderkey", "qty"}, 1, 250000, 25000, false}};
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "point_lookup";
    w.why =
        "Tiny execution: time is wire, admission, plan cache and "
        "parse/bind/plan; sort, merge and exchange are bypassed";
    w.shape = Shape::kPointLookup;
    w.connections = 2;
    w.tables = {{"events", {"k", "v", "w"}, 1, 50000, 5000, true}};
    w.count_queries = 32;
    w.timed_queries = 200;
    w.profiled_queries = 50;
    w.tail_percentile = 0.99;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "join_groupby";
    w.why =
        "Inserted sort, coded merge join and in-stream aggregate dominate: "
        "operators consuming and producing offset-value codes";
    w.shape = Shape::kJoinGroupBy;
    w.connections = 1;
    w.tables = JoinTables();
    w.count_queries = 3;
    w.timed_queries = 5;
    w.profiled_queries = 3;
    all.push_back(w);
  }
  {
    Workload w = all.back();
    w.name = "join_parallel";
    w.why =
        "The same join at 2 workers per query: the order-preserving split "
        "and merge exchanges show here and nowhere else";
    w.workers_per_query = 2;
    all.push_back(w);
  }
  {
    Workload w;
    w.name = "distinct_spill";
    w.why =
        "Input is ~15x the sort budget: in-sort distinct spills runs and "
        "merges them on 3-column keys";
    w.shape = Shape::kDistinct;
    w.connections = 1;
    // 65,536 rows per admission slot.
    w.sort_memory_rows = kSlots * 65536;
    w.tables = {{"visits", {"site", "day", "visitor"}, 3, 1000000, 256, false}};
    w.count_queries = 2;
    w.timed_queries = 3;
    w.profiled_queries = 2;
    w.tail_percentile = 0.75;
    all.push_back(w);
  }
  return all;
}

}  // namespace

uint64_t Workload::input_rows() const {
  uint64_t rows = 0;
  for (const TableDef& t : tables) rows += t.rows;
  return rows;
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> all = MakeWorkloads();
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> OvcdArgs(const Workload& w, uint64_t seed,
                                  const std::string& temp_dir) {
  std::vector<std::string> args;
  for (size_t i = 0; i < w.tables.size(); ++i) {
    args.push_back("--gen=" + GenSpec(w.tables[i], DeriveSeed(seed, i)));
  }
  args.push_back("--host=127.0.0.1");
  args.push_back("--port=0");
  args.push_back("--max-queries=" + std::to_string(kSlots));
  args.push_back("--workers-per-query=" + std::to_string(w.workers_per_query));
  args.push_back("--plan-cache=" + std::to_string(kPlanCache));
  if (w.sort_memory_rows != 0) {
    args.push_back("--sort-memory-rows=" + std::to_string(w.sort_memory_rows));
  }
  args.push_back("--temp-dir=" + temp_dir);
  return args;
}

ovc::plan::PlanExecutor::Options SessionOptions(const Workload& w) {
  ovc::plan::PlanExecutor::Options machine;
  if (w.sort_memory_rows != 0) {
    machine.planner.sort_config.memory_rows = w.sort_memory_rows;
  }
  return ovc::server::AdmissionController::Slice(machine, kSlots,
                                                 w.workers_per_query);
}

QueryStream::QueryStream(const Workload& w, uint64_t seed, uint64_t stream)
    : w_(w), rng_(DeriveSeed(seed, kStreamSalt + stream)) {
  if (w.shape != Shape::kPointLookup) return;
  // The literal set: a seeded shuffle of the key domain, ranked.
  std::vector<uint64_t> domain(w.tables[0].distinct);
  std::iota(domain.begin(), domain.end(), 0);
  ovc::Rng shuffle(DeriveSeed(seed, kLiteralSalt));
  for (size_t i = domain.size() - 1; i > 0; --i) {
    std::swap(domain[i], domain[shuffle.Uniform(i + 1)]);
  }
  literals_.assign(domain.begin(),
                   domain.begin() + std::min(kLiterals, domain.size()));
  double total = 0;
  for (size_t rank = 1; rank <= literals_.size(); ++rank) {
    total += 1.0 / static_cast<double>(rank);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

QueryStream::Query QueryStream::Next() {
  Query q;
  switch (w_.shape) {
    case Shape::kPointLookup: {
      const double u = static_cast<double>(rng_.Next() >> 11) * 0x1.0p-53;
      const size_t rank = std::min<size_t>(
          std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
          literals_.size() - 1);
      q.key = literals_[rank];
      q.sql = "SELECT k, v, w FROM events WHERE k = " + std::to_string(q.key);
      break;
    }
    case Shape::kJoinGroupBy:
      q.sql = kJoinSql;
      break;
    case Shape::kDistinct:
      q.sql = kDistinctSql;
      break;
  }
  return q;
}

ExpectedResults::ExpectedResults(const Workload& w, uint64_t seed)
    : shape_(w.shape) {
  std::vector<ovc::RowBuffer> tables;
  for (size_t i = 0; i < w.tables.size(); ++i) {
    tables.push_back(Regenerate(w.tables[i], DeriveSeed(seed, i)));
  }
  switch (w.shape) {
    case Shape::kPointLookup:
      by_key_ = PointLookupOracle(tables[0]);
      break;
    case Shape::kJoinGroupBy:
      single_ = JoinGroupByOracle(tables[0], tables[1]);
      break;
    case Shape::kDistinct:
      single_ = DistinctOracle(tables[0]);
      break;
  }
}

const Digest& ExpectedResults::For(const QueryStream::Query& q) const {
  if (shape_ != Shape::kPointLookup) return single_;
  auto it = by_key_.find(q.key);
  return it == by_key_.end() ? empty_ : it->second;
}

}  // namespace ovcbench
