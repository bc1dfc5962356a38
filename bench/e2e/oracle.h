// The benchmark's naive oracle: regenerates each table with the same
// generator call and seed the server's catalog uses, and computes every
// expected result with std::map / std::sort. It deliberately uses nothing
// from src/exec, src/sort, src/pq or src/plan, so an engine bug cannot
// hide in code the oracle shares with the engine.

#ifndef OVCBENCH_ORACLE_H_
#define OVCBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "row/row_buffer.h"

namespace ovcbench {

/// Fingerprint of a result stream, fed one row at a time: the row count,
/// an order-sensitive hash chain, and an order-free (multiset) hash sum.
class Digest {
 public:
  void AddRow(const uint64_t* row, uint32_t width);

  uint64_t rows() const { return rows_; }
  /// The fingerprint a comparison uses: the ordered chain when the query
  /// fixes its output order (ORDER BY), the multiset sum otherwise.
  uint64_t checksum(bool ordered) const { return ordered ? ordered_ : multiset_; }
  bool Matches(const Digest& expected, bool ordered) const {
    return rows_ == expected.rows_ &&
           checksum(ordered) == expected.checksum(ordered);
  }

 private:
  uint64_t rows_ = 0;
  uint64_t ordered_ = 0;
  uint64_t multiset_ = 0;
};

/// One generated table, in the `--gen` spec vocabulary of sql/gen_spec.h.
struct TableDef {
  std::string name;
  std::vector<std::string> columns;
  uint32_t keys = 1;
  uint64_t rows = 0;
  uint64_t distinct = 16;
  bool sorted = false;
};

/// A seed for one random stream of a benchmark seed (a table, a client's
/// literals): distinct salts never share a stream.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// The `--gen` spec that makes the server generate `table` with `seed`.
std::string GenSpec(const TableDef& table, uint64_t table_seed);

/// The same rows the server's catalog holds for GenSpec(table, table_seed),
/// from the same GenerateRows call (sorted by the generator when the table
/// is sorted; payload columns hold the pre-sort row number).
ovc::RowBuffer Regenerate(const TableDef& table, uint64_t table_seed);

/// SELECT k, v, w FROM events WHERE k = <key>, for every key present.
std::map<uint64_t, Digest> PointLookupOracle(const ovc::RowBuffer& events);

/// SELECT o.orderkey, COUNT(*), SUM(l.qty) FROM orders o INNER JOIN
/// lineitem l ON o.orderkey = l.orderkey GROUP BY 1 ORDER BY 1.
Digest JoinGroupByOracle(const ovc::RowBuffer& orders,
                         const ovc::RowBuffer& lineitem);

/// SELECT site, day, COUNT(DISTINCT visitor) FROM visits GROUP BY 1, 2.
Digest DistinctOracle(const ovc::RowBuffer& visits);

}  // namespace ovcbench

#endif  // OVCBENCH_ORACLE_H_
