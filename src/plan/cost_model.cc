#include "plan/cost_model.h"

#include <algorithm>
#include <cmath>

#include "plan/logical_plan.h"

namespace ovc::plan {

double CardEstimate::DistinctPrefix(uint32_t prefix) const {
  if (prefix == 0) return 1.0;
  double d;
  if (key_distinct.empty()) {
    d = rows;  // no information: assume every key distinct
  } else {
    const size_t i = std::min<size_t>(prefix, key_distinct.size()) - 1;
    d = key_distinct[i];
  }
  return std::max(1.0, std::min(d, std::max(rows, 1.0)));
}

namespace {

/// Distinct-count vector for a stream of `rows` rows with `key_arity` key
/// columns and no statistics: each column contributes rows^ndv_exponent
/// distinct values, prefixes multiply, everything is capped by rows.
std::vector<double> DefaultDistinct(double rows, uint32_t key_arity,
                                    const CostConstants& c) {
  const double per_column =
      std::max(1.0, std::pow(std::max(rows, 1.0), c.ndv_exponent));
  std::vector<double> out;
  out.reserve(key_arity);
  double prefix = 1.0;
  for (uint32_t k = 0; k < key_arity; ++k) {
    prefix = std::min(prefix * per_column, std::max(rows, 1.0));
    out.push_back(prefix);
  }
  return out;
}

/// Clamps a propagated distinct vector to the (possibly smaller) new row
/// count: a prefix cannot have more distinct values than the stream rows.
std::vector<double> ClampDistinct(std::vector<double> distinct, double rows) {
  for (double& d : distinct) d = std::max(1.0, std::min(d, rows));
  return distinct;
}

}  // namespace

CardEstimate EstimateCardinality(const LogicalNode& node,
                                 const CardEstimate* child_cards,
                                 const CostConstants& c) {
  CardEstimate est;
  switch (node.op) {
    case LogicalOp::kScan: {
      const TableStats& stats = node.source.stats;
      // A known row count is authoritative even when zero (an empty table
      // estimates at one row, not at the unknown-source default).
      est.rows = stats.row_count_known || stats.row_count > 0
                     ? std::max(1.0, static_cast<double>(stats.row_count))
                     : c.unknown_rows;
      // Runtime feedback beats any a-priori stat: once a profiled run has
      // observed this scan's true output, plan against what actually
      // happened rather than what the catalog claimed.
      if (stats.feedback_runs > 0) {
        est.rows = std::max(1.0, stats.observed_rows);
      }
      est.key_distinct =
          stats.key_distinct.empty()
              ? DefaultDistinct(est.rows, node.schema.key_arity(), c)
              : ClampDistinct(stats.key_distinct, est.rows);
      est.key_distinct.resize(node.schema.key_arity(),
                              est.key_distinct.empty()
                                  ? est.rows
                                  : est.key_distinct.back());
      break;
    }
    case LogicalOp::kFilter: {
      const CardEstimate& child = child_cards[0];
      est.key_distinct = child.key_distinct;
      if (node.key_range.has_value()) {
        est.rows = KeyRangeRows(node, child, c);
        if (!node.key_range->covers_predicate) {
          est.rows *= c.filter_selectivity;
        }
        // The equality prefix is one value in the output.
        const size_t p = std::min(node.key_range->equal.size(),
                                  est.key_distinct.size());
        std::fill(est.key_distinct.begin(), est.key_distinct.begin() + p, 1.0);
      } else {
        est.rows = child.rows * c.filter_selectivity;
      }
      est.rows = std::max(1.0, est.rows);
      est.key_distinct = ClampDistinct(std::move(est.key_distinct), est.rows);
      break;
    }
    case LogicalOp::kProject: {
      const CardEstimate& child = child_cards[0];
      est.rows = child.rows;
      // Distinct counts survive only for the key prefix the mapping keeps
      // in place (the same rule ProjectOperator uses for order).
      const uint32_t arity = node.schema.key_arity();
      bool prefix_kept = arity <= node.children[0]->schema.key_arity();
      for (uint32_t i = 0; prefix_kept && i < arity; ++i) {
        prefix_kept = node.mapping[i] == i;
      }
      if (prefix_kept && !child.key_distinct.empty()) {
        est.key_distinct.assign(
            child.key_distinct.begin(),
            child.key_distinct.begin() +
                std::min<size_t>(arity, child.key_distinct.size()));
        est.key_distinct.resize(arity, est.rows);
        est.key_distinct = ClampDistinct(est.key_distinct, est.rows);
      } else {
        est.key_distinct = DefaultDistinct(est.rows, arity, c);
      }
      break;
    }
    case LogicalOp::kJoin: {
      const CardEstimate& left = child_cards[0];
      const CardEstimate& right = child_cards[1];
      const uint32_t key = node.children[0]->schema.key_arity();
      const double d_left = left.DistinctPrefix(key);
      const double d_right = right.DistinctPrefix(key);
      // Classic equi-join estimate: every value of the smaller domain
      // matches rows/distinct partners on both sides.
      est.rows = std::max(1.0, left.rows * right.rows /
                                   std::max(1.0, std::max(d_left, d_right)));
      const uint32_t out_arity = node.schema.key_arity();
      est.key_distinct.reserve(out_arity);
      for (uint32_t k = 1; k <= out_arity; ++k) {
        est.key_distinct.push_back(
            std::min(left.DistinctPrefix(k), right.DistinctPrefix(k)));
      }
      est.key_distinct = ClampDistinct(est.key_distinct, est.rows);
      break;
    }
    case LogicalOp::kAggregate: {
      const CardEstimate& child = child_cards[0];
      est.rows = child.DistinctPrefix(node.group_prefix);
      est.key_distinct.assign(
          child.key_distinct.begin(),
          child.key_distinct.begin() +
              std::min<size_t>(node.group_prefix, child.key_distinct.size()));
      est.key_distinct.resize(node.schema.key_arity(), est.rows);
      est.key_distinct = ClampDistinct(est.key_distinct, est.rows);
      break;
    }
    case LogicalOp::kDistinct: {
      const CardEstimate& child = child_cards[0];
      est.rows = child.DistinctPrefix(node.schema.key_arity());
      est.key_distinct = ClampDistinct(child.key_distinct, est.rows);
      break;
    }
    case LogicalOp::kSetOp: {
      const CardEstimate& left = child_cards[0];
      const CardEstimate& right = child_cards[1];
      const uint32_t arity = node.schema.key_arity();
      const double d_left = left.DistinctPrefix(arity);
      const double d_right = right.DistinctPrefix(arity);
      switch (node.set_op) {
        case SetOpType::kUnion:
          est.rows = node.set_all ? left.rows + right.rows
                                  : std::max(d_left, d_right);
          break;
        case SetOpType::kIntersect:
          est.rows = node.set_all ? std::min(left.rows, right.rows)
                                  : std::min(d_left, d_right);
          break;
        case SetOpType::kExcept:
          est.rows = node.set_all
                         ? std::max(1.0, left.rows - right.rows)
                         : std::max(1.0, d_left - d_right / 2.0);
          break;
      }
      est.rows = std::max(1.0, est.rows);
      est.key_distinct.reserve(arity);
      for (uint32_t k = 1; k <= arity; ++k) {
        est.key_distinct.push_back(
            std::max(left.DistinctPrefix(k), right.DistinctPrefix(k)));
      }
      est.key_distinct = ClampDistinct(est.key_distinct, est.rows);
      break;
    }
    case LogicalOp::kSort: {
      est = child_cards[0];
      break;
    }
    case LogicalOp::kTopK:
    case LogicalOp::kLimit: {
      const CardEstimate& child = child_cards[0];
      est.rows = std::min(child.rows, static_cast<double>(node.limit));
      est.rows = std::max(1.0, est.rows);
      est.key_distinct = ClampDistinct(child.key_distinct, est.rows);
      break;
    }
  }
  return est;
}

double KeyRangeRows(const LogicalNode& filter, const CardEstimate& input,
                    const CostConstants& c) {
  OVC_CHECK(filter.key_range.has_value());
  const KeyRange& range = *filter.key_range;
  if (range.empty()) return 1.0;
  const uint32_t p = static_cast<uint32_t>(range.equal.size());
  double rows = input.rows / input.DistinctPrefix(p);
  if (range.bounded) {
    const LogicalNode& child = *filter.children[0];
    const TableStats& stats = child.source.stats;
    if (p == 0 && child.op == LogicalOp::kScan && stats.key_bounds_known) {
      // Uniform keys between the first and last stored key (either may be
      // the smaller one: column 0 may sort descending).
      const double first =
          static_cast<double>(std::min(stats.first_key, stats.last_key));
      const double last =
          static_cast<double>(std::max(stats.first_key, stats.last_key));
      const double lo = std::max(static_cast<double>(range.lo), first);
      const double hi = std::min(static_cast<double>(range.hi), last);
      rows *= hi < lo ? 0.0 : (hi - lo + 1.0) / (last - first + 1.0);
    } else {
      rows *= c.filter_selectivity;
    }
  }
  return std::max(1.0, rows);
}

// ---------------------------------------------------------------------------
// CostModel
// ---------------------------------------------------------------------------

double CostModel::Log2Clamped(double x) {
  return std::max(1.0, std::ceil(std::log2(std::max(2.0, x))));
}

double CostModel::Scan(double rows) const { return rows * c_.row_move; }

double CostModel::RangeScan(double table_rows, double rows) const {
  return 2.0 * Log2Clamped(table_rows) * c_.column_compare + Scan(rows);
}

double CostModel::Filter(double rows, double out_rows) const {
  return rows * c_.column_compare + out_rows * c_.row_move;
}

double CostModel::Project(double rows) const { return rows * c_.row_move; }

double CostModel::Sort(double rows, uint32_t key_arity, double distinct,
                       uint32_t width) const {
  const double run_rows = std::min(rows, sort_memory_rows_);
  // Run generation: one leaf-to-root tournament pass per row (code
  // comparisons), column comparisons per the paper's bound -- about one
  // per row to certify equality with the previous key plus K per distinct
  // key to establish it (duplicate-heavy inputs resolve almost entirely
  // through codes).
  const double code = rows * Log2Clamped(run_rows) * c_.code_compare;
  const double column =
      std::min(rows * key_arity, rows + distinct * key_arity) *
      c_.column_compare;
  // Rows move into the sort workspace and out of the final merge.
  double cost = code + column + 2.0 * rows * c_.row_move;
  const double runs = std::ceil(rows / std::max(1.0, sort_memory_rows_));
  if (runs > 1.0) {
    // External: every merge level re-compares and re-moves each row and
    // the run files pay a write+read round trip.
    const double levels =
        std::max(1.0, std::ceil(std::log(runs) / std::log(sort_fan_in_)));
    cost += levels * rows *
            (Log2Clamped(std::min(runs, sort_fan_in_)) * c_.code_compare +
             c_.row_move);
    cost += levels * rows * width * 8.0 * c_.spill_byte;
  }
  return cost;
}

double CostModel::InSortAggregate(double rows, double groups,
                                  uint32_t key_arity, double distinct,
                                  uint32_t width) const {
  // Every input row still passes through the run-generation tournament
  // (collapse detects duplicates *during* the sort, it does not shrink
  // the tree), but early duplicate collapse bounds what each run *spills*
  // by the surviving group count (Figure 5) -- which is what makes the
  // sort-based aggregate memory-robust where the hash table overflows.
  const double run_rows = std::min(rows, sort_memory_rows_);
  const double code = rows * Log2Clamped(run_rows) * c_.code_compare;
  const double column =
      std::min(rows * key_arity, rows + distinct * key_arity) *
      c_.column_compare;
  double cost = code + column + (rows + groups) * c_.row_move;
  const double runs = std::ceil(rows / std::max(1.0, sort_memory_rows_));
  if (runs > 1.0) {
    // Each run holds at most `groups` collapsed rows: merge work and
    // spill volume scale with runs * groups, not with the input.
    const double spilled = std::min(rows, runs * groups);
    const double levels =
        std::max(1.0, std::ceil(std::log(runs) / std::log(sort_fan_in_)));
    cost += levels * spilled *
            (Log2Clamped(std::min(runs, sort_fan_in_)) * c_.code_compare +
             c_.row_move);
    cost += levels * spilled * width * 8.0 * c_.spill_byte;
  }
  return cost;
}

double CostModel::InStreamAggregate(double rows, double groups,
                                    uint32_t group_prefix,
                                    bool input_coded) const {
  const double boundary = input_coded
                              ? rows * c_.code_compare
                              : rows * group_prefix * c_.column_compare;
  return boundary + groups * c_.row_move;
}

double CostModel::HashAggregate(double rows, double groups,
                                uint32_t width) const {
  double cost = rows * c_.hash_row + groups * c_.row_move;
  if (groups > hash_memory_rows_) {
    // Hybrid hashing spills the non-resident share of the input to
    // partitions and re-aggregates each partition (one extra hash pass).
    const double spilled =
        rows * (1.0 - hash_memory_rows_ / std::max(groups, 1.0));
    cost += spilled * (width * 8.0 * c_.spill_byte + c_.hash_row);
  }
  return cost;
}

double CostModel::Dedup(double rows) const { return rows * c_.code_compare; }

double CostModel::MergeJoin(double left_rows, double right_rows,
                            double out_rows) const {
  return (left_rows + right_rows) * c_.code_compare +
         out_rows * c_.row_move;
}

double CostModel::GraceHashJoin(double probe_rows, double build_rows,
                                double out_rows, uint32_t probe_width,
                                uint32_t build_width) const {
  double cost =
      (probe_rows + build_rows) * c_.hash_row + out_rows * c_.row_move;
  if (build_rows > hash_memory_rows_) {
    // Both sides pay a partition write+read round trip, and the partition
    // pass re-hashes every row.
    cost += (probe_rows * probe_width + build_rows * build_width) * 8.0 *
                c_.spill_byte +
            (probe_rows + build_rows) * c_.hash_row;
  }
  return cost;
}

double CostModel::OrderPreservingHashJoin(double probe_rows,
                                          double build_rows,
                                          double out_rows) const {
  return (probe_rows + build_rows) * c_.hash_row +
         build_rows * c_.row_move + out_rows * c_.row_move;
}

double CostModel::SetOperation(double left_rows, double right_rows,
                               double out_rows) const {
  return (left_rows + right_rows) * c_.code_compare +
         out_rows * c_.row_move;
}

double CostModel::Limit(double out_rows) const {
  return out_rows * c_.row_move;
}

double CostModel::SplitExchange(double rows, bool hash_policy) const {
  return rows * (c_.row_move + (hash_policy ? c_.hash_row : 0.0));
}

double CostModel::MergeExchange(double rows, uint32_t workers) const {
  return rows * Log2Clamped(static_cast<double>(workers)) * c_.code_compare +
         rows * c_.row_move;
}

std::string RenderEstimate(const NodeEstimate& est) {
  const auto round_u64 = [](double v) {
    if (v < 0.0) v = 0.0;
    if (v > 1e18) v = 1e18;
    return static_cast<unsigned long long>(std::llround(v));
  };
  return "{rows=" + std::to_string(round_u64(est.rows)) +
         " cost=" + std::to_string(round_u64(est.cost)) + "}";
}

}  // namespace ovc::plan
