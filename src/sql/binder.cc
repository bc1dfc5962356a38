#include "sql/binder.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

namespace ovc::sql {

namespace {

using plan::PlanBuilder;

SqlError ErrorAt(const Token& tok, std::string message) {
  SqlError err;
  err.message = std::move(message);
  err.line = tok.line;
  err.column = tok.column;
  err.token = tok.text;
  return err;
}

/// One name -> column-index binding. A column can carry several bindings
/// (a join key is reachable through both input names); an alias adds one.
struct Binding {
  std::string qualifier;  // "" = unqualified (aliases)
  std::string name;
  uint32_t index;
};

/// A relation under construction: the plan builder plus the name space of
/// its current output columns.
struct Rel {
  std::optional<PlanBuilder> builder;
  std::vector<Binding> bindings;
  /// Output name per column (size == schema().total_columns()).
  std::vector<std::string> display;
  /// Trailing internal columns (a join's match indicator) that name
  /// resolution and SELECT * skip; dropped by the next projection.
  uint32_t hidden_tail = 0;

  const Schema& schema() const { return builder->root().schema; }
  uint32_t total() const { return schema().total_columns(); }
  uint32_t visible() const { return total() - hidden_tail; }
};

struct Resolution {
  uint32_t index = 0;
  uint32_t matches = 0;  // distinct column indices matching the reference
};

Resolution TryResolve(const Rel& rel, const ColumnRef& ref) {
  Resolution r;
  std::vector<uint32_t> seen;
  for (const Binding& b : rel.bindings) {
    if (b.name != ref.name) continue;
    if (!ref.qualifier.empty() && b.qualifier != ref.qualifier) continue;
    if (std::find(seen.begin(), seen.end(), b.index) != seen.end()) continue;
    seen.push_back(b.index);
  }
  r.matches = static_cast<uint32_t>(seen.size());
  if (!seen.empty()) r.index = seen[0];
  return r;
}

SqlResult<uint32_t> Resolve(const Rel& rel, const ColumnRef& ref) {
  const Resolution r = TryResolve(rel, ref);
  if (r.matches == 0) {
    return ErrorAt(ref.token, "unknown column '" + ref.ToString() + "'");
  }
  if (r.matches > 1) {
    return ErrorAt(ref.token, "ambiguous column '" + ref.ToString() + "'");
  }
  return r.index;
}

/// Sort direction column `idx` would carry as a key: its schema direction
/// when it is one of the key columns, ascending otherwise.
SortDirection DirOf(const Rel& rel, uint32_t idx) {
  return idx < rel.schema().key_arity() ? rel.schema().direction(idx)
                                        : SortDirection::kAscending;
}

/// Longest p such that cols[0..p) are schema key columns 0..p in place
/// with matching directions -- the prefix a projection keeps sorted.
uint32_t AlignedPrefix(const Schema& schema, const std::vector<uint32_t>& cols,
                       const std::vector<SortDirection>& dirs) {
  uint32_t p = 0;
  while (p < cols.size() && cols[p] == p && p < schema.key_arity() &&
         dirs[p] == schema.direction(p)) {
    ++p;
  }
  return p;
}

/// Projects `rel` to `mapping` (output column i reads input column
/// mapping[i]) with `key_arity` leading keys of directions `dirs`.
/// A projection that would be the identity is skipped, so plans over
/// already-arranged inputs keep their order properties without a node.
/// Bindings are remapped (dropped columns lose theirs); `display` becomes
/// the new column names.
void ApplyProject(Rel* rel, const std::vector<uint32_t>& mapping,
                  uint32_t key_arity, std::vector<SortDirection> dirs,
                  std::vector<std::string> display) {
  const Schema& in = rel->schema();
  OVC_CHECK(key_arity >= 1 && key_arity <= mapping.size());
  OVC_CHECK(dirs.size() == key_arity);
  OVC_CHECK(display.size() == mapping.size());
  bool identity = mapping.size() == in.total_columns() &&
                  key_arity == in.key_arity();
  for (uint32_t i = 0; identity && i < mapping.size(); ++i) {
    identity = mapping[i] == i;
  }
  for (uint32_t i = 0; identity && i < key_arity; ++i) {
    identity = dirs[i] == in.direction(i);
  }
  if (!identity) {
    Schema out(std::move(dirs),
               static_cast<uint32_t>(mapping.size()) - key_arity);
    rel->builder->Project(std::move(out), mapping);
  }
  std::vector<Binding> remapped;
  for (const Binding& b : rel->bindings) {
    for (uint32_t i = 0; i < mapping.size(); ++i) {
      if (mapping[i] == b.index) {
        remapped.push_back({b.qualifier, b.name, i});
      }
    }
  }
  rel->bindings = std::move(remapped);
  rel->display = std::move(display);
  rel->hidden_tail = 0;
}

/// Projects `rel` so `key_cols` (with `dirs`) become exactly the key --
/// output key_arity == key_cols.size() -- and every other *visible* column
/// rides along as a payload. Returns the applied mapping (for callers that
/// need to restore the previous order afterwards).
std::vector<uint32_t> RearrangeExactKeys(Rel* rel,
                                         const std::vector<uint32_t>& key_cols,
                                         const std::vector<SortDirection>& dirs) {
  std::vector<uint32_t> mapping = key_cols;
  std::vector<std::string> display;
  display.reserve(rel->visible());
  for (uint32_t c : key_cols) display.push_back(rel->display[c]);
  for (uint32_t i = 0; i < rel->visible(); ++i) {
    if (std::find(key_cols.begin(), key_cols.end(), i) == key_cols.end()) {
      mapping.push_back(i);
      display.push_back(rel->display[i]);
    }
  }
  ApplyProject(rel, mapping, static_cast<uint32_t>(key_cols.size()), dirs,
               std::move(display));
  return mapping;
}

// --- WHERE compilation ------------------------------------------------------

struct CompiledCmp {
  bool lhs_lit;
  uint32_t lhs_col;
  uint64_t lhs_val;
  CompareOp op;
  bool rhs_lit;
  uint32_t rhs_col;
  uint64_t rhs_val;
};

bool EvalOp(CompareOp op, uint64_t a, uint64_t b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

bool EvalAll(const std::vector<CompiledCmp>& cmps, const uint64_t* row) {
  for (const CompiledCmp& c : cmps) {
    const uint64_t a = c.lhs_lit ? c.lhs_val : row[c.lhs_col];
    const uint64_t b = c.rhs_lit ? c.rhs_val : row[c.rhs_col];
    if (!EvalOp(c.op, a, b)) return false;
  }
  return true;
}

/// `op` with its operands swapped: `c op k` holds iff `k Mirror(op) c`.
CompareOp Mirror(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;
  }
}

/// Narrows the inclusive value interval [*lo, *hi] by `column op value`.
/// Returns false for `!=`, which no interval expresses.
bool Narrow(CompareOp op, uint64_t value, uint64_t* lo, uint64_t* hi) {
  switch (op) {
    case CompareOp::kEq:
      *lo = std::max(*lo, value);
      *hi = std::min(*hi, value);
      return true;
    case CompareOp::kLe:
      *hi = std::min(*hi, value);
      return true;
    case CompareOp::kGe:
      *lo = std::max(*lo, value);
      return true;
    case CompareOp::kLt:
      if (value > 0) {
        *hi = std::min(*hi, value - 1);
        return true;
      }
      break;
    case CompareOp::kGt:
      if (value < UINT64_MAX) {
        *lo = std::max(*lo, value + 1);
        return true;
      }
      break;
    case CompareOp::kNe:
      return false;
  }
  // `< 0` or `> UINT64_MAX`: no value qualifies. The interval inverts, and
  // later conjuncts only tighten it, so it stays inverted.
  *lo = 1;
  *hi = 0;
  return true;
}

/// The key range the column-versus-literal conjuncts in `cmps` put on the
/// leading key columns of `schema`: equality on a prefix, then at most one
/// bounded column. `names` names the columns for EXPLAIN. Returns nullopt
/// when the conjuncts bound no leading key column.
std::optional<plan::KeyRange> ExtractKeyRange(
    const Schema& schema, const std::vector<CompiledCmp>& cmps,
    const std::vector<std::string>& names) {
  const uint32_t arity = schema.key_arity();
  std::vector<uint64_t> lo(arity, 0), hi(arity, UINT64_MAX);
  // Key column each conjunct narrowed, or arity when it narrowed none.
  std::vector<uint32_t> narrowed;
  for (const CompiledCmp& c : cmps) {
    uint32_t col = arity;
    if (c.lhs_lit != c.rhs_lit) {
      const uint32_t cand = c.lhs_lit ? c.rhs_col : c.lhs_col;
      const CompareOp op = c.lhs_lit ? Mirror(c.op) : c.op;
      const uint64_t value = c.lhs_lit ? c.lhs_val : c.rhs_val;
      if (cand < arity && Narrow(op, value, &lo[cand], &hi[cand])) col = cand;
    }
    narrowed.push_back(col);
  }
  plan::KeyRange range;
  uint32_t p = 0;
  while (p < arity && lo[p] == hi[p]) range.equal.push_back(lo[p++]);
  if (p < arity && (lo[p] != 0 || hi[p] != UINT64_MAX)) {
    range.bounded = true;
    range.lo = lo[p];
    range.hi = hi[p];
  }
  if (p == 0 && !range.bounded) return std::nullopt;
  const uint32_t last = range.bounded ? p : p - 1;
  range.covers_predicate =
      std::all_of(narrowed.begin(), narrowed.end(),
                  [last](uint32_t col) { return col <= last; });
  for (uint32_t c = 0; c < p; ++c) {
    if (c > 0) range.text += " and ";
    range.text += names[c] + " = " + std::to_string(range.equal[c]);
  }
  if (range.bounded) {
    if (p > 0) range.text += " and ";
    if (range.empty()) {
      range.text += names[p] + " empty";
    } else if (range.hi == UINT64_MAX) {
      range.text += names[p] + " >= " + std::to_string(range.lo);
    } else if (range.lo == 0) {
      range.text += names[p] + " <= " + std::to_string(range.hi);
    } else {
      range.text += std::to_string(range.lo) + " <= " + names[p] +
                    " <= " + std::to_string(range.hi);
    }
  }
  return range;
}

}  // namespace

// ---------------------------------------------------------------------------

namespace {

AggFn MapAggFn(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kCountDistinct:
      return AggFn::kCount;
    case AggKind::kSum:
      return AggFn::kSum;
    case AggKind::kMin:
      return AggFn::kMin;
    case AggKind::kMax:
      return AggFn::kMax;
  }
  return AggFn::kCount;
}

std::string AggDisplay(const SelectItem& item) {
  switch (item.agg) {
    case AggKind::kCount:
      return item.agg_star ? "count(*)" : "count(" + item.column.name + ")";
    case AggKind::kCountDistinct:
      return "count(distinct " + item.column.name + ")";
    case AggKind::kSum:
      return "sum(" + item.column.name + ")";
    case AggKind::kMin:
      return "min(" + item.column.name + ")";
    case AggKind::kMax:
      return "max(" + item.column.name + ")";
  }
  return "agg";
}

SetOpType MapSetOp(SetOpKind kind) {
  switch (kind) {
    case SetOpKind::kUnion:
      return SetOpType::kUnion;
    case SetOpKind::kIntersect:
      return SetOpType::kIntersect;
    case SetOpKind::kExcept:
      return SetOpType::kExcept;
  }
  return SetOpType::kUnion;
}

/// The bind pass for one SELECT core. `all_keys` forces the output schema
/// to be payload-free with every column an ascending key -- the layout set
/// operations require of both inputs.
class CoreBinder {
 public:
  CoreBinder(const Catalog* catalog) : catalog_(catalog) {}

  SqlResult<Rel> Bind(const SelectCore& core, bool all_keys) {
    SqlResult<Rel> from = BindTable(core.from);
    if (!from.ok()) return from.error();
    Rel rel = std::move(from).value();

    for (const JoinClause& join : core.joins) {
      std::optional<SqlError> err = BindJoin(&rel, join);
      if (err.has_value()) return *err;
    }
    if (!core.where.empty()) {
      std::optional<SqlError> err = BindWhere(&rel, core.where);
      if (err.has_value()) return *err;
    }

    // Output targets: source index + display name per select-list entry.
    std::vector<uint32_t> targets;
    std::vector<std::string> displays;
    std::vector<std::pair<uint32_t, std::string>> aliases;  // position, name

    const bool has_agg =
        std::any_of(core.items.begin(), core.items.end(),
                    [](const SelectItem& i) { return i.is_aggregate; });
    if (has_agg || !core.group_by.empty()) {
      std::optional<SqlError> err =
          BindAggregate(&rel, core, &targets, &displays);
      if (err.has_value()) return *err;
    } else if (core.select_star) {
      for (uint32_t i = 0; i < rel.visible(); ++i) {
        targets.push_back(i);
        displays.push_back(rel.display[i]);
      }
    } else {
      for (const SelectItem& item : core.items) {
        SqlResult<uint32_t> idx = Resolve(rel, item.column);
        if (!idx.ok()) return idx.error();
        targets.push_back(idx.value());
        displays.push_back(item.alias.empty() ? item.column.name
                                              : item.alias);
      }
    }
    for (uint32_t k = 0; k < core.items.size(); ++k) {
      if (!core.items[k].alias.empty()) {
        aliases.emplace_back(k, core.items[k].alias);
      }
    }

    // Final projection. DISTINCT and set-operation inputs make every
    // output column a key (their operators consume full-key order); plain
    // selects keep as many leading keys as stay aligned, so order
    // properties survive when the select list starts with the sort key.
    std::vector<SortDirection> dirs;
    dirs.reserve(targets.size());
    for (uint32_t t : targets) dirs.push_back(DirOf(rel, t));
    uint32_t key_arity;
    if (all_keys) {
      key_arity = static_cast<uint32_t>(targets.size());
      dirs.assign(targets.size(), SortDirection::kAscending);
    } else if (core.distinct) {
      key_arity = static_cast<uint32_t>(targets.size());
    } else {
      key_arity = std::max<uint32_t>(AlignedPrefix(rel.schema(), targets, dirs),
                                     1);
    }
    dirs.resize(key_arity);
    ApplyProject(&rel, targets, key_arity, std::move(dirs),
                 std::move(displays));
    for (const auto& [pos, name] : aliases) {
      rel.bindings.push_back({"", name, pos});
    }
    if (core.distinct) rel.builder->Distinct();
    return rel;
  }

 private:
  SqlResult<Rel> BindTable(const TableRef& ref) {
    const CatalogTable* table = catalog_->Find(ref.table);
    if (table == nullptr) {
      return ErrorAt(ref.token, "unknown table '" + ref.table + "'");
    }
    Rel rel;
    rel.builder.emplace(PlanBuilder::Scan(table->source));
    const std::string qualifier =
        ref.alias.empty() ? table->source.name : ref.alias;
    for (uint32_t i = 0; i < table->columns.size(); ++i) {
      rel.bindings.push_back({qualifier, table->columns[i], i});
      rel.display.push_back(table->columns[i]);
    }
    return rel;
  }

  std::optional<SqlError> BindJoin(Rel* rel, const JoinClause& join) {
    SqlResult<Rel> right_r = BindTable(join.table);
    if (!right_r.ok()) return right_r.error();
    Rel right = std::move(right_r).value();

    std::vector<uint32_t> left_keys, right_keys;
    std::vector<SortDirection> dirs;
    for (const auto& [a, b] : join.on) {
      const Resolution al = TryResolve(*rel, a), ar = TryResolve(right, a);
      const Resolution bl = TryResolve(*rel, b), br = TryResolve(right, b);
      if (al.matches + ar.matches == 0) {
        return ErrorAt(a.token, "unknown column '" + a.ToString() + "'");
      }
      if (bl.matches + br.matches == 0) {
        return ErrorAt(b.token, "unknown column '" + b.ToString() + "'");
      }
      if (al.matches > 1 || ar.matches > 1 || bl.matches > 1 ||
          br.matches > 1) {
        return ErrorAt(a.token, "ambiguous column in join condition");
      }
      uint32_t li, ri;
      if (al.matches == 1 && br.matches == 1) {
        li = al.index;
        ri = br.index;
      } else if (bl.matches == 1 && ar.matches == 1) {
        li = bl.index;
        ri = ar.index;
      } else {
        return ErrorAt(a.token,
                       "join condition must compare a column of each input");
      }
      left_keys.push_back(li);
      right_keys.push_back(ri);
      const SortDirection dl = DirOf(*rel, li), dr = DirOf(right, ri);
      dirs.push_back(dl == dr ? dl : SortDirection::kAscending);
    }
    if (left_keys.empty()) {
      return ErrorAt(join.table.token, "join requires an ON condition");
    }

    RearrangeExactKeys(rel, left_keys, dirs);
    RearrangeExactKeys(&right, right_keys, dirs);

    const uint32_t k = static_cast<uint32_t>(left_keys.size());
    const uint32_t left_total = rel->total();

    rel->builder->Join(std::move(*right.builder), JoinType::kInner);

    // Output layout: join key, left payloads, right payloads, match
    // indicator. Key columns stay reachable through both inputs' names.
    std::vector<Binding> bindings = rel->bindings;
    for (const Binding& b : right.bindings) {
      const uint32_t idx = b.index < k ? b.index : b.index + (left_total - k);
      bindings.push_back({b.qualifier, b.name, idx});
    }
    std::vector<std::string> display = rel->display;
    display.insert(display.end(), right.display.begin() + k,
                   right.display.end());
    display.push_back("$match");
    rel->bindings = std::move(bindings);
    rel->display = std::move(display);
    rel->hidden_tail = 1;
    return std::nullopt;
  }

  std::optional<SqlError> BindWhere(Rel* rel,
                                    const std::vector<Comparison>& where) {
    auto cmps = std::make_shared<std::vector<CompiledCmp>>();
    for (const Comparison& cmp : where) {
      CompiledCmp c;
      c.lhs_lit = cmp.lhs_is_literal;
      c.lhs_val = cmp.lhs_literal;
      c.lhs_col = 0;
      if (!c.lhs_lit) {
        SqlResult<uint32_t> idx = Resolve(*rel, cmp.lhs);
        if (!idx.ok()) return idx.error();
        c.lhs_col = idx.value();
      }
      c.op = cmp.op;
      c.rhs_lit = cmp.rhs_is_literal;
      c.rhs_val = cmp.rhs_literal;
      c.rhs_col = 0;
      if (!c.rhs_lit) {
        SqlResult<uint32_t> idx = Resolve(*rel, cmp.rhs);
        if (!idx.ok()) return idx.error();
        c.rhs_col = idx.value();
      }
      cmps->push_back(c);
    }
    RowPredicate row_pred = [cmps](const uint64_t* row) {
      return EvalAll(*cmps, row);
    };
    BlockPredicate block_pred = [cmps](const RowBlock& block, uint8_t* keep) {
      for (uint32_t i = 0; i < block.size(); ++i) {
        keep[i] = EvalAll(*cmps, block.row(i)) ? 1 : 0;
      }
    };
    std::string text;
    for (const Comparison& cmp : where) {
      if (!text.empty()) text += " and ";
      text += cmp.ToString();
    }
    // Only a WHERE directly over a table scan bounds stored keys; above a
    // join the filter's input is no longer a seekable source.
    std::optional<plan::KeyRange> range;
    if (rel->builder->root().op == plan::LogicalOp::kScan) {
      range = ExtractKeyRange(rel->schema(), *cmps, rel->display);
    }
    rel->builder->Filter(std::move(row_pred), std::move(block_pred),
                         std::move(text), std::move(range));
    return std::nullopt;
  }

  /// GROUP BY + aggregates. Arranges grouping columns as the key prefix
  /// (skipping the projection when they already are), lowers
  /// COUNT(DISTINCT x) to Distinct-then-Count over the (group, x) key, and
  /// leaves in-stream / in-sort / hash selection to the planner. Fills
  /// `targets`/`displays` with the select list over the aggregate output.
  std::optional<SqlError> BindAggregate(Rel* rel, const SelectCore& core,
                                        std::vector<uint32_t>* targets,
                                        std::vector<std::string>* displays) {
    if (core.select_star) {
      return ErrorAt(core.from.token,
                     "SELECT * cannot be combined with GROUP BY or aggregates");
    }
    if (core.group_by.empty()) {
      for (const SelectItem& item : core.items) {
        if (item.is_aggregate) {
          return ErrorAt(item.token,
                         "aggregates require GROUP BY (global aggregation is "
                         "not supported)");
        }
      }
    }

    // Resolve grouping columns (deduplicated, in GROUP BY order).
    std::vector<uint32_t> group;
    std::vector<SortDirection> group_dirs;
    for (const ColumnRef& g : core.group_by) {
      SqlResult<uint32_t> idx = Resolve(*rel, g);
      if (!idx.ok()) return idx.error();
      if (std::find(group.begin(), group.end(), idx.value()) == group.end()) {
        group.push_back(idx.value());
        group_dirs.push_back(DirOf(*rel, idx.value()));
      }
    }
    const uint32_t n_group = static_cast<uint32_t>(group.size());

    // Classify select items; validate plain columns are grouped.
    const SelectItem* count_distinct = nullptr;
    uint32_t n_aggs = 0;
    for (const SelectItem& item : core.items) {
      if (!item.is_aggregate) {
        SqlResult<uint32_t> idx = Resolve(*rel, item.column);
        if (!idx.ok()) return idx.error();
        if (std::find(group.begin(), group.end(), idx.value()) ==
            group.end()) {
          return ErrorAt(item.column.token,
                         "column '" + item.column.ToString() +
                             "' must appear in GROUP BY");
        }
        continue;
      }
      ++n_aggs;
      if (item.agg == AggKind::kCountDistinct) count_distinct = &item;
    }
    if (count_distinct != nullptr && n_aggs > 1) {
      return ErrorAt(count_distinct->token,
                     "COUNT(DISTINCT) cannot be combined with other "
                     "aggregates");
    }

    const bool aligned = AlignedPrefix(rel->schema(), group, group_dirs) ==
                             n_group &&
                         rel->schema().key_arity() >= n_group;

    if (count_distinct != nullptr) {
      // COUNT(DISTINCT x) GROUP BY g: distinct over key (g..., x), then
      // count rows per g-group -- the paper's web-analytics shape, which
      // the planner folds into one in-sort distinct + in-stream count.
      SqlResult<uint32_t> x = Resolve(*rel, count_distinct->column);
      if (!x.ok()) return x.error();
      std::vector<uint32_t> keys = group;
      std::vector<SortDirection> key_dirs = group_dirs;
      if (std::find(keys.begin(), keys.end(), x.value()) == keys.end()) {
        keys.push_back(x.value());
        key_dirs.push_back(DirOf(*rel, x.value()));
      }
      const bool exact =
          rel->schema().key_arity() == keys.size() &&
          AlignedPrefix(rel->schema(), keys, key_dirs) == keys.size() &&
          rel->hidden_tail == 0 &&
          rel->total() == keys.size();
      if (!exact) {
        // Keep only the key columns: distinct must dedup on exactly
        // (group, x), and the count needs nothing else.
        std::vector<std::string> display;
        for (uint32_t c : keys) display.push_back(rel->display[c]);
        ApplyProject(rel, keys, static_cast<uint32_t>(keys.size()),
                     key_dirs, std::move(display));
      }
      rel->builder->Distinct();
      rel->builder->Aggregate(n_group, {{AggFn::kCount, 0}});
    } else {
      // Plain aggregates: arrange the grouping prefix, keeping only the
      // columns the aggregates read when a projection is needed anyway.
      std::vector<uint32_t> agg_inputs;  // pre-arrangement index per agg
      for (const SelectItem& item : core.items) {
        if (!item.is_aggregate) continue;
        if (item.agg == AggKind::kCount) {
          if (!item.agg_star) {
            SqlResult<uint32_t> idx = Resolve(*rel, item.column);
            if (!idx.ok()) return idx.error();
          }
          agg_inputs.push_back(0);  // COUNT ignores its input column
          continue;
        }
        SqlResult<uint32_t> idx = Resolve(*rel, item.column);
        if (!idx.ok()) return idx.error();
        agg_inputs.push_back(idx.value());
      }
      std::vector<uint32_t> input_pos = agg_inputs;
      if (!aligned) {
        std::vector<uint32_t> mapping = group;
        std::vector<std::string> display;
        for (uint32_t c : group) display.push_back(rel->display[c]);
        uint32_t a = 0;
        for (const SelectItem& item : core.items) {
          if (!item.is_aggregate) continue;
          if (item.agg == AggKind::kCount) {
            input_pos[a++] = 0;
            continue;
          }
          const uint32_t src = agg_inputs[a];
          auto it = std::find(mapping.begin(), mapping.end(), src);
          if (it == mapping.end()) {
            mapping.push_back(src);
            display.push_back(rel->display[src]);
            input_pos[a] = static_cast<uint32_t>(mapping.size()) - 1;
          } else {
            input_pos[a] =
                static_cast<uint32_t>(std::distance(mapping.begin(), it));
          }
          ++a;
        }
        ApplyProject(rel, mapping, n_group, group_dirs, std::move(display));
      }
      std::vector<AggregateSpec> specs;
      uint32_t a = 0;
      for (const SelectItem& item : core.items) {
        if (!item.is_aggregate) continue;
        specs.push_back({MapAggFn(item.agg), input_pos[a++]});
      }
      rel->builder->Aggregate(n_group, specs);
    }

    // Rebuild the name space over the aggregate's output: grouping columns
    // keep their bindings at 0..n_group, aggregate outputs follow.
    std::vector<Binding> bindings;
    for (const Binding& b : rel->bindings) {
      if (b.index < n_group) bindings.push_back(b);
    }
    std::vector<std::string> display(rel->display.begin(),
                                     rel->display.begin() + n_group);
    uint32_t agg_out = n_group;
    for (const SelectItem& item : core.items) {
      if (!item.is_aggregate) continue;
      const std::string name =
          item.alias.empty() ? AggDisplay(item) : item.alias;
      display.push_back(name);
      if (!item.alias.empty()) {
        bindings.push_back({"", item.alias, agg_out});
      }
      ++agg_out;
    }
    rel->bindings = std::move(bindings);
    rel->display = std::move(display);
    rel->hidden_tail = 0;

    // Select-list targets over the aggregate output.
    uint32_t next_agg = n_group;
    for (const SelectItem& item : core.items) {
      if (item.is_aggregate) {
        targets->push_back(next_agg++);
        displays->push_back(item.alias.empty() ? AggDisplay(item)
                                               : item.alias);
      } else {
        SqlResult<uint32_t> idx = Resolve(*rel, item.column);
        if (!idx.ok()) return idx.error();
        targets->push_back(idx.value());
        displays->push_back(item.alias.empty() ? item.column.name
                                               : item.alias);
      }
    }
    return std::nullopt;
  }

  const Catalog* catalog_;
};

}  // namespace

SqlResult<BoundQuery> Binder::Bind(const SelectStmt& stmt) const {
  CoreBinder core_binder(catalog_);
  const bool compound = !stmt.set_ops.empty();
  SqlResult<Rel> first = core_binder.Bind(stmt.first, compound);
  if (!first.ok()) return first.error();
  Rel rel = std::move(first).value();

  for (const SetOpClause& clause : stmt.set_ops) {
    SqlResult<Rel> rhs_r = core_binder.Bind(clause.select, /*all_keys=*/true);
    if (!rhs_r.ok()) return rhs_r.error();
    Rel rhs = std::move(rhs_r).value();
    if (rhs.total() != rel.total()) {
      return ErrorAt(clause.token,
                     "set operation inputs have " + std::to_string(rel.total()) +
                         " vs " + std::to_string(rhs.total()) + " columns");
    }
    rel.builder->SetOp(std::move(*rhs.builder), MapSetOp(clause.kind),
                       clause.all);
  }

  if (!stmt.order_by.empty()) {
    std::vector<uint32_t> order_cols;
    std::vector<SortDirection> order_dirs;
    for (const OrderItem& item : stmt.order_by) {
      const Resolution r = TryResolve(rel, item.column);
      if (r.matches == 0) {
        return ErrorAt(item.column.token,
                       "ORDER BY column '" + item.column.ToString() +
                           "' is not in the select list");
      }
      if (r.matches > 1) {
        return ErrorAt(item.column.token,
                       "ambiguous column '" + item.column.ToString() + "'");
      }
      order_cols.push_back(r.index);
      order_dirs.push_back(item.descending ? SortDirection::kDescending
                                           : SortDirection::kAscending);
    }
    const bool aligned =
        AlignedPrefix(rel.schema(), order_cols, order_dirs) ==
        order_cols.size();
    if (aligned) {
      // The requested order is the stream's key prefix already: a plain
      // Sort node, which the planner elides when the input delivers order
      // and codes (the front end's headline property payoff).
      rel.builder->Sort();
    } else {
      // Rearrange so the ORDER BY list is the full key, sort, then restore
      // the select-list column order. The restoring projection preserves
      // row order physically even where the order *property* is lost.
      const std::vector<std::string> saved_display = rel.display;
      const uint32_t n = rel.total();
      const std::vector<uint32_t> mapping =
          RearrangeExactKeys(&rel, order_cols, order_dirs);
      rel.builder->Sort();
      std::vector<uint32_t> back(n);
      for (uint32_t i = 0; i < mapping.size(); ++i) back[mapping[i]] = i;
      std::vector<SortDirection> back_dirs;
      back_dirs.reserve(n);
      for (uint32_t t : back) back_dirs.push_back(DirOf(rel, t));
      const uint32_t key_arity =
          std::max<uint32_t>(AlignedPrefix(rel.schema(), back, back_dirs), 1);
      back_dirs.resize(key_arity);
      if (key_arity == 1) back_dirs[0] = DirOf(rel, back[0]);
      ApplyProject(&rel, back, key_arity, std::move(back_dirs),
                   saved_display);
    }
  }

  if (stmt.has_limit) rel.builder->Limit(stmt.limit);

  BoundQuery out;
  out.columns.assign(rel.display.begin(),
                     rel.display.begin() + rel.visible());
  out.plan = rel.builder->Build();
  return out;
}

}  // namespace ovc::sql
