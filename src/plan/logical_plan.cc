#include "plan/logical_plan.h"

#include <algorithm>
#include <utility>

#include "exec/scan.h"
#include "storage/btree.h"
#include "storage/column_store.h"
#include "storage/lsm.h"

namespace ovc::plan {

void KeyRange::SortBounds(const Schema& schema, std::vector<uint64_t>* low,
                          std::vector<uint64_t>* high) const {
  OVC_CHECK(columns() <= schema.key_arity());
  low->assign(schema.total_columns(), 0);
  high->assign(schema.total_columns(), 0);
  std::copy(equal.begin(), equal.end(), low->begin());
  std::copy(equal.begin(), equal.end(), high->begin());
  if (bounded) {
    const uint32_t p = static_cast<uint32_t>(equal.size());
    const bool ascending = schema.direction(p) == SortDirection::kAscending;
    (*low)[p] = ascending ? lo : hi;
    (*high)[p] = ascending ? hi : lo;
  }
}

TableSource BufferSource(std::string name, const Schema* schema,
                         const RowBuffer* buffer) {
  OVC_CHECK(buffer->width() == schema->total_columns());
  TableSource source;
  source.name = std::move(name);
  source.schema = schema;
  source.order = OrderProperty::Unsorted();
  source.stats.row_count = buffer->size();
  source.stats.row_count_known = true;
  source.factory = [schema, buffer] {
    return std::make_unique<BufferScan>(schema, buffer);
  };
  return source;
}

TableSource RunSource(std::string name, const Schema* schema,
                      const InMemoryRun* run) {
  OVC_CHECK(run->width() == schema->total_columns());
  TableSource source;
  source.name = std::move(name);
  source.schema = schema;
  source.order = OrderProperty::Sorted(schema->key_arity(), /*ovc=*/true);
  source.stats.row_count = run->size();
  source.stats.row_count_known = true;
  if (!run->empty()) {
    source.stats.key_bounds_known = true;
    source.stats.first_key = run->row(0)[0];
    source.stats.last_key = run->row(run->size() - 1)[0];
  }
  source.factory = [schema, run] {
    return std::make_unique<RunScan>(schema, run);
  };
  source.range_factory = [schema, run](const KeyRange& range,
                                       QueryCounters* counters) {
    std::vector<uint64_t> low, high;
    range.SortBounds(*schema, &low, &high);
    return std::make_unique<RunScan>(schema, run, range.columns(),
                                     std::move(low), std::move(high),
                                     counters);
  };
  return source;
}

TableSource BTreeSource(std::string name, const BTree* tree) {
  TableSource source;
  source.name = std::move(name);
  source.schema = &tree->schema();
  source.order =
      OrderProperty::Sorted(tree->schema().key_arity(), /*ovc=*/true);
  source.stats.row_count = tree->size();
  source.stats.row_count_known = true;
  if (tree->size() > 0) {
    source.stats.key_bounds_known = true;
    source.stats.first_key = tree->FirstRow()[0];
    source.stats.last_key = tree->LastRow()[0];
  }
  source.factory = [tree] { return tree->Scan(); };
  source.range_factory = [tree](const KeyRange& range,
                                QueryCounters* counters) {
    std::vector<uint64_t> low, high;
    range.SortBounds(tree->schema(), &low, &high);
    return tree->RangeScan(range.columns(), low.data(), high.data(),
                           counters);
  };
  return source;
}

TableSource ColumnStoreSource(std::string name, const RleColumnStore* store) {
  TableSource source;
  source.name = std::move(name);
  source.schema = &store->schema();
  source.order =
      OrderProperty::Sorted(store->schema().key_arity(), /*ovc=*/true);
  source.stats.row_count = store->rows();
  source.stats.row_count_known = true;
  source.factory = [store] { return store->CreateScan(); };
  return source;
}

TableSource LsmSource(std::string name, LsmForest* forest) {
  TableSource source;
  source.name = std::move(name);
  source.schema = &forest->schema();
  source.order =
      OrderProperty::Sorted(forest->schema().key_arity(), /*ovc=*/true);
  source.stats.row_count = forest->rows();
  source.stats.row_count_known = true;
  source.factory = [forest] { return forest->ScanAll(); };
  return source;
}

PlanBuilder PlanBuilder::Scan(TableSource source) {
  OVC_CHECK(source.schema != nullptr);
  OVC_CHECK(source.factory != nullptr);
  auto node = std::make_unique<LogicalNode>(LogicalOp::kScan, *source.schema);
  node->source = std::move(source);
  return PlanBuilder(std::move(node));
}

PlanBuilder& PlanBuilder::Filter(RowPredicate predicate,
                                 BlockPredicate block_predicate,
                                 std::string text,
                                 std::optional<KeyRange> key_range) {
  OVC_CHECK(root_ != nullptr);
  OVC_CHECK(predicate != nullptr);
  auto node = std::make_unique<LogicalNode>(LogicalOp::kFilter, root_->schema);
  node->predicate = std::move(predicate);
  node->block_predicate = std::move(block_predicate);
  node->predicate_text = std::move(text);
  node->key_range = std::move(key_range);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return *this;
}

PlanBuilder& PlanBuilder::Project(Schema output_schema,
                                  std::vector<uint32_t> mapping) {
  OVC_CHECK(root_ != nullptr);
  OVC_CHECK(mapping.size() == output_schema.total_columns());
  for (uint32_t m : mapping) {
    OVC_CHECK(m < root_->schema.total_columns());
  }
  auto node = std::make_unique<LogicalNode>(LogicalOp::kProject,
                                            std::move(output_schema));
  node->mapping = std::move(mapping);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return *this;
}

PlanBuilder& PlanBuilder::Join(PlanBuilder right, JoinType type) {
  OVC_CHECK(root_ != nullptr);
  OVC_CHECK(right.root_ != nullptr);
  const Schema& ls = root_->schema;
  const Schema& rs = right.root_->schema;
  // The join key is the shared key prefix of both inputs: arities and
  // directions must agree (the contract of MergeJoin).
  OVC_CHECK(ls.key_arity() == rs.key_arity());
  for (uint32_t c = 0; c < ls.key_arity(); ++c) {
    OVC_CHECK(ls.direction(c) == rs.direction(c));
  }
  auto node = std::make_unique<LogicalNode>(
      LogicalOp::kJoin, MergeJoin::MakeOutputSchema(ls, rs, type));
  node->join_type = type;
  node->children.push_back(std::move(root_));
  node->children.push_back(std::move(right.root_));
  root_ = std::move(node);
  return *this;
}

PlanBuilder& PlanBuilder::Aggregate(uint32_t group_prefix,
                                    std::vector<AggregateSpec> aggregates) {
  OVC_CHECK(root_ != nullptr);
  OVC_CHECK(group_prefix >= 1);
  OVC_CHECK(group_prefix <= root_->schema.key_arity());
  for (const AggregateSpec& spec : aggregates) {
    OVC_CHECK(spec.fn == AggFn::kCount ||
              spec.input_col < root_->schema.total_columns());
  }
  auto node = std::make_unique<LogicalNode>(
      LogicalOp::kAggregate,
      InStreamAggregate::MakeOutputSchema(root_->schema, group_prefix,
                                          aggregates.size()));
  node->group_prefix = group_prefix;
  node->aggregates = std::move(aggregates);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return *this;
}

PlanBuilder& PlanBuilder::Distinct() {
  OVC_CHECK(root_ != nullptr);
  auto node =
      std::make_unique<LogicalNode>(LogicalOp::kDistinct, root_->schema);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return *this;
}

PlanBuilder& PlanBuilder::SetOp(PlanBuilder right, SetOpType type, bool all) {
  OVC_CHECK(root_ != nullptr);
  OVC_CHECK(right.root_ != nullptr);
  OVC_CHECK(root_->schema == right.root_->schema);
  OVC_CHECK(root_->schema.payload_columns() == 0);
  auto node = std::make_unique<LogicalNode>(LogicalOp::kSetOp, root_->schema);
  node->set_op = type;
  node->set_all = all;
  node->children.push_back(std::move(root_));
  node->children.push_back(std::move(right.root_));
  root_ = std::move(node);
  return *this;
}

PlanBuilder& PlanBuilder::Sort() {
  OVC_CHECK(root_ != nullptr);
  auto node = std::make_unique<LogicalNode>(LogicalOp::kSort, root_->schema);
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return *this;
}

PlanBuilder& PlanBuilder::TopK(uint64_t k) {
  OVC_CHECK(root_ != nullptr);
  OVC_CHECK(k >= 1);
  auto node = std::make_unique<LogicalNode>(LogicalOp::kTopK, root_->schema);
  node->limit = k;
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return *this;
}

PlanBuilder& PlanBuilder::Limit(uint64_t n) {
  OVC_CHECK(root_ != nullptr);
  auto node = std::make_unique<LogicalNode>(LogicalOp::kLimit, root_->schema);
  node->limit = n;
  node->children.push_back(std::move(root_));
  root_ = std::move(node);
  return *this;
}

std::unique_ptr<LogicalNode> PlanBuilder::Build() {
  OVC_CHECK(root_ != nullptr);
  return std::move(root_);
}

}  // namespace ovc::plan
