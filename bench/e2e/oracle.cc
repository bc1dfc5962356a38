#include "oracle.h"

#include <algorithm>
#include <array>
#include <utility>

#include "row/generator.h"
#include "row/schema.h"

namespace ovcbench {

namespace {

uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Digest::AddRow(const uint64_t* row, uint32_t width) {
  uint64_t h = width;
  for (uint32_t c = 0; c < width; ++c) h = Mix(h ^ row[c]);
  ++rows_;
  ordered_ = Mix(ordered_ ^ h);
  multiset_ += h;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return Mix(seed * 0x100000001b3ULL + salt);
}

std::string GenSpec(const TableDef& table, uint64_t table_seed) {
  std::string spec = table.name + "(";
  for (size_t i = 0; i < table.columns.size(); ++i) {
    if (i > 0) spec += ",";
    spec += table.columns[i];
  }
  spec += ") rows=" + std::to_string(table.rows) +
          " keys=" + std::to_string(table.keys) +
          " distinct=" + std::to_string(table.distinct) +
          " seed=" + std::to_string(table_seed);
  if (table.sorted) spec += " sorted";
  return spec;
}

ovc::RowBuffer Regenerate(const TableDef& table, uint64_t table_seed) {
  const auto width = static_cast<uint32_t>(table.columns.size());
  const ovc::Schema schema(table.keys, width - table.keys);
  ovc::GeneratorConfig config;
  config.rows = table.rows;
  config.distinct_per_column = table.distinct;
  config.seed = table_seed;
  config.sorted = table.sorted;
  ovc::RowBuffer rows(width);
  ovc::GenerateRows(schema, config, &rows);
  return rows;
}

std::map<uint64_t, Digest> PointLookupOracle(const ovc::RowBuffer& events) {
  std::map<uint64_t, Digest> by_key;
  for (size_t i = 0; i < events.size(); ++i) {
    const uint64_t* row = events.row(i);
    by_key[row[0]].AddRow(row, events.width());
  }
  return by_key;
}

Digest JoinGroupByOracle(const ovc::RowBuffer& orders,
                         const ovc::RowBuffer& lineitem) {
  std::map<uint64_t, uint64_t> order_count;
  for (size_t i = 0; i < orders.size(); ++i) ++order_count[orders.row(i)[0]];
  // orderkey -> (lineitem rows, SUM(qty)).
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> lines;
  for (size_t i = 0; i < lineitem.size(); ++i) {
    auto& [count, qty] = lines[lineitem.row(i)[0]];
    ++count;
    qty += lineitem.row(i)[1];
  }
  Digest digest;
  for (const auto& [key, orders_with_key] : order_count) {
    auto it = lines.find(key);
    if (it == lines.end()) continue;
    // Every order row pairs with every lineitem row of its key.
    const uint64_t row[3] = {key, orders_with_key * it->second.first,
                             orders_with_key * it->second.second};
    digest.AddRow(row, 3);
  }
  return digest;
}

Digest DistinctOracle(const ovc::RowBuffer& visits) {
  std::vector<std::array<uint64_t, 3>> rows(visits.size());
  for (size_t i = 0; i < visits.size(); ++i) {
    const uint64_t* row = visits.row(i);
    rows[i] = {row[0], row[1], row[2]};
  }
  std::sort(rows.begin(), rows.end());
  Digest digest;
  for (size_t begin = 0; begin < rows.size();) {
    size_t end = begin;
    uint64_t distinct = 0;
    while (end < rows.size() && rows[end][0] == rows[begin][0] &&
           rows[end][1] == rows[begin][1]) {
      if (end == begin || rows[end][2] != rows[end - 1][2]) ++distinct;
      ++end;
    }
    const uint64_t row[3] = {rows[begin][0], rows[begin][1], distinct};
    digest.AddRow(row, 3);
    begin = end;
  }
  return digest;
}

}  // namespace ovcbench
