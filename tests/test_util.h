// Shared helpers for the test suite: naive reference implementations and
// checker-driven stream validation.

#ifndef OVC_TESTS_TEST_UTIL_H_
#define OVC_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/metrics.h"
#include "core/ovc_checker.h"
#include "exec/operator.h"
#include "row/comparator.h"
#include "row/generator.h"
#include "row/row_buffer.h"
#include "row/schema.h"
#include "sort/run.h"
#include "sql/catalog.h"

namespace ovc::testing {

/// A materialized table as vectors of rows, for order-insensitive
/// comparisons against reference results.
using RowVec = std::vector<std::vector<uint64_t>>;

/// Materializes `buffer` into a RowVec.
inline RowVec ToRowVec(const RowBuffer& buffer) {
  RowVec out;
  for (size_t i = 0; i < buffer.size(); ++i) {
    out.emplace_back(buffer.row(i), buffer.row(i) + buffer.width());
  }
  return out;
}

/// Sorts a RowVec lexicographically by raw column values (test-side
/// canonicalization for order-insensitive equality).
inline void Canonicalize(RowVec* rows) { std::sort(rows->begin(), rows->end()); }

/// Reference sort: rows of `input` in the schema's key order (stable).
inline RowVec ReferenceSort(const Schema& schema, const RowBuffer& input) {
  RowBuffer copy = input;
  SortRowsForTest(schema, &copy);
  return ToRowVec(copy);
}

/// Drains `op` through NextBatch with blocks of `block_rows`, validating
/// sortedness and codes with OvcStreamChecker when `check_codes`. Appends
/// every row to the returned RowVec and, when `codes` is given, every code
/// to it. Fails the test when a block overflows its capacity or the end of
/// stream leaves rows in the block.
inline RowVec DrainValidated(Operator* op, bool check_codes = true,
                             uint32_t block_rows = RowBlock::kDefaultRows,
                             std::vector<Ovc>* codes = nullptr) {
  const uint32_t width = op->schema().total_columns();
  op->Open();
  OvcStreamChecker checker(&op->schema());
  RowVec out;
  RowBlock block(width, block_rows);
  uint32_t n;
  while ((n = op->NextBatch(&block)) > 0) {
    EXPECT_EQ(n, block.size());
    EXPECT_LE(n, block_rows);
    for (uint32_t i = 0; i < n; ++i) {
      out.emplace_back(block.row(i), block.row(i) + width);
      if (codes != nullptr) codes->push_back(block.code(i));
      if (check_codes && checker.ok()) {  // one failure, no error spam
        EXPECT_TRUE(checker.Observe(block.row(i), block.code(i)))
            << checker.error();
      }
    }
  }
  EXPECT_TRUE(block.empty()) << "end of stream must leave an empty block";
  op->Close();
  return out;
}

/// Drains `op` at block capacities 1, 7 and 1024 and requires identical
/// rows and codes from all three (capacity 1 is the row-at-a-time stream).
/// Codes are validated with OvcStreamChecker when `check_codes`. Returns
/// the rows.
inline RowVec ExpectCapacityInvariant(Operator* op, bool check_codes = true) {
  std::vector<Ovc> one_codes;
  const RowVec one = DrainValidated(op, check_codes, 1, &one_codes);
  for (const uint32_t capacity : {7u, 1024u}) {
    std::vector<Ovc> codes;
    const RowVec rows = DrainValidated(op, check_codes, capacity, &codes);
    EXPECT_EQ(rows, one) << "capacity " << capacity;
    EXPECT_EQ(codes, one_codes) << "capacity " << capacity;
  }
  return one;
}

/// Makes a random table per the paper's data shape.
inline RowBuffer MakeTable(const Schema& schema, uint64_t rows,
                           uint64_t distinct, uint64_t seed,
                           bool sorted = false) {
  RowBuffer buffer(schema.total_columns());
  GeneratorConfig config;
  config.rows = rows;
  config.distinct_per_column = distinct;
  config.seed = seed;
  config.sorted = sorted;
  GenerateRows(schema, config, &buffer);
  return buffer;
}

/// Builds a sorted, coded InMemoryRun from a sorted buffer, deriving each
/// code the naive reference way (adjacent row comparison, column by
/// column). The oracle every batched/merged stream is checked against.
inline InMemoryRun RunFromSorted(const Schema& schema,
                                 const RowBuffer& sorted) {
  OvcCodec codec(&schema);
  KeyComparator cmp(&schema, nullptr);
  InMemoryRun run(schema.total_columns());
  run.Reserve(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    Ovc code = i == 0 ? codec.MakeInitial(sorted.row(i))
                      : codec.MakeFromRow(
                            sorted.row(i),
                            cmp.FirstDifference(sorted.row(i - 1),
                                                sorted.row(i), 0));
    run.Append(sorted.row(i), code);
  }
  return run;
}

/// Builds a row for literal test fixtures.
inline std::vector<uint64_t> Row(std::initializer_list<uint64_t> values) {
  return std::vector<uint64_t>(values);
}

/// Appends literal rows to a buffer.
inline void AppendRows(RowBuffer* buffer,
                       std::initializer_list<std::vector<uint64_t>> rows) {
  for (const auto& r : rows) {
    OVC_CHECK(r.size() == buffer->width());
    buffer->AppendRow(r.data());
  }
}

// ---------------------------------------------------------------------------
// A minimal JSON reader -- just enough to round-trip QueryProfile::ToJson
// (objects, arrays, strings with the escapes the writer emits, numbers).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing key: " << key;
    static const JsonValue kNull;
    return it == object.end() ? kNull : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  /// Parses the full input; fails the test on any syntax error.
  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipSpace();
    EXPECT_EQ(pos_, text_.size()) << "trailing JSON input";
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() {
    SkipSpace();
    EXPECT_LT(pos_, text_.size()) << "unexpected end of JSON";
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void Expect(char c) {
    EXPECT_EQ(Peek(), c) << "at offset " << pos_;
    ++pos_;
  }

  JsonValue ParseValue() {
    const char c = Peek();
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  JsonValue ParseObject() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    Expect('{');
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = ParseString();
      Expect(':');
      v.object[key.str] = ParseValue();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect('}');
      return v;
    }
  }

  JsonValue ParseArray() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    Expect('[');
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(ParseValue());
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      Expect(']');
      return v;
    }
  }

  JsonValue ParseString() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    Expect('"');
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            c = '\n';
            break;
          case 'u':
            pos_ += 4;  // the writer only emits \u00XX controls
            c = '?';
            break;
          default:
            c = esc;  // \" and \\ decode to themselves
        }
      }
      v.str.push_back(c);
    }
    Expect('"');
    return v;
  }

  JsonValue ParseBool() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = text_.compare(pos_, 4, "true") == 0;
    pos_ += v.boolean ? 4 : 5;
    return v;
  }

  JsonValue ParseNull() {
    JsonValue v;
    pos_ += 4;
    return v;
  }

  JsonValue ParseNumber() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    EXPECT_GT(pos_, start) << "expected a number at offset " << start;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// Makes `catalog` claim each of `tables` holds 50 rows with no key
/// statistics. The cost-based planner then prices hash operators over
/// them as resident and picks them, however large the real input is: the
/// way to get a hash join or hash aggregate whose input overflows its
/// memory budget at run time.
inline void ClaimTinyInputs(sql::Catalog* catalog,
                            std::initializer_list<const char*> tables) {
  for (const char* name : tables) {
    sql::CatalogTable* table = catalog->FindMutable(name);
    ASSERT_NE(table, nullptr) << name;
    table->source.stats.row_count = 50;
    table->source.stats.row_count_known = true;
    table->source.stats.key_distinct.clear();
  }
}

/// The process-wide `query.<field>` counter metrics, read back as a
/// QueryCounters. SqlSession::Run mirrors every statement's counter delta
/// into exactly these, so the difference of two snapshots is the summed
/// delta of the statements run in between.
inline QueryCounters QueryMetricSnapshot() {
  metrics::MetricRegistry& registry = metrics::MetricRegistry::Instance();
  QueryCounters c;
  QueryCounters::ForEachField(
      [&](const char* name, uint64_t QueryCounters::*m) {
        c.*m = registry.GetCounter(std::string("query.") + name, "").value();
      });
  return c;
}

}  // namespace ovc::testing

namespace ovc {

/// Lets a failed EXPECT_EQ on two QueryCounters show every field.
inline void PrintTo(const QueryCounters& counters, std::ostream* os) {
  *os << counters.ToString();
}

}  // namespace ovc

#endif  // OVC_TESTS_TEST_UTIL_H_
