// Row schema: fixed-arity rows of 64-bit integer columns.
//
// The paper's evaluation uses rows of 8-byte integer key columns with few
// distinct values per column ("synthetic yet similar to the actual data in
// our daily production web analysis"). This library adopts that model: a row
// is `key_arity` sort-key columns followed by `payload_columns` carried-along
// columns, each an unsigned 64-bit integer.
//
// Sort order: ascending or descending per key column. Internally, all
// machinery (comparators, offset-value codes, priority queues) operates on
// *normalized* column values -- descending columns are bitwise-complemented
// on access -- so the engine core is always "ascending on normalized values".

#ifndef OVC_ROW_SCHEMA_H_
#define OVC_ROW_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace ovc {

/// Per-column sort direction.
enum class SortDirection : uint8_t { kAscending, kDescending };

/// Describes the layout of a row stream: how many leading columns form the
/// sort key, their directions, and how many payload columns follow.
class Schema {
 public:
  /// All-ascending schema with `key_arity` sort-key columns and
  /// `payload_columns` trailing payload columns.
  Schema(uint32_t key_arity, uint32_t payload_columns = 0)
      : key_arity_(key_arity),
        payload_columns_(payload_columns),
        directions_(key_arity, SortDirection::kAscending) {
    OVC_CHECK(key_arity >= 1);
  }

  /// Schema with explicit per-key-column directions.
  Schema(std::vector<SortDirection> directions, uint32_t payload_columns)
      : key_arity_(static_cast<uint32_t>(directions.size())),
        payload_columns_(payload_columns),
        directions_(std::move(directions)) {
    OVC_CHECK(key_arity_ >= 1);
  }

  /// Number of leading sort-key columns (the "arity" of offset-value codes).
  uint32_t key_arity() const { return key_arity_; }
  /// Number of trailing payload columns.
  uint32_t payload_columns() const { return payload_columns_; }
  /// Total columns per row.
  uint32_t total_columns() const { return key_arity_ + payload_columns_; }

  /// Sort direction of key column `col`.
  SortDirection direction(uint32_t col) const {
    OVC_DCHECK(col < key_arity_);
    return directions_[col];
  }

  /// True when every key column sorts ascending.
  bool all_ascending() const {
    for (SortDirection d : directions_) {
      if (d != SortDirection::kAscending) return false;
    }
    return true;
  }

  /// Maps a stored column value to its order-preserving ascending image.
  /// Identity for ascending columns, bitwise complement for descending.
  uint64_t Normalize(uint32_t col, uint64_t v) const {
    return direction(col) == SortDirection::kAscending ? v : ~v;
  }

  /// Inverse of Normalize (the complement is an involution).
  uint64_t Denormalize(uint32_t col, uint64_t v) const {
    return Normalize(col, v);
  }

  /// Normalized value of key column `col` of `row`.
  uint64_t NormalizedAt(const uint64_t* row, uint32_t col) const {
    return Normalize(col, row[col]);
  }

  /// Schemas are equal when layout and directions match.
  bool operator==(const Schema& other) const {
    return key_arity_ == other.key_arity_ &&
           payload_columns_ == other.payload_columns_ &&
           directions_ == other.directions_;
  }

  /// The same row layout keyed on the first `n` key columns only (the
  /// rest become payload): comparators over it compare key prefixes.
  Schema KeyPrefix(uint32_t n) const {
    OVC_CHECK(n >= 1 && n <= key_arity_);
    return Schema(std::vector<SortDirection>(directions_.begin(),
                                             directions_.begin() + n),
                  total_columns() - n);
  }

  /// Short layout description, e.g. "key(asc,asc,desc)+payload(2)".
  std::string ToString() const;

 private:
  uint32_t key_arity_;
  uint32_t payload_columns_;
  std::vector<SortDirection> directions_;
};

}  // namespace ovc

#endif  // OVC_ROW_SCHEMA_H_
