// Process-wide prepared-plan cache for the ovcd server.
//
// Caching happens at the *bound* level: an entry is the BoundQuery
// (logical plan + output columns) produced by parse + bind, which is the
// text-processing cost worth amortizing. Physical planning is NOT cached
// -- each execution re-runs the planner against the shared logical tree
// via SqlSession::Instantiate, which binds fresh operators to the calling
// session's counters and temp-file manager. That split is what lets two
// clients run the same cached statement concurrently: planning is
// microseconds and only reads the shared tree, so neither planning nor
// execution takes a lock on it.
//
// Keying: the normalized statement text (lowercased identifiers,
// canonical keywords, comments and whitespace collapsed -- see
// NormalizeSql), so `SELECT a FROM t` and `select  A from t -- x` share
// one entry. Planner options never reach binding, so they are not part of
// the key.
// A statement is tokenized once: the key is built from its tokens, and a
// miss parses those same tokens. EXPLAIN [ANALYZE] statements (known by
// their first token) and statements that fail to parse or bind are not
// cached.
//
// The catalog is frozen while a server runs (tables are registered before
// Serve), so entries never need invalidation; Clear() exists for tests
// and for cold-cache benchmarking.

#ifndef OVC_SERVER_PLAN_CACHE_H_
#define OVC_SERVER_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/mutex.h"
#include "sql/binder.h"
#include "sql/sql_error.h"

namespace ovc::server {

/// Rewrites `sql` into its cache-key spelling: tokens' normalized forms
/// (lowercased identifiers, UPPERCASE keywords) joined by single spaces.
/// Returns false when the text does not lex; such statements bypass the
/// cache and fail in the regular prepare path with a real error position.
bool NormalizeSql(std::string_view sql, std::string* normalized);

class PlanCache {
 public:
  /// `capacity` 0 disables caching entirely (every lookup misses and
  /// nothing is stored) -- the cold-cache benchmark configuration.
  explicit PlanCache(size_t capacity);

  struct Lookup {
    /// Set when the statement is cacheable and parse + bind succeeded
    /// (whether found or just inserted). Shared out so an entry evicted
    /// mid-use stays alive until every borrowing session drops it.
    std::shared_ptr<const sql::BoundQuery> bound;
    bool hit = false;
    /// False for EXPLAIN [ANALYZE] statements and statements that fail
    /// to lex: the caller falls back to SqlSession::Prepare.
    bool cacheable = true;
    /// Parse / bind failure of a cacheable statement, reported with the
    /// source position; `bound` is null and nothing was cached.
    bool has_error = false;
    sql::SqlError error;
  };

  /// The one cache operation: returns the entry for `sql`, binding and
  /// inserting it (evicting the least recently used entry past capacity)
  /// on a miss. Thread safe; binds run under the cache lock, which is
  /// acceptable because a bind is microseconds against execution times in
  /// the tens of milliseconds.
  Lookup GetOrBind(std::string_view sql, const sql::Catalog* catalog);

  /// Drops every entry (borrowed shared_ptrs stay valid). Counters are
  /// not reset.
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }

  // Lifetime totals, mirrored into the server.plan_cache.* metrics.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::shared_ptr<const sql::BoundQuery> bound;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_pos;
  };

  const size_t capacity_;

  mutable Mutex mu_;
  std::unordered_map<std::string, Slot> entries_ OVC_GUARDED_BY(mu_);
  std::list<std::string> lru_ OVC_GUARDED_BY(mu_);

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace ovc::server

#endif  // OVC_SERVER_PLAN_CACHE_H_
