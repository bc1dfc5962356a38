#include "server/plan_cache.h"

#include <utility>
#include <vector>

#include "common/metrics.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace ovc::server {

namespace {

metrics::Counter& CacheHits() {
  return OVC_METRIC_COUNTER("server.plan_cache.hits",
                            "Statements served from the shared plan cache");
}

metrics::Counter& CacheMisses() {
  return OVC_METRIC_COUNTER("server.plan_cache.misses",
                            "Statements bound fresh into the plan cache");
}

metrics::Counter& CacheEvictions() {
  return OVC_METRIC_COUNTER("server.plan_cache.evictions",
                            "Plan-cache entries evicted by LRU pressure");
}

/// The cache key of a tokenized statement (see NormalizeSql).
std::string KeyOf(const std::vector<sql::Token>& tokens) {
  std::string key;
  for (const sql::Token& token : tokens) {
    if (token.type == sql::TokenType::kEnd) break;
    if (!key.empty()) key.push_back(' ');
    key.append(token.normalized);
  }
  return key;
}

}  // namespace

bool NormalizeSql(std::string_view sql, std::string* normalized) {
  sql::SqlResult<std::vector<sql::Token>> tokens = sql::Tokenize(sql);
  if (!tokens.ok()) return false;
  *normalized = KeyOf(tokens.value());
  return true;
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {}

PlanCache::Lookup PlanCache::GetOrBind(std::string_view sql,
                                       const sql::Catalog* catalog) {
  Lookup result;
  sql::SqlResult<std::vector<sql::Token>> tokens = sql::Tokenize(sql);
  // A statement that does not lex falls through to Prepare for the real
  // diagnostic. EXPLAIN [ANALYZE] output depends on per-execution planner
  // state (profiling); it stays on the uncached Prepare path too.
  if (!tokens.ok() || tokens.value().front().IsKeyword("EXPLAIN")) {
    result.cacheable = false;
    return result;
  }
  std::string key = KeyOf(tokens.value());
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    result.bound = it->second.bound;
    result.hit = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    CacheHits().Increment();
    return result;
  }

  // Miss: parse the key's tokens + bind under the lock (microseconds; see
  // header).
  sql::SqlResult<sql::Statement> stmt =
      sql::ParseTokens(std::move(tokens).value());
  if (!stmt.ok()) {
    result.has_error = true;
    result.error = stmt.error();
    return result;
  }
  sql::Binder binder(catalog);
  sql::SqlResult<sql::BoundQuery> bound = binder.Bind(stmt.value().select);
  if (!bound.ok()) {
    result.has_error = true;
    result.error = bound.error();
    return result;
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  CacheMisses().Increment();
  result.bound =
      std::make_shared<const sql::BoundQuery>(std::move(bound).value());
  if (capacity_ == 0) return result;  // cache disabled: hand out, don't keep

  lru_.push_front(key);
  entries_[std::move(key)] = Slot{result.bound, lru_.begin()};
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    CacheEvictions().Increment();
  }
  return result;
}

void PlanCache::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace ovc::server
