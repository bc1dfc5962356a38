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

}  // namespace

bool NormalizeSql(std::string_view sql, std::string* normalized) {
  sql::SqlResult<std::vector<sql::Token>> tokens = sql::Tokenize(sql);
  if (!tokens.ok()) return false;
  normalized->clear();
  for (const sql::Token& token : tokens.value()) {
    if (token.type == sql::TokenType::kEnd) break;
    if (!normalized->empty()) normalized->push_back(' ');
    normalized->append(token.normalized);
  }
  return true;
}

PlanCache::PlanCache(size_t capacity) : capacity_(capacity) {}

PlanCache::Lookup PlanCache::GetOrBind(std::string_view sql,
                                       const sql::Catalog* catalog) {
  Lookup result;
  std::string key;
  if (!NormalizeSql(sql, &key)) {
    // Does not lex; fall through to Prepare for the real diagnostic.
    result.cacheable = false;
    return result;
  }
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    result.entry = it->second.entry;
    result.hit = true;
    hits_.fetch_add(1, std::memory_order_relaxed);
    CacheHits().Increment();
    return result;
  }

  // Miss: parse + bind under the lock (microseconds; see header).
  sql::SqlResult<sql::Statement> stmt = sql::ParseStatement(sql);
  if (!stmt.ok()) {
    result.has_error = true;
    result.error = stmt.error();
    return result;
  }
  if (stmt.value().explain) {
    // EXPLAIN [ANALYZE] output depends on per-execution planner state
    // (profiling); it stays on the uncached Prepare path.
    result.cacheable = false;
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
  result.entry = std::make_shared<Entry>();
  result.entry->bound = std::move(bound).value();
  if (capacity_ == 0) return result;  // cache disabled: hand out, don't keep

  lru_.push_front(key);
  entries_[std::move(key)] = Slot{result.entry, lru_.begin()};
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
