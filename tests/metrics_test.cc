// Tests for the process-wide observability layer: MetricRegistry semantics
// (sharded counters under thread fan-out, histogram percentiles against a
// known distribution, snapshot round-trips), the per-statement query.*
// metric deltas agreeing field-for-field with QueryResult::counters_delta,
// and cross-thread trace spans -- at parallelism 1 and 4 -- nesting every
// exchange producer under the root statement span with parent durations
// enclosing child durations.

#include "common/metrics.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/trace.h"
#include "exec/in_sort_aggregate.h"
#include "exec/scan.h"
#include "sql/catalog.h"
#include "sql/session.h"
#include "tests/test_util.h"

namespace ovc {
namespace {

using metrics::Counter;
using metrics::Histogram;
using metrics::MetricRegistry;
using ovc::testing::JsonReader;
using ovc::testing::JsonValue;
using ovc::testing::QueryMetricSnapshot;
using sql::Catalog;
using sql::QueryResult;
using sql::SqlSession;

// Metrics are process-global and this binary's tests share the registry, so
// every assertion below is phrased as a before/after delta, never as an
// absolute value.

TEST(MetricRegistry, RegistrationIsIdempotentByName) {
  Counter& a = OVC_METRIC_COUNTER("test.idempotent", "test counter");
  Counter& b =
      MetricRegistry::Instance().GetCounter("test.idempotent", "ignored help");
  EXPECT_EQ(&a, &b);
  const uint64_t before = a.value();
  b.Increment();
  EXPECT_EQ(a.value(), before + 1);
}

TEST(MetricRegistry, ShardedCounterSumsAcrossThreads) {
  Counter& counter = OVC_METRIC_COUNTER("test.sharded", "test counter");
  const uint64_t before = counter.value();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), before + kThreads * kPerThread);
}

TEST(MetricRegistry, GaugeMovesBothWays) {
  metrics::Gauge& gauge = OVC_METRIC_GAUGE("test.gauge", "test gauge");
  const int64_t before = gauge.value();
  gauge.Add(5);
  gauge.Sub(2);
  EXPECT_EQ(gauge.value(), before + 3);
  gauge.Sub(3);
  EXPECT_EQ(gauge.value(), before);
}

TEST(MetricRegistry, HistogramPercentilesOnKnownDistribution) {
  Histogram& hist =
      OVC_METRIC_HISTOGRAM("test.dist_us", "uniform 1..1000 samples");
  ASSERT_EQ(hist.count(), 0u) << "fresh name expected";
  for (uint64_t v = 1; v <= 1000; ++v) hist.Record(v);
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_EQ(hist.sum(), 500500u);  // 1000 * 1001 / 2

  // Exponential buckets are exact to ~one octave with in-bucket linear
  // interpolation; on uniform 1..1000 the estimates land within a few
  // percent of the true quantiles (500 / 950 / 990).
  const double p50 = hist.Percentile(0.50);
  const double p95 = hist.Percentile(0.95);
  const double p99 = hist.Percentile(0.99);
  EXPECT_GE(p50, 400.0);
  EXPECT_LE(p50, 600.0);
  EXPECT_GE(p95, 850.0);
  EXPECT_LE(p95, 1100.0);
  EXPECT_GE(p99, 900.0);
  EXPECT_LE(p99, 1100.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);

  // Bucket bookkeeping: per-bucket counts sum to the total, and every
  // sample respects its bucket's inclusive upper bound.
  uint64_t bucket_total = 0;
  for (uint32_t i = 0; i < Histogram::kBuckets; ++i) {
    bucket_total += hist.bucket_count(i);
    if (i + 1 < Histogram::kBuckets) {
      EXPECT_LT(Histogram::bucket_upper_bound(i),
                Histogram::bucket_upper_bound(i + 1));
    }
  }
  EXPECT_EQ(bucket_total, 1000u);
}

TEST(MetricRegistry, SnapshotsRoundTrip) {
  Counter& counter = OVC_METRIC_COUNTER("test.snapshot", "snapshot counter");
  counter.Add(7);
  Histogram& hist =
      OVC_METRIC_HISTOGRAM("test.snapshot_us", "snapshot histogram");
  hist.Record(100);
  hist.Record(200);

  // Text: one sorted line per metric, unit suffix on the _us histogram.
  const std::string text = MetricRegistry::Instance().TextSnapshot();
  EXPECT_NE(text.find("counter test.snapshot "), std::string::npos) << text;
  EXPECT_NE(text.find("histogram test.snapshot_us count=2 "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("sum=300.0us"), std::string::npos) << text;

  // JSON: parseable, and our metrics carry kind/value/percentiles with
  // bucket counts that sum back to the histogram count.
  JsonValue root = JsonReader(MetricRegistry::Instance().JsonSnapshot()).Parse();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue& list = root.at("metrics");
  ASSERT_EQ(list.kind, JsonValue::Kind::kArray);
  bool saw_counter = false;
  bool saw_histogram = false;
  std::string previous_name;
  for (const JsonValue& m : list.array) {
    const std::string& name = m.at("name").str;
    EXPECT_LT(previous_name, name) << "snapshot must be sorted by name";
    previous_name = name;
    if (name == "test.snapshot") {
      saw_counter = true;
      EXPECT_EQ(m.at("kind").str, "counter");
      EXPECT_EQ(m.at("help").str, "snapshot counter");
      EXPECT_GE(m.at("value").number, 7.0);
    } else if (name == "test.snapshot_us") {
      saw_histogram = true;
      EXPECT_EQ(m.at("kind").str, "histogram");
      EXPECT_EQ(m.at("count").number, 2.0);
      EXPECT_EQ(m.at("sum").number, 300.0);
      EXPECT_TRUE(m.has("p50"));
      EXPECT_TRUE(m.has("p99"));
      double bucket_total = 0;
      for (const JsonValue& b : m.at("buckets").array) {
        EXPECT_TRUE(b.has("le"));
        bucket_total += b.at("count").number;
      }
      EXPECT_EQ(bucket_total, 2.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_histogram);
}

// ---------------------------------------------------------------------------
// SQL integration: the query.* metric family and the trace spans, driven
// through SqlSession at parallelism 1 and 4.
// ---------------------------------------------------------------------------

class QueryObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Catalog::GeneratedSpec spec;
    spec.distinct_per_column = 100;
    spec.seed = 1;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("lineitem",
                                       {"orderkey", "qty", "price"},
                                       Schema(1, 2), 2000, spec)
                    .ok());
    spec.seed = 2;
    spec.sorted = true;
    ASSERT_TRUE(catalog_
                    .RegisterGenerated("orders", {"orderkey", "custkey"},
                                       Schema(1, 1), 500, spec)
                    .ok());
  }

  static SqlSession::Options MakeOptions(uint32_t parallelism) {
    SqlSession::Options options;
    options.validate = true;
    options.abort_on_violation = false;
    options.planner.parallelism = parallelism;
    return options;
  }

  static const char* JoinSql() {
    return "SELECT l.orderkey, COUNT(*) AS n FROM lineitem l "
           "INNER JOIN orders o ON l.orderkey = o.orderkey "
           "GROUP BY l.orderkey ORDER BY l.orderkey";
  }

  /// The query.* metrics one statement moves: the QueryCounters mirror
  /// plus the statement, row and latency bookkeeping.
  struct QueryMetricSlice {
    static QueryMetricSlice Snapshot() {
      MetricRegistry& r = MetricRegistry::Instance();
      QueryMetricSlice s;
      s.c = QueryMetricSnapshot();
      s.statements = r.GetCounter("query.statements", "").value();
      s.rows_out = r.GetCounter("query.rows_out", "").value();
      s.latency_count = r.GetHistogram("query.latency_us", "").count();
      return s;
    }
    QueryCounters c;
    uint64_t statements = 0;
    uint64_t rows_out = 0;
    uint64_t latency_count = 0;
  };

  Catalog catalog_;
};

TEST_F(QueryObservabilityTest, MetricDeltasAgreeWithQueryCounters) {
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    SqlSession session(&catalog_, MakeOptions(parallelism));

    const QueryCounters session_before = *session.counters();
    const QueryMetricSlice before = QueryMetricSlice::Snapshot();
    auto result = session.Run(JoinSql());
    ASSERT_TRUE(result.ok()) << result.error().message;
    const QueryMetricSlice after = QueryMetricSlice::Snapshot();

    // One statement, one latency sample, rows_out = materialized rows.
    EXPECT_EQ(after.statements, before.statements + 1);
    EXPECT_EQ(after.latency_count, before.latency_count + 1);
    const uint64_t rows = result.value().result.rows.size();
    EXPECT_GT(rows, 0u);
    EXPECT_EQ(after.rows_out, before.rows_out + rows);

    // Three surfaces, one truth: the process-metric delta, the result's
    // counters_delta, and the session counter roll-up are field-for-field
    // identical.
    const QueryCounters metric_delta = QueryCounters::Delta(before.c, after.c);
    EXPECT_EQ(metric_delta, result.value().counters_delta);
    EXPECT_EQ(QueryCounters::Delta(session_before, *session.counters()),
              result.value().counters_delta);
    // And the query did measurable work.
    EXPECT_GT(result.value().counters_delta.column_comparisons +
                  result.value().counters_delta.code_comparisons +
                  result.value().counters_delta.hash_computations,
              0u);
  }
}

TEST_F(QueryObservabilityTest, FailedStatementCountsAnError) {
  SqlSession session(&catalog_, MakeOptions(1));
  MetricRegistry& r = MetricRegistry::Instance();
  const uint64_t errors_before = r.GetCounter("query.errors", "").value();
  auto result = session.Run("SELECT nope FROM missing_table");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(r.GetCounter("query.errors", "").value(), errors_before + 1);
}

// One exported trace event, decoded from the Chrome trace JSON.
struct TraceEvent {
  std::string name;
  double ts = 0;
  double dur = 0;
  double tid = 0;
  uint64_t span = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
};

std::vector<TraceEvent> DecodeTrace(const std::string& json) {
  JsonValue root = JsonReader(json).Parse();
  EXPECT_EQ(root.kind, JsonValue::Kind::kObject);
  std::vector<TraceEvent> events;
  for (const JsonValue& e : root.at("traceEvents").array) {
    TraceEvent ev;
    ev.name = e.at("name").str;
    EXPECT_EQ(e.at("ph").str, "X");
    ev.ts = e.at("ts").number;
    ev.dur = e.at("dur").number;
    ev.tid = e.at("tid").number;
    const JsonValue& args = e.at("args");
    ev.span = static_cast<uint64_t>(args.at("span").number);
    ev.parent = static_cast<uint64_t>(args.at("parent").number);
    ev.query = static_cast<uint64_t>(args.at("query").number);
    events.push_back(ev);
  }
  return events;
}

TEST_F(QueryObservabilityTest, TraceSpansNestAcrossThreads) {
  for (uint32_t parallelism : {1u, 4u}) {
    SCOPED_TRACE("parallelism " + std::to_string(parallelism));
    SqlSession session(&catalog_, MakeOptions(parallelism));
    if (parallelism > 1) {
      // Guard the premise: this plan actually runs exchange-parallel.
      auto explain = session.Explain(JoinSql());
      ASSERT_TRUE(explain.ok());
      ASSERT_NE(explain.value().find("merge-exchange"), std::string::npos)
          << explain.value();
    }

    trace::Enable();
    auto result = session.Run(JoinSql());
    ASSERT_TRUE(result.ok()) << result.error().message;
    const std::string json = trace::ExportJson();
    trace::Disable();

    const std::vector<TraceEvent> events = DecodeTrace(json);
    std::map<uint64_t, const TraceEvent*> by_span;
    std::map<std::string, int> by_name;
    for (const TraceEvent& e : events) {
      by_span[e.span] = &e;
      ++by_name[e.name];
    }

    // Exactly one root statement span, and the full serial lifecycle
    // under it.
    ASSERT_EQ(by_name["sql.statement"], 1);
    EXPECT_EQ(by_name["sql.parse"], 1);
    EXPECT_EQ(by_name["sql.bind"], 1);
    EXPECT_EQ(by_name["sql.plan"], 1);
    EXPECT_EQ(by_name["sql.execute"], 1);
    EXPECT_EQ(by_name["plan.execute"], 1);

    const TraceEvent* root = nullptr;
    for (const TraceEvent& e : events) {
      if (e.name == "sql.statement") root = &e;
    }
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->parent, 0u);

    // Every non-root span belongs to the root query and, following parent
    // links, reaches the root -- including spans recorded on producer
    // threads. Parents strictly enclose children (all workers are joined
    // before their parent scope closes), so parent duration >= child
    // duration along every edge.
    std::set<double> producer_tids;
    int producers = 0;
    for (const TraceEvent& e : events) {
      if (e.span == root->span) continue;
      EXPECT_EQ(e.query, root->span) << e.name;
      const TraceEvent* cursor = &e;
      int hops = 0;
      while (cursor->parent != 0 && hops < 64) {
        auto it = by_span.find(cursor->parent);
        ASSERT_NE(it, by_span.end())
            << e.name << ": dangling parent span id " << cursor->parent;
        EXPECT_GE(it->second->dur, cursor->dur)
            << it->second->name << " -> " << cursor->name;
        cursor = it->second;
        ++hops;
      }
      EXPECT_EQ(cursor->span, root->span)
          << e.name << " does not chain up to sql.statement";
      if (e.name == "exchange.producer") {
        ++producers;
        producer_tids.insert(e.tid);
      }
    }

    if (parallelism == 1) {
      EXPECT_EQ(producers, 0);
    } else {
      // Each merge-exchange spawns `parallelism` producers; the plan has
      // at least one exchange, and the producers run on worker threads
      // distinct from the session thread.
      EXPECT_GE(producers, static_cast<int>(parallelism));
      EXPECT_GE(producer_tids.size(), 2u);
      for (double tid : producer_tids) EXPECT_NE(tid, root->tid);
    }
  }
}


TEST(SortMetrics, InSortDistinctCountsSpilledRunsAndMergeLevels) {
  // In-sort aggregation runs through ExternalSort, so its spills and merge
  // cascade show in the sort.* metrics like any other sort's.
  Counter& runs = MetricRegistry::Instance().GetCounter(
      "sort.runs_spilled", "Sorted runs written to temporary storage");
  Counter& levels = MetricRegistry::Instance().GetCounter(
      "sort.merge_levels", "Intermediate merge levels run by external sorts");
  const uint64_t runs_before = runs.value();
  const uint64_t levels_before = levels.value();

  Schema schema(3);
  RowBuffer table = ovc::testing::MakeTable(schema, 5000, 8, /*seed=*/7);
  QueryCounters counters;
  TempFileManager temp;
  BufferScan scan(&schema, &table);
  SortConfig config;
  config.memory_rows = 256;  // 20 runs
  config.fan_in = 4;         // two intermediate levels
  InSortAggregate distinct(&scan, /*group_prefix=*/3, {}, &counters, &temp,
                           config);
  const ovc::testing::RowVec out = ovc::testing::DrainValidated(&distinct);
  EXPECT_LE(out.size(), 512u);
  EXPECT_GT(out.size(), 0u);

  EXPECT_EQ(runs.value() - runs_before, 20u);
  EXPECT_EQ(levels.value() - levels_before, 2u);
}

}  // namespace
}  // namespace ovc
