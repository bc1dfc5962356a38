// Concurrency battery for the ovcd serving layer (runs under TSan and
// ASan in CI): many clients hammering mixed SELECT / JOIN / GROUP BY
// workloads with per-client correctness against serial oracles, zero
// cross-session counter bleed (the sum of the counters deltas clients
// received over the wire must equal the process query.* metric deltas,
// field for field), an admission gate that never exceeds its slot limit,
// and fault injection into concurrently-served queries: the failing
// session gets a clean SqlError frame, its neighbors are undisturbed,
// and the server keeps serving.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/gen_spec.h"
#include "sql/session.h"
#include "test_util.h"

namespace ovc::server {
namespace {

using ::ovc::testing::Canonicalize;
using ::ovc::testing::ClaimTinyInputs;
using ::ovc::testing::QueryMetricSnapshot;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

#if OVC_FAILPOINTS_ENABLED
#define SKIP_WITHOUT_FAILPOINTS()
#else
#define SKIP_WITHOUT_FAILPOINTS() \
  GTEST_SKIP() << "failpoints compiled out (NDEBUG without OVC_ENABLE_FAILPOINTS)"
#endif

class ServingStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        sql::RegisterGeneratedFromSpec(
            &catalog_, "fact(k,v) rows=10000 keys=1 distinct=200 seed=31")
            .ok());
    ASSERT_TRUE(sql::RegisterGeneratedFromSpec(
                    &catalog_, "dim(k,p) rows=200 keys=1 distinct=200 seed=32")
                    .ok());
    // Pre-sorted with codes on both columns: ORDER BY k, v over it is an
    // elided sort -- a query that never touches temporary storage, used
    // as the undisturbed neighbor in the fault-injection tests.
    ASSERT_TRUE(
        sql::RegisterGeneratedFromSpec(
            &catalog_,
            "sorted_t(k,v) rows=10000 keys=2 distinct=200 seed=33 sorted")
            .ok());
  }

  void TearDown() override {
    failpoint::DisarmAll();
    if (server_ != nullptr) server_->Stop();
  }

  void StartServer(ServerOptions options) {
    server_ = std::make_unique<Server>(&catalog_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// Every admission slot comes back. A slot is released when its
  /// statement's handler returns, just after the response's final flush,
  /// so a client can hold the whole reply a moment before that.
  void ExpectSlotsReturned() {
    const AdmissionController& gate = *server_->admission();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (gate.active() != 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(gate.active(), 0u);
  }

  Client Connect() {
    Client client;
    EXPECT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    return client;
  }

  RowVec Oracle(const std::string& sql) {
    sql::SqlSession session(&catalog_, server_->session_options());
    sql::SqlResult<sql::QueryResult> result = session.Run(sql);
    EXPECT_TRUE(result.ok());
    if (!result.ok()) return {};
    return ToRowVec(result.value().result.rows);
  }

  sql::Catalog catalog_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServingStressTest, MixedWorkloadCorrectWithZeroCounterBleed) {
  ServerOptions options;
  options.max_queries = 4;
  options.workers_per_query = 2;
  StartServer(options);

  // All four shapes end in ORDER BY so every result is row-for-row
  // deterministic against its oracle.
  const std::vector<std::string> queries = {
      "SELECT k, v FROM fact ORDER BY k, v",
      "SELECT f.k, COUNT(*) AS n FROM fact f INNER JOIN dim d ON f.k = d.k "
      "GROUP BY f.k ORDER BY f.k",
      "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k ORDER BY k",
      "SELECT DISTINCT k FROM fact ORDER BY k",
  };
  std::vector<RowVec> oracles;
  for (const std::string& sql : queries) {
    oracles.push_back(Oracle(sql));
    ASSERT_FALSE(oracles.back().empty());
  }

  // Snapshot AFTER the oracle runs: they go through the same SqlSession
  // machinery and move the query.* metrics too.
  const QueryCounters before = QueryMetricSnapshot();

  constexpr int kClients = 8;
  constexpr int kIterations = 6;
  std::atomic<int> failures{0};
  Mutex sum_mu;
  QueryCounters wire_sum;
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      QueryCounters local;
      for (int j = 0; j < kIterations; ++j) {
        const size_t pick = static_cast<size_t>(i + j) % queries.size();
        Client::Result result;
        if (!client.Query(queries[pick], &result).ok() || !result.ok ||
            result.rows != oracles[pick]) {
          failures.fetch_add(1);
          return;
        }
        local.Merge(result.counters);
      }
      MutexLock lock(sum_mu);
      wire_sum.Merge(local);
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Zero cross-session bleed: what the clients were told they consumed is
  // exactly what the process-wide accounting moved by.
  const QueryCounters delta = QueryCounters::Delta(before, QueryMetricSnapshot());
  EXPECT_EQ(delta, wire_sum)
      << "wire-reported counter sum diverged from the query.* metric delta";

  // The admission gate never overshot its slot limit, and every slot was
  // returned.
  EXPECT_LE(server_->admission()->high_water(), options.max_queries);
  ExpectSlotsReturned();

  // Four distinct normalized statements -> four binds, everything else
  // cache hits (GetOrBind holds the cache lock through bind-and-insert,
  // so concurrent first arrivals cannot double-bind).
  EXPECT_EQ(server_->plan_cache()->misses(), queries.size());
  EXPECT_EQ(server_->plan_cache()->hits(),
            static_cast<uint64_t>(kClients * kIterations) - queries.size());
}

TEST_F(ServingStressTest, AdmissionGateNeverExceedsSlotLimit) {
  ServerOptions options;
  options.max_queries = 2;
  options.workers_per_query = 2;
  StartServer(options);
  const std::string sql =
      "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM fact GROUP BY k ORDER BY k";
  const RowVec expected = Oracle(sql);

  constexpr int kClients = 12;
  constexpr int kIterations = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int j = 0; j < kIterations; ++j) {
        Client::Result result;
        if (!client.Query(sql, &result).ok() || !result.ok ||
            result.rows != expected) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_LE(server_->admission()->high_water(), 2u);
  ExpectSlotsReturned();
}

TEST_F(ServingStressTest, InjectedTempfileExhaustionStaysInItsSession) {
  SKIP_WITHOUT_FAILPOINTS();
  ServerOptions options;
  options.max_queries = 4;
  // Machine total of 4 * 256 sort rows: each admitted query gets a 256-row
  // sort workspace, so the 10000-row ORDER BY below must spill -- and with
  // tempfile.write armed, must fail.
  options.executor.planner.sort_config.memory_rows = 4 * 256;
  StartServer(options);

  const std::string spilling = "SELECT v, k FROM fact ORDER BY v, k";
  const std::string elided = "SELECT k, v FROM sorted_t ORDER BY k, v";
  const RowVec spilling_oracle = Oracle(spilling);
  const RowVec elided_oracle = Oracle(elided);

  failpoint::Arm("tempfile.write");

  Client failing = Connect();
  std::atomic<int> neighbor_failures{0};
  std::vector<std::thread> neighbors;
  for (int i = 0; i < 3; ++i) {
    neighbors.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        neighbor_failures.fetch_add(1);
        return;
      }
      // Elided-sort scans never touch temporary storage, so the armed
      // failpoint must be invisible to them.
      for (int j = 0; j < 5; ++j) {
        Client::Result result;
        if (!client.Query(elided, &result).ok() || !result.ok ||
            result.rows != elided_oracle) {
          neighbor_failures.fetch_add(1);
          return;
        }
      }
    });
  }

  Client::Result failed;
  ASSERT_TRUE(failing.Query(spilling, &failed).ok());
  EXPECT_FALSE(failed.ok);
  EXPECT_NE(failed.error_message.find("execution failed"), std::string::npos)
      << failed.error_message;

  for (std::thread& t : neighbors) t.join();
  EXPECT_EQ(neighbor_failures.load(), 0);

  // Disarmed, the SAME connection (same session, same temp sub-manager)
  // recovers completely: the per-session first-error slot was drained by
  // its own failed run and nobody else's.
  failpoint::DisarmAll();
  Client::Result retried;
  ASSERT_TRUE(failing.Query(spilling, &retried).ok());
  ASSERT_TRUE(retried.ok) << retried.error_message;
  EXPECT_EQ(retried.rows, spilling_oracle);
}

TEST_F(ServingStressTest, ForcedHashFallbacksStayCorrectUnderConcurrency) {
  SKIP_WITHOUT_FAILPOINTS();
  ServerOptions options;
  options.max_queries = 4;
  // Claimed-tiny inputs make the planner pick the grace hash join for this
  // unsorted join deterministically (with true statistics it might choose
  // sort+merge and never evaluate the forced-overflow site).
  ClaimTinyInputs(&catalog_, {"fact", "dim"});
  StartServer(options);

  const std::string join =
      "SELECT f.k, f.v, d.p FROM fact f JOIN dim d ON f.k = d.k";
  RowVec oracle = Oracle(join);
  Canonicalize(&oracle);
  ASSERT_FALSE(oracle.empty());

  failpoint::Arm("grace_hash_join.force_overflow");

  constexpr int kClients = 4;
  constexpr int kIterations = 3;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> fallbacks{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int j = 0; j < kIterations; ++j) {
        Client::Result result;
        if (!client.Query(join, &result).ok() || !result.ok) {
          failures.fetch_add(1);
          return;
        }
        RowVec rows = result.rows;
        Canonicalize(&rows);
        if (rows != oracle) {
          failures.fetch_add(1);
          return;
        }
        fallbacks.fetch_add(result.counters.hash_join_fallbacks);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);
  // Every served execution was forced mid-query onto the sort path and
  // still produced the exact join result.
  EXPECT_GE(fallbacks.load(), static_cast<uint64_t>(kClients * kIterations));

  // The server survived the whole episode.
  failpoint::DisarmAll();
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("SELECT k FROM dim ORDER BY k", &result).ok());
  EXPECT_TRUE(result.ok);
}

}  // namespace
}  // namespace ovc::server
