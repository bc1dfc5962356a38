// Serving-layer throughput: queries/second through a live ovcd Server
// over real loopback sockets, at 1 / 8 / 64 concurrent clients, with the
// plan cache cold (capacity 0: every statement re-lexed, re-parsed,
// re-bound under the cache lock) versus warm (capacity 128: one bind,
// then hits). The table is deliberately small so the per-statement
// front-end cost -- the part the cache removes -- is visible next to
// execution. A warm-vs-cold gap is not by itself the cache's: read it
// against the run-to-run spread of repeated runs on an idle machine.
// Runs with more clients than CPUs are labelled "not a scaling
// measurement".
//
//   BM_ServingQps/clients:N/warm:{0,1} -- items/sec is QPS.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/catalog.h"

namespace ovc {
namespace {

constexpr uint64_t kRows = 2000;
// Enough syntax that lexing + parsing + binding is a real per-statement
// cost: a join, an aggregate, and an order.
const char kSql[] =
    "SELECT f.a, COUNT(*) AS n, SUM(f.b) AS s "
    "FROM t f INNER JOIN d ON f.a = d.a "
    "GROUP BY f.a ORDER BY f.a";
constexpr int kQueriesPerRound = 20;

sql::Catalog* SharedCatalog() {
  static sql::Catalog* catalog = [] {
    auto* c = new sql::Catalog();
    sql::Catalog::GeneratedSpec spec;
    spec.distinct_per_column = 50;
    spec.seed = 11;
    OVC_CHECK_OK(
        c->RegisterGenerated("t", {"a", "b"}, Schema(1, 1), kRows, spec));
    spec.seed = 12;
    OVC_CHECK_OK(
        c->RegisterGenerated("d", {"a", "p"}, Schema(1, 1), 50, spec));
    return c;
  }();
  return catalog;
}

void BM_ServingQps(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const bool warm = state.range(1) != 0;

  server::ServerOptions options;
  options.max_queries = 8;
  options.plan_cache_capacity = warm ? 128 : 0;
  server::Server server(SharedCatalog(), options);
  OVC_CHECK_OK(server.Start());

  // Persistent connections: the benchmark prices statement serving, not
  // TCP connection setup.
  std::vector<server::Client> pool(static_cast<size_t>(clients));
  for (server::Client& client : pool) {
    OVC_CHECK_OK(client.Connect("127.0.0.1", server.port()));
  }
  if (warm) {
    // One throwaway statement binds the plan into the cache so the timed
    // region is all hits.
    server::Client::Result result;
    OVC_CHECK_OK(pool[0].Query(kSql, &result));
    OVC_CHECK(result.ok);
  }

  std::atomic<bool> failed{false};
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(pool.size());
    for (server::Client& client : pool) {
      threads.emplace_back([&client, &failed] {
        for (int i = 0; i < kQueriesPerRound; ++i) {
          server::Client::Result result;
          if (!client.Query(kSql, &result).ok() || !result.ok) {
            failed.store(true);
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  OVC_CHECK(!failed.load());

  state.SetItemsProcessed(state.iterations() * clients * kQueriesPerRound);
  if (clients > bench::UsableCpus()) state.SetLabel("not a scaling measurement");
  state.counters["plan_cache_hits"] =
      static_cast<double>(server.plan_cache()->hits());
  server.Stop();
}
BENCHMARK(BM_ServingQps)
    ->ArgsProduct({{1, 8, 64}, {0, 1}})
    ->ArgNames({"clients", "warm"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

}  // namespace
}  // namespace ovc
