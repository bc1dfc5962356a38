// ovcd: a concurrent query server over one shared catalog.
//
// Architecture (docs/SERVING.md has the full picture):
//
//   Server
//    |-- listen socket, accept loop (own thread)
//    |-- shared, immutable Catalog (registered before Start, frozen after)
//    |-- PlanCache          -- process-wide bound-plan cache
//    |-- AdmissionController -- query-slot gate + sliced planner budgets
//    |-- TempFileManager     -- root scratch tree
//    `-- one thread + ServerSession per connection
//         `-- SqlSession (own counters, own temp sub-manager)
//
// Threading model: blocking sockets, thread per connection. A connection
// thread parses frames, runs at most one statement at a time, and streams
// result frames back; concurrency comes from many connections, bounded by
// the admission gate. Statement execution may additionally fan out into
// `workers_per_query` exchange-producer threads (the planner's sliced
// parallelism), so peak engine threads are
// max_queries * workers_per_query + connection/accept overhead.
//
// Shutdown: Stop() closes the listen socket, wakes admission waiters, and
// shuts down every live connection socket, then joins all threads. Safe to
// call concurrently with active queries; clients see their sockets close.

#ifndef OVC_SERVER_SERVER_H_
#define OVC_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/temp_file.h"
#include "plan/plan_executor.h"
#include "server/admission.h"
#include "server/plan_cache.h"
#include "sql/catalog.h"

namespace ovc::server {

struct ServerOptions {
  /// Listen address. Tests and the CI smoke use the loopback default.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back via port().
  uint16_t port = 0;
  /// Admission slots: statements executing at once (`--max-queries`).
  uint32_t max_queries = 4;
  /// Exchange workers each admitted statement plans with
  /// (`--workers-per-query`).
  uint32_t workers_per_query = 1;
  /// Plan-cache entries (0 disables caching; `--plan-cache`).
  size_t plan_cache_capacity = 128;
  /// Root scratch directory ("" = system temp dir).
  std::string temp_dir;
  /// Machine-wide executor configuration. The planner budgets inside
  /// (hash_memory_rows, sort_config.memory_rows, parallelism) are treated
  /// as whole-machine totals and sliced per query by the admission
  /// controller before any session sees them.
  plan::PlanExecutor::Options executor;
};

class Server {
 public:
  /// `catalog` must outlive the server and must not change while the
  /// server is running (the plan cache assumes a frozen catalog).
  Server(const sql::Catalog* catalog, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept thread. InvalidArgument for a
  /// bad host, IoError when the socket cannot be bound.
  [[nodiscard]] Status Start();

  /// Stops accepting, kicks every connection, joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (after Start; meaningful with options.port == 0).
  uint16_t port() const { return port_; }

  PlanCache* plan_cache() { return &cache_; }
  AdmissionController* admission() { return &admission_; }
  const AdmissionController& admission() const { return admission_; }
  /// The per-query executor options every session runs with (machine
  /// budgets divided by max_queries, parallelism = workers_per_query).
  const plan::PlanExecutor::Options& session_options() const {
    return session_options_;
  }
  const sql::Catalog* catalog() const { return catalog_; }
  TempFileManager* temp_root() { return &temp_root_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    /// True once the serving thread is done with fd (it closes the fd
    /// itself); Stop() only shuts down sockets still marked live.
    bool done = false;
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);

  const sql::Catalog* catalog_;
  const ServerOptions options_;
  const plan::PlanExecutor::Options session_options_;
  TempFileManager temp_root_;
  PlanCache cache_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;

  Mutex mu_;
  bool stopping_ OVC_GUARDED_BY(mu_) = false;
  bool started_ = false;
  /// All connections ever accepted; joined and reclaimed in Stop().
  std::vector<std::unique_ptr<Connection>> connections_ OVC_GUARDED_BY(mu_);
};

}  // namespace ovc::server

#endif  // OVC_SERVER_SERVER_H_
