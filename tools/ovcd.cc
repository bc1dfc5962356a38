// ovcd: the OVC query server (docs/SERVING.md).
//
//   ./build/ovcd --gen='t(a,b) rows=1000 sorted' [--gen=...]
//                [--host=ADDR] [--port=N] [--max-queries=N]
//                [--workers-per-query=N] [--plan-cache=N]
//                [--sort-memory-rows=N] [--hash-memory-rows=N]
//                [--prefer-sort] [--temp-dir=DIR]
//
// Serves the wire protocol in src/server/wire.h over TCP, thread per
// connection, until SIGINT/SIGTERM. The catalog is built from the --gen
// specs (same syntax as ovcsql's .gen; see sql/gen_spec.h) before the
// listener starts and is frozen afterwards -- that immutability is what
// the shared plan cache relies on.
//
// --port=0 (the default) binds an ephemeral port; the "listening on"
// line printed to stdout carries the real one, so scripts can do:
//   ./build/ovcd --gen='...' & then parse the port from its output.
//
// --sort-memory-rows / --hash-memory-rows are MACHINE totals: the
// admission controller divides them by --max-queries so the worst case
// (every slot busy) still fits the box. --workers-per-query is the
// exchange parallelism each admitted statement plans with.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "server/server.h"
#include "sql/catalog.h"
#include "sql/gen_spec.h"

using namespace ovc;

namespace {

// Self-pipe: the signal handler may only do async-signal-safe work, so it
// writes one byte and main() sleeps in read() until then.
int g_stop_pipe[2] = {-1, -1};

void HandleStopSignal(int) {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(g_stop_pipe[1], &byte, 1);
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: ovcd --gen=SPEC [--gen=SPEC ...] [--host=ADDR] [--port=N]\n"
      "            [--max-queries=N] [--workers-per-query=N]\n"
      "            [--plan-cache=N] [--sort-memory-rows=N]\n"
      "            [--hash-memory-rows=N] [--prefer-sort] [--temp-dir=DIR]\n"
      "gen spec: %s\n",
      sql::GenSpecUsage());
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions options;
  std::vector<std::string> gen_specs;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--gen=", 6) == 0) {
      gen_specs.emplace_back(arg + 6);
    } else if (std::strncmp(arg, "--host=", 7) == 0) {
      options.host = arg + 7;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      options.port = static_cast<uint16_t>(std::strtoul(arg + 7, nullptr, 10));
    } else if (std::strncmp(arg, "--max-queries=", 14) == 0) {
      options.max_queries =
          static_cast<uint32_t>(std::strtoul(arg + 14, nullptr, 10));
    } else if (std::strncmp(arg, "--workers-per-query=", 20) == 0) {
      options.workers_per_query =
          static_cast<uint32_t>(std::strtoul(arg + 20, nullptr, 10));
    } else if (std::strncmp(arg, "--plan-cache=", 13) == 0) {
      options.plan_cache_capacity = std::strtoull(arg + 13, nullptr, 10);
    } else if (std::strncmp(arg, "--sort-memory-rows=", 19) == 0) {
      options.executor.planner.sort_config.memory_rows =
          std::strtoull(arg + 19, nullptr, 10);
    } else if (std::strncmp(arg, "--hash-memory-rows=", 19) == 0) {
      options.executor.planner.hash_memory_rows =
          std::strtoull(arg + 19, nullptr, 10);
    } else if (std::strcmp(arg, "--prefer-sort") == 0) {
      options.executor.planner.prefer_sort_based = true;
    } else if (std::strncmp(arg, "--temp-dir=", 11) == 0) {
      options.temp_dir = arg + 11;
    } else {
      PrintUsage();
      return 2;
    }
  }
  if (gen_specs.empty()) {
    std::fprintf(stderr, "error: a server without tables serves nothing; "
                         "pass at least one --gen=SPEC\n");
    PrintUsage();
    return 2;
  }

  sql::Catalog catalog;
  for (const std::string& spec : gen_specs) {
    const Status status = sql::RegisterGeneratedFromSpec(&catalog, spec);
    if (!status.ok()) {
      std::fprintf(stderr, "error in --gen='%s': %s\n", spec.c_str(),
                   status.ToString().c_str());
      return 2;
    }
  }

  server::Server server(&catalog, options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("ovcd listening on %s:%u (%zu tables, %u query slots, "
              "%u workers/query)\n",
              options.host.c_str(), static_cast<unsigned>(server.port()),
              catalog.TableNames().size(), options.max_queries,
              options.workers_per_query);
  std::fflush(stdout);

  if (::pipe(g_stop_pipe) != 0) {
    std::fprintf(stderr, "error: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  char byte = 0;
  ssize_t n;
  do {
    n = ::read(g_stop_pipe[0], &byte, 1);
  } while (n < 0 && errno == EINTR);

  std::printf("ovcd shutting down\n");
  server.Stop();
  return 0;
}
