// Client-side helpers for talking to a live ovcd: one statement with its
// result checked as it streams in, and the server's METRICS snapshot.

#ifndef OVCBENCH_SERVED_H_
#define OVCBENCH_SERVED_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/counters.h"
#include "common/status.h"
#include "oracle.h"
#include "server/client.h"

namespace ovcbench {

/// One statement's reply as the client read it.
struct Reply {
  /// True when the stream ended in RESULT_DONE whose row total matches the
  /// rows received; false for an ERROR frame (`error` holds its message).
  bool ok = false;
  std::string error;
  Digest digest;
  /// The statement's server-side counter delta from RESULT_DONE.
  ovc::QueryCounters counters;
  /// Frames read (each through Client::ReadOneFrame) and their bytes,
  /// frame headers included: what the server sent for this statement.
  uint64_t frames = 0;
  uint64_t bytes = 0;
};

/// Sends one QUERY frame and reads its result stream, fingerprinting rows
/// as they arrive. A non-OK status is a transport failure.
ovc::Status RunQuery(ovc::server::Client* client, const std::string& sql,
                     Reply* reply);

/// The parts of a METRICS snapshot the per-layer ledger reads.
struct ServerMetrics {
  /// Counter values by name; counters the server has not touched yet are
  /// absent (read them as 0).
  std::map<std::string, uint64_t> counters;
  /// server.query_latency_us sample count and sum (microseconds).
  uint64_t latency_count = 0;
  uint64_t latency_sum_us = 0;

  uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Sends METRICS and extracts the counters and the served-statement
/// latency histogram's count and sum from the JSON snapshot.
ovc::Status FetchServerMetrics(ovc::server::Client* client,
                               ServerMetrics* out);

}  // namespace ovcbench

#endif  // OVCBENCH_SERVED_H_
