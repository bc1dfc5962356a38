// Blocking ovcd client: one connection, one outstanding request at a
// time. Used by the ovcclient CLI, the server tests, and bench_serving.
//
// Error surfaces are two-level, mirroring the protocol:
//  * A non-OK Status from any call means the *transport* failed (connect
//    refused, socket error, the server closed the connection) -- the
//    connection is dead afterwards.
//  * A returned Result/PreparedInfo with ok == false carries a
//    *statement* error the server reported in an ERROR frame (parse,
//    bind, execution failure); the connection stays usable.

#ifndef OVC_SERVER_CLIENT_H_
#define OVC_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "server/wire.h"

namespace ovc::server {

class Client {
 public:
  Client() = default;
  ~Client() { Disconnect(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Client& operator=(Client&& other) noexcept {
    if (this != &other) {
      Disconnect();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  [[nodiscard]] Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  /// One statement's outcome.
  struct Result {
    /// False when the server answered ERROR; the error_* fields are set.
    bool ok = false;
    std::vector<std::string> columns;
    /// Result rows (row-major). Empty for EXPLAIN statements.
    std::vector<std::vector<uint64_t>> rows;
    /// EXPLAIN / EXPLAIN ANALYZE rendering, when the statement was one.
    std::string explain_text;
    /// Total rows the server reported in RESULT_DONE (equals rows.size()).
    uint64_t total_rows = 0;
    /// The statement's server-side QueryCounters delta -- every
    /// QueryCounters field, as the server added it to its query.* metrics
    /// for this run.
    QueryCounters counters;

    std::string error_message;
    uint32_t error_line = 0;
    uint32_t error_column = 0;
  };

  /// Sends QUERY and collects the whole result stream.
  [[nodiscard]] Status Query(const std::string& sql, Result* result);

  struct PreparedInfo {
    bool ok = false;
    uint64_t handle = 0;
    /// True when the statement came out of the server's plan cache.
    bool cache_hit = false;
    std::vector<std::string> columns;

    std::string error_message;
    uint32_t error_line = 0;
    uint32_t error_column = 0;
  };

  /// Sends PREPARE; on success the returned handle feeds Execute/Close.
  [[nodiscard]] Status Prepare(const std::string& sql, PreparedInfo* info);

  /// Sends EXECUTE for a prepared handle and collects the result stream.
  [[nodiscard]] Status Execute(uint64_t handle, Result* result);

  /// Sends CLOSE for a prepared handle (idempotent on the server).
  [[nodiscard]] Status CloseStatement(uint64_t handle);

  /// Sends METRICS; `json` receives the server's registry snapshot.
  [[nodiscard]] Status Metrics(std::string* json);

  // -- Low-level access for protocol tests ---------------------------------

  /// Sends one raw frame.
  [[nodiscard]] Status SendFrame(FrameType type, std::string_view payload);
  /// Sends raw bytes verbatim (partial/garbage frames for malformed-input
  /// tests).
  [[nodiscard]] Status SendBytes(const void* data, size_t len);
  /// Reads one frame.
  [[nodiscard]] Status ReadOneFrame(Frame* frame);

 private:
  /// Sends an EXECUTE or CLOSE frame for `handle`.
  Status SendHandle(FrameType type, uint64_t handle);
  /// Reads response frames after QUERY/EXECUTE until RESULT_DONE or ERROR.
  Status CollectResult(Result* result);

  int fd_ = -1;
};

}  // namespace ovc::server

#endif  // OVC_SERVER_CLIENT_H_
