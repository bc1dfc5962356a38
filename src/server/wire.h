// ovcd wire protocol: length-prefixed frames over a stream socket.
//
// Every message is one frame:
//
//   +----------------+--------+----------------------+
//   | u32 payload_len| u8 type| payload (payload_len)|
//   +----------------+--------+----------------------+
//
// with the length little-endian and *not* counting the type byte. The
// protocol is strictly client-drives: the client sends one request frame
// (QUERY / PREPARE / EXECUTE / CLOSE / METRICS) and reads response frames
// until the terminating one for that request (RESULT_DONE, PREPARED,
// CLOSED, TEXT, or ERROR). Multi-byte integers inside payloads are
// little-endian; strings are u32 length + bytes. Row batches carry raw
// u64 column values (the engine's row model is fixed-width uint64).
//
// Both ends set TCP_NODELAY, and every write goes through FrameWriter,
// which coalesces a response's frames into one send() (or one per
// ~64 KiB), so no frame waits on the peer's delayed ACK.
//
// Robustness contract (tests/server_test.cc):
//  * A frame whose length exceeds kMaxFrameBytes cannot be resynchronized
//    (the stream offset is lost) -- the server answers ERROR and closes
//    the connection.
//  * An unknown frame type gets ERROR + close.
//  * A connection dropped mid-frame just ends the session; other
//    connections are unaffected (thread-per-connection isolation).
//
// See docs/SERVING.md for the full frame catalog.

#ifndef OVC_SERVER_WIRE_H_
#define OVC_SERVER_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/counters.h"
#include "common/metrics.h"
#include "common/status.h"

namespace ovc::server {

/// Frame type byte. Requests are < 16, responses >= 16.
enum class FrameType : uint8_t {
  // Client -> server.
  kQuery = 1,    // payload: SQL text; response: result stream
  kPrepare = 2,  // payload: SQL text; response: PREPARED
  kExecute = 3,  // payload: u64 handle; response: result stream
  kClose = 4,    // payload: u64 handle; response: CLOSED
  kMetrics = 5,  // payload: empty; response: TEXT (metrics JSON snapshot)

  // Server -> client.
  kPrepared = 16,      // u64 handle | u8 cache_hit | u32 ncols | ncols * str
  kResultHeader = 17,  // u32 ncols | ncols * str
  kRowBatch = 18,      // u32 nrows | u32 width | nrows*width u64
  kResultDone = 19,    // u64 total_rows | u64 per QueryCounters field
  kError = 20,         // u32 line | u32 col | str message
  kClosed = 21,        // empty
  kText = 22,          // str (EXPLAIN text, metrics JSON)
};

/// Hard ceiling on a single frame's payload. Request frames past it are a
/// protocol violation (ERROR + close); the server chunks its own row
/// batches well below it.
inline constexpr uint32_t kMaxFrameBytes = 16u << 20;

/// Rows per RowBatch frame the server emits.
inline constexpr uint32_t kRowsPerBatchFrame = 1024;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Frame header bytes: u32 payload length + u8 type.
inline constexpr size_t kFrameHeaderBytes = 5;

/// Where a send loop accounts what it wrote; null members are skipped.
struct SendCounters {
  metrics::Counter* sends = nullptr;  // one per send() call
  metrics::Counter* bytes = nullptr;  // bytes the kernel accepted
};

/// The protocol's one send loop: writes all of `data` to `fd`, looping
/// over partial writes. MSG_NOSIGNAL -- a peer that vanished surfaces as
/// kIoError, never SIGPIPE.
Status SendAll(int fd, std::string_view data, const SendCounters& counters);

/// Reads one frame from `fd`. Clean end-of-stream *at a frame boundary*
/// returns kNotFound (the peer closed politely); end-of-stream inside a
/// frame, or any socket error, returns kIoError; a header whose length
/// exceeds kMaxFrameBytes returns kResourceExhausted without consuming
/// the (unreadable) payload.
Status ReadFrame(int fd, Frame* out);

/// Encodes frames straight into one reusable output buffer and sends them
/// in as few send() calls as possible. A frame is BeginFrame, then Put*
/// for its payload (little-endian scalars, length-prefixed strings), then
/// EndFrame or EndResponse, which patch in the payload length. The buffer
/// goes out once it reaches kFlushBytes and at every response's
/// terminating frame, so a small response is one send().
class FrameWriter {
 public:
  /// Buffered bytes at which EndFrame flushes.
  static constexpr size_t kFlushBytes = size_t{64} << 10;

  explicit FrameWriter(int fd, SendCounters counters = {})
      : fd_(fd), counters_(counters) {}

  void BeginFrame(FrameType type);
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// `n` u64 values in one append (ROW_BATCH bodies).
  void PutU64s(const uint64_t* values, size_t n);
  void PutString(std::string_view s);
  /// Raw bytes, no length prefix.
  void PutBytes(std::string_view s) { buf_.append(s); }
  /// Every QueryCounters field, in declaration order.
  void PutCounters(const QueryCounters& c);

  /// Closes the open frame; flushes once the buffer reaches kFlushBytes.
  [[nodiscard]] Status EndFrame();
  /// Closes the open frame as its response's terminator and flushes.
  [[nodiscard]] Status EndResponse();

 private:
  void PatchLength();
  Status Flush();

  int fd_;
  SendCounters counters_;
  std::string buf_;
  size_t frame_start_ = 0;
};

/// Payload cursor: the mirror of FrameWriter's Put*. Every getter returns
/// false (and poisons the reader) on truncated input, so malformed
/// payloads are rejected without aborting.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetU8(uint8_t* v);
  bool GetString(std::string* s);
  bool GetCounters(QueryCounters* c);

  /// True when the whole payload was consumed without a decode error.
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }

 private:
  bool Take(void* out, size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace ovc::server

#endif  // OVC_SERVER_WIRE_H_
