// The ovcd serving layer: wire-protocol round trips (happy path, malformed
// frames, oversized frames, mid-frame disconnects), shared-plan-cache
// semantics (hit / miss / eviction / normalization / disabled), prepared
// statements over the wire, concurrent execution of one cached plan
// checked row-for-row against a serial oracle, the write path (one send()
// per small response, no Nagle stall, 64 KiB flushes, a peer that leaves
// mid-response), and the single-owner
// regressions PR 10 fixed: per-session temp-file sub-managers (first-error
// isolation) and per-query admission slicing of the machine budgets.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/profile.h"
#include "common/status.h"
#include "common/temp_file.h"
#include "server/admission.h"
#include "server/client.h"
#include "server/plan_cache.h"
#include "server/server.h"
#include "server/wire.h"
#include "sql/gen_spec.h"
#include "sql/session.h"
#include "test_util.h"

namespace ovc::server {
namespace {

using ::ovc::testing::JsonReader;
using ::ovc::testing::JsonValue;
using ::ovc::testing::QueryMetricSnapshot;
using ::ovc::testing::RowVec;
using ::ovc::testing::ToRowVec;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(sql::RegisterGeneratedFromSpec(
                    &catalog_, "t(a,b) rows=200 keys=1 distinct=40 seed=7")
                    .ok());
    ASSERT_TRUE(sql::RegisterGeneratedFromSpec(
                    &catalog_, "dim(a,p) rows=40 keys=1 distinct=40 seed=9")
                    .ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  void StartServer(ServerOptions options = ServerOptions()) {
    server_ = std::make_unique<Server>(&catalog_, options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  Client Connect() {
    Client client;
    const Status status = client.Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(status.ok()) << status.ToString();
    return client;
  }

  /// Serial oracle: the same statement through a direct SqlSession with
  /// the same per-query options every served session runs under.
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

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

/// Both ends of a connected local stream socket.
struct SocketPair {
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~SocketPair() {
    ::close(fd[0]);
    ::close(fd[1]);
  }
  int fd[2] = {-1, -1};
};

/// True when `fd` has bytes waiting to be read.
bool Readable(int fd) {
  char byte;
  return ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
}

TEST(WireCodec, PayloadRoundTrip) {
  QueryCounters counters;
  counters.row_comparisons = 7;
  counters.rows_spilled = 1u << 30;
  const uint64_t values[3] = {1, uint64_t{1} << 63, 0x0102030405060708};
  SocketPair pair;
  FrameWriter writer(pair.fd[0]);
  writer.BeginFrame(FrameType::kText);
  writer.PutU8(3);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(uint64_t{1} << 40);
  writer.PutString("hello");
  writer.PutString("");
  writer.PutU64s(values, 3);
  writer.PutCounters(counters);
  ASSERT_TRUE(writer.EndResponse().ok());

  Frame frame;
  ASSERT_TRUE(ReadFrame(pair.fd[1], &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kText);
  PayloadReader reader(frame.payload);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  std::string s1, s2;
  uint64_t decoded_values[3] = {};
  QueryCounters decoded;
  ASSERT_TRUE(reader.GetU8(&u8));
  ASSERT_TRUE(reader.GetU32(&u32));
  ASSERT_TRUE(reader.GetU64(&u64));
  ASSERT_TRUE(reader.GetString(&s1));
  ASSERT_TRUE(reader.GetString(&s2));
  for (uint64_t& v : decoded_values) ASSERT_TRUE(reader.GetU64(&v));
  ASSERT_TRUE(reader.GetCounters(&decoded));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(u8, 3);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, uint64_t{1} << 40);
  EXPECT_EQ(s1, "hello");
  EXPECT_EQ(s2, "");
  for (int i = 0; i < 3; ++i) EXPECT_EQ(decoded_values[i], values[i]);
  EXPECT_EQ(decoded, counters);
}

TEST(WireCodec, FramesCoalesceUntilTheResponseEnds) {
  SocketPair pair;
  metrics::Counter sends;
  metrics::Counter bytes;
  FrameWriter writer(pair.fd[0], SendCounters{&sends, &bytes});
  writer.BeginFrame(FrameType::kResultHeader);
  writer.PutU32(0);
  ASSERT_TRUE(writer.EndFrame().ok());
  writer.BeginFrame(FrameType::kClosed);  // empty payload
  ASSERT_TRUE(writer.EndFrame().ok());
  // Below kFlushBytes nothing has left yet.
  EXPECT_EQ(sends.value(), 0u);
  EXPECT_FALSE(Readable(pair.fd[1]));

  writer.BeginFrame(FrameType::kText);
  writer.PutString("done");
  ASSERT_TRUE(writer.EndResponse().ok());
  EXPECT_EQ(sends.value(), 1u);
  EXPECT_EQ(bytes.value(), (5u + 4) + 5 + (5 + 4 + 4));

  Frame frame;
  ASSERT_TRUE(ReadFrame(pair.fd[1], &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kResultHeader);
  EXPECT_EQ(frame.payload.size(), 4u);
  ASSERT_TRUE(ReadFrame(pair.fd[1], &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kClosed);
  EXPECT_TRUE(frame.payload.empty());
  ASSERT_TRUE(ReadFrame(pair.fd[1], &frame).ok());
  EXPECT_EQ(frame.type, FrameType::kText);
  EXPECT_FALSE(Readable(pair.fd[1]));
}

TEST(WireCodec, BufferFlushesOncePastTheThreshold) {
  SocketPair pair;
  metrics::Counter sends;
  FrameWriter writer(pair.fd[0], SendCounters{&sends, nullptr});
  // Two 24,000-byte frames stay buffered; the third passes 64 KiB.
  const std::vector<uint64_t> values(3000, 42);
  for (int i = 0; i < 3; ++i) {
    writer.BeginFrame(FrameType::kRowBatch);
    writer.PutU64s(values.data(), values.size());
    ASSERT_TRUE(writer.EndFrame().ok());
    EXPECT_EQ(sends.value(), i < 2 ? 0u : 1u) << "after frame " << i;
  }
  writer.BeginFrame(FrameType::kResultDone);
  ASSERT_TRUE(writer.EndResponse().ok());
  EXPECT_EQ(sends.value(), 2u);
  for (int i = 0; i < 4; ++i) {
    Frame frame;
    ASSERT_TRUE(ReadFrame(pair.fd[1], &frame).ok());
    EXPECT_EQ(frame.payload.size(), i < 3 ? 24000u : 0u);
  }
}

TEST(WireCodec, TruncatedPayloadPoisonsReader) {
  // Five bytes of an eight-byte value: every later getter must fail
  // instead of reading junk.
  PayloadReader reader(std::string_view("\x2a\0\0\0\0", 5));
  uint64_t v = 0;
  EXPECT_FALSE(reader.GetU64(&v));
  EXPECT_FALSE(reader.ok());
  uint32_t w = 0;
  EXPECT_FALSE(reader.GetU32(&w));
  EXPECT_FALSE(reader.AtEnd());
}

TEST(WireCodec, StringLengthPastPayloadEndFails) {
  // Claims 1000 bytes, provides none.
  PayloadReader reader(std::string_view("\xe8\x03\0\0", 4));
  std::string s;
  EXPECT_FALSE(reader.GetString(&s));
  EXPECT_FALSE(reader.ok());
}

// ---------------------------------------------------------------------------
// QueryCounters views
// ---------------------------------------------------------------------------

TEST(QueryCounterViews, EveryViewCarriesEveryField) {
  // A distinct value per field: a view that drops or swaps a field shows
  // up as a mismatch on that field.
  QueryCounters values;
  size_t fields = 0;
  QueryCounters::ForEachField([&](const char*, uint64_t QueryCounters::*m) {
    values.*m = 1000 * ++fields + 7;
  });

  // Merge and Delta.
  QueryCounters doubled = values;
  doubled.Merge(values);
  QueryCounters::ForEachField(
      [&](const char* name, uint64_t QueryCounters::*m) {
        EXPECT_EQ(doubled.*m, 2 * (values.*m)) << name;
        EXPECT_NE(values.ToString().find(std::string(name) + "=" +
                                         std::to_string(values.*m)),
                  std::string::npos)
            << name;
      });
  EXPECT_EQ(QueryCounters::Delta(values, doubled), values);
  EXPECT_NE(QueryCounters::Delta(values, doubled), QueryCounters());

  // RESULT_DONE encoding: eight bytes per field, decoded back whole.
  SocketPair pair;
  FrameWriter writer(pair.fd[0]);
  writer.BeginFrame(FrameType::kResultDone);
  writer.PutCounters(values);
  ASSERT_TRUE(writer.EndResponse().ok());
  Frame frame;
  ASSERT_TRUE(ReadFrame(pair.fd[1], &frame).ok());
  EXPECT_EQ(frame.payload.size(), 8 * fields);
  PayloadReader reader(frame.payload);
  QueryCounters decoded;
  ASSERT_TRUE(reader.GetCounters(&decoded));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(decoded, values);

  // The JSON profile's per-node "counters" object.
  QueryProfile profile;
  const int node = profile.AddNode();
  profile.SetLine(node, "scan(t)", 1, 1, {});
  profile.AddSlice(node)->counters = values;
  profile.SetRoot(node);
  EXPECT_EQ(profile.FinishRun(nullptr, 0), values);
  const std::string json = profile.ToJson();
  const JsonValue root = JsonReader(json).Parse();
  const JsonValue& counters = root.at("plan").at("counters");
  EXPECT_EQ(counters.object.size(), fields);
  QueryCounters::ForEachField(
      [&](const char* name, uint64_t QueryCounters::*m) {
        EXPECT_EQ(counters.at(name).number, static_cast<double>(values.*m))
            << name;
      });

  // The query.<field> metrics.
  const QueryCounters before = QueryMetricSnapshot();
  sql::RecordQueryMetrics(values);
  EXPECT_EQ(QueryCounters::Delta(before, QueryMetricSnapshot()), values);
}

// ---------------------------------------------------------------------------
// SQL normalization (cache keys)
// ---------------------------------------------------------------------------

TEST(NormalizeSql, CollapsesSpellingDifferences) {
  std::string a, b;
  ASSERT_TRUE(NormalizeSql("SELECT a, b FROM t ORDER BY a", &a));
  ASSERT_TRUE(NormalizeSql("select  A ,\n B from T -- trailing\n order by a",
                           &b));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "SELECT a , b FROM t ORDER BY a");
}

TEST(NormalizeSql, DistinctStatementsStayDistinct) {
  std::string a, b;
  ASSERT_TRUE(NormalizeSql("SELECT a FROM t", &a));
  ASSERT_TRUE(NormalizeSql("SELECT b FROM t", &b));
  EXPECT_NE(a, b);
}

TEST(NormalizeSql, RejectsUnlexableText) {
  std::string out;
  EXPECT_FALSE(NormalizeSql("SELECT $ FROM t", &out));
}

// ---------------------------------------------------------------------------
// Wire round trips against a live server
// ---------------------------------------------------------------------------

TEST_F(ServerTest, QueryRoundTripMatchesOracle) {
  StartServer();
  const std::string sql = "SELECT a, b FROM t ORDER BY a, b";
  const RowVec expected = Oracle(sql);
  ASSERT_FALSE(expected.empty());

  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query(sql, &result).ok());
  ASSERT_TRUE(result.ok) << result.error_message;
  EXPECT_EQ(result.columns, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(result.total_rows, expected.size());
  EXPECT_EQ(result.rows, expected);
}

TEST_F(ServerTest, ExplainTravelsAsText) {
  StartServer();
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("EXPLAIN SELECT a FROM t ORDER BY a", &result).ok());
  ASSERT_TRUE(result.ok) << result.error_message;
  EXPECT_NE(result.explain_text.find("scan(t)"), std::string::npos)
      << result.explain_text;
  EXPECT_TRUE(result.rows.empty());
}

TEST_F(ServerTest, SqlErrorKeepsConnectionUsable) {
  StartServer();
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("SELECT bogus FROM t", &result).ok());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error_message.find("bogus"), std::string::npos);
  EXPECT_EQ(result.error_line, 1u);
  EXPECT_GT(result.error_column, 0u);

  // The stream stayed in sync: the same connection still serves.
  ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
  EXPECT_TRUE(result.ok);
}

TEST_F(ServerTest, UnknownFrameTypeGetsErrorThenClose) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.SendFrame(static_cast<FrameType>(9), "junk").ok());
  Frame frame;
  ASSERT_TRUE(client.ReadOneFrame(&frame).ok());
  EXPECT_EQ(frame.type, FrameType::kError);
  // The server hangs up after a protocol violation.
  EXPECT_FALSE(client.ReadOneFrame(&frame).ok());
}

TEST_F(ServerTest, OversizedFrameGetsErrorThenClose) {
  StartServer();
  Client client = Connect();
  // Header claiming a payload over the 16 MiB ceiling; no payload needed,
  // the server must reject on the header alone.
  const uint32_t huge = kMaxFrameBytes + 1;
  char header[5];
  header[0] = static_cast<char>(huge & 0xff);
  header[1] = static_cast<char>((huge >> 8) & 0xff);
  header[2] = static_cast<char>((huge >> 16) & 0xff);
  header[3] = static_cast<char>((huge >> 24) & 0xff);
  header[4] = 1;  // QUERY
  ASSERT_TRUE(client.SendBytes(header, sizeof(header)).ok());
  Frame frame;
  ASSERT_TRUE(client.ReadOneFrame(&frame).ok());
  EXPECT_EQ(frame.type, FrameType::kError);
  PayloadReader reader(frame.payload);
  uint32_t line = 0, column = 0;
  std::string message;
  ASSERT_TRUE(reader.GetU32(&line) && reader.GetU32(&column) &&
              reader.GetString(&message));
  EXPECT_NE(message.find("frame"), std::string::npos) << message;
  EXPECT_FALSE(client.ReadOneFrame(&frame).ok());
}

TEST_F(ServerTest, MidFrameDisconnectLeavesServerServing) {
  StartServer();
  {
    Client dropper = Connect();
    // A header promising 100 bytes, then only 3, then gone.
    const char partial[8] = {100, 0, 0, 0, 1, 'S', 'E', 'L'};
    ASSERT_TRUE(dropper.SendBytes(partial, sizeof(partial)).ok());
    dropper.Disconnect();
  }
  // The dropped connection must not take the server (or any shared state)
  // with it.
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
  EXPECT_TRUE(result.ok);
}

TEST_F(ServerTest, MetricsSnapshotOverWire) {
  StartServer();
  Client client = Connect();
  std::string json;
  ASSERT_TRUE(client.Metrics(&json).ok());
  EXPECT_NE(json.find("\"server.connections\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Writes: one coalesced send per response, no Nagle stall
// ---------------------------------------------------------------------------

/// The server's send accounting, read over the wire through METRICS
/// frames. Each METRICS reply is counted after its own snapshot was
/// taken, so Next() takes the previous reply's one send and its bytes
/// out of the delta.
class SendLedger {
 public:
  explicit SendLedger(Client* client) : client_(client) { Snapshot(); }

  /// send() calls and bytes sent since the previous call (or construction).
  void Next(uint64_t* sends, uint64_t* bytes) {
    const uint64_t sends_before = sends_;
    const uint64_t bytes_before = bytes_ + reply_bytes_;
    Snapshot();
    *sends = sends_ - sends_before - 1;
    *bytes = bytes_ - bytes_before;
  }

 private:
  void Snapshot() {
    std::string json;
    ASSERT_TRUE(client_->Metrics(&json).ok());
    const ::ovc::testing::JsonValue root =
        ::ovc::testing::JsonReader(json).Parse();
    for (const ::ovc::testing::JsonValue& m : root.at("metrics").array) {
      const std::string& name = m.at("name").str;
      if (name == "server.sends") sends_ = Count(m);
      if (name == "server.bytes_sent") bytes_ = Count(m);
    }
    reply_bytes_ = kFrameHeaderBytes + 4 + json.size();
  }

  static uint64_t Count(const ::ovc::testing::JsonValue& metric) {
    return static_cast<uint64_t>(metric.at("value").number);
  }

  Client* client_;
  uint64_t sends_ = 0;
  uint64_t bytes_ = 0;
  uint64_t reply_bytes_ = 0;
};

/// Bytes of the frames answering a row-returning statement (docs/SERVING.md
/// frame catalog), from what the client received.
uint64_t ResultStreamBytes(const Client::Result& result) {
  uint64_t bytes = kFrameHeaderBytes + 4;  // RESULT_HEADER
  for (const std::string& column : result.columns) bytes += 4 + column.size();
  const uint64_t width = result.columns.size();
  for (size_t begin = 0; begin < result.rows.size();
       begin += kRowsPerBatchFrame) {
    const uint64_t rows =
        std::min<size_t>(kRowsPerBatchFrame, result.rows.size() - begin);
    bytes += kFrameHeaderBytes + 8 + rows * width * 8;  // ROW_BATCH
  }
  return bytes + kFrameHeaderBytes + 8 + 10 * 8;  // RESULT_DONE
}

TEST_F(ServerTest, SmallStatementsAreOneSendWithoutStall) {
  StartServer();
  Client client = Connect();
  SendLedger ledger(&client);
  uint64_t sends = 0;
  uint64_t bytes = 0;

  // 50 point queries on one connection. With Nagle holding each reply's
  // tail for the client's delayed ACK they took ~44 ms apiece.
  constexpr int kQueries = 50;
  uint64_t expected_bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kQueries; ++i) {
    Client::Result result;
    const std::string sql =
        "SELECT a, b FROM t WHERE a = " + std::to_string(i % 40);
    ASSERT_TRUE(client.Query(sql, &result).ok());
    ASSERT_TRUE(result.ok) << result.error_message;
    expected_bytes += ResultStreamBytes(result);
  }
  const int64_t elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_ms, kQueries * 5)
      << elapsed_ms << " ms for " << kQueries << " point queries";
  // Every response takes at least one send, so the total pins each.
  ledger.Next(&sends, &bytes);
  EXPECT_EQ(sends, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(bytes, expected_bytes);

  // Every other response kind is one send as well.
  Client::Result result;
  ASSERT_TRUE(client.Query("EXPLAIN SELECT a FROM t", &result).ok());
  ASSERT_TRUE(result.ok);
  ledger.Next(&sends, &bytes);
  EXPECT_EQ(sends, 1u);
  EXPECT_EQ(bytes, kFrameHeaderBytes + 4 + result.explain_text.size() +
                       kFrameHeaderBytes + 8 + 10 * 8);

  ASSERT_TRUE(client.Query("SELECT bogus FROM t", &result).ok());
  ASSERT_FALSE(result.ok);
  ledger.Next(&sends, &bytes);
  EXPECT_EQ(sends, 1u);
  EXPECT_EQ(bytes, kFrameHeaderBytes + 4 + 4 + 4 + result.error_message.size());

  Client::PreparedInfo info;
  ASSERT_TRUE(client.Prepare("SELECT a FROM t WHERE a = 3", &info).ok());
  ASSERT_TRUE(info.ok);
  ledger.Next(&sends, &bytes);
  EXPECT_EQ(sends, 1u);
  ASSERT_TRUE(client.Execute(info.handle, &result).ok());
  ASSERT_TRUE(result.ok);
  ledger.Next(&sends, &bytes);
  EXPECT_EQ(sends, 1u);
  EXPECT_EQ(bytes, ResultStreamBytes(result));
  ASSERT_TRUE(client.CloseStatement(info.handle).ok());
  ledger.Next(&sends, &bytes);
  EXPECT_EQ(sends, 1u);
  EXPECT_EQ(bytes, kFrameHeaderBytes);
}

TEST_F(ServerTest, LargeResultFlushesPerBufferFill) {
  ASSERT_TRUE(sql::RegisterGeneratedFromSpec(
                  &catalog_, "big(a,b) rows=10000 keys=1 distinct=100 seed=3")
                  .ok());
  StartServer();
  Client client = Connect();
  SendLedger ledger(&client);
  Client::Result result;
  ASSERT_TRUE(client.Query("SELECT a, b FROM big", &result).ok());
  ASSERT_TRUE(result.ok) << result.error_message;
  ASSERT_EQ(result.rows.size(), 10000u);

  uint64_t sends = 0;
  uint64_t bytes = 0;
  ledger.Next(&sends, &bytes);
  const uint64_t expected_bytes = ResultStreamBytes(result);
  EXPECT_EQ(bytes, expected_bytes);
  ASSERT_GT(expected_bytes, FrameWriter::kFlushBytes);
  const uint64_t fills = (expected_bytes + FrameWriter::kFlushBytes - 1) /
                         FrameWriter::kFlushBytes;
  EXPECT_GE(sends, 2u);
  EXPECT_LE(sends, fills + 1);
}

std::atomic<int> g_sigpipes{0};

TEST_F(ServerTest, PeerLeavingMidResponseReleasesItsSlot) {
  // ~640 KB of rows: many 64 KiB flushes, so the server is still sending
  // when the peer's reset arrives.
  ASSERT_TRUE(sql::RegisterGeneratedFromSpec(
                  &catalog_, "big(a,b) rows=40000 keys=1 distinct=100 seed=3")
                  .ok());
  StartServer();
  struct sigaction count_sigpipe = {};
  count_sigpipe.sa_handler = [](int) { g_sigpipes.fetch_add(1); };
  struct sigaction previous = {};
  ASSERT_EQ(::sigaction(SIGPIPE, &count_sigpipe, &previous), 0);
  g_sigpipes.store(0);

  metrics::MetricRegistry& registry = metrics::MetricRegistry::Instance();
  metrics::Counter& accepted = registry.GetCounter("server.connections", "");
  metrics::Gauge& open = registry.GetGauge("server.active_connections", "");
  metrics::Gauge& admitted = registry.GetGauge("server.active_queries", "");
  const uint64_t accepted_before = accepted.value();
  const int64_t open_before = open.value();
  {
    Client leaver = Connect();
    ASSERT_TRUE(leaver.SendFrame(FrameType::kQuery, "SELECT a, b FROM big")
                    .ok());
    leaver.Disconnect();  // without reading a byte
  }
  // The server must notice the dead peer and end that session.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((accepted.value() != accepted_before + 1 ||
          open.value() != open_before) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(open.value(), open_before) << "abandoned session still open";
  EXPECT_EQ(server_->admission()->active(), 0u);
  EXPECT_EQ(admitted.value(), 0);

  // A new client is served in full.
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("SELECT a, b FROM big", &result).ok());
  ASSERT_TRUE(result.ok) << result.error_message;
  EXPECT_EQ(result.rows.size(), 40000u);
  EXPECT_EQ(result.total_rows, 40000u);

  ASSERT_EQ(::sigaction(SIGPIPE, &previous, nullptr), 0);
  EXPECT_EQ(g_sigpipes.load(), 0) << "MSG_NOSIGNAL must keep SIGPIPE away";
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PlanCacheHitMissEviction) {
  ServerOptions options;
  options.plan_cache_capacity = 1;
  StartServer(options);
  PlanCache* cache = server_->plan_cache();
  Client client = Connect();
  Client::Result result;

  ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->hits(), 0u);

  // A different spelling of the same statement hits.
  ASSERT_TRUE(client.Query("select  A from T order by a", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->hits(), 1u);
  EXPECT_EQ(cache->size(), 1u);

  // A second statement evicts the first at capacity 1...
  ASSERT_TRUE(client.Query("SELECT b FROM t ORDER BY b", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(cache->misses(), 2u);
  EXPECT_EQ(cache->evictions(), 1u);
  EXPECT_EQ(cache->size(), 1u);

  // ...so the first statement misses again.
  ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(cache->misses(), 3u);
}

TEST_F(ServerTest, PlanCacheCapacityZeroDisablesCaching) {
  ServerOptions options;
  options.plan_cache_capacity = 0;
  StartServer(options);
  Client client = Connect();
  Client::Result result;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.Query("SELECT a FROM t ORDER BY a", &result).ok());
    ASSERT_TRUE(result.ok);
  }
  EXPECT_EQ(server_->plan_cache()->hits(), 0u);
  EXPECT_EQ(server_->plan_cache()->misses(), 2u);
  EXPECT_EQ(server_->plan_cache()->size(), 0u);
}

TEST_F(ServerTest, ExplainBypassesCache) {
  StartServer();
  Client client = Connect();
  Client::Result result;
  ASSERT_TRUE(client.Query("EXPLAIN SELECT a FROM t", &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(server_->plan_cache()->size(), 0u);
  EXPECT_EQ(server_->plan_cache()->misses(), 0u);
}

TEST_F(ServerTest, CachedResultMatchesUncached) {
  const std::string sql =
      "SELECT t.a, COUNT(*) AS n FROM t INNER JOIN dim ON t.a = dim.a "
      "GROUP BY t.a ORDER BY t.a";
  ServerOptions cold;
  cold.plan_cache_capacity = 0;
  StartServer(cold);
  Client client = Connect();
  Client::Result uncached;
  ASSERT_TRUE(client.Query(sql, &uncached).ok());
  ASSERT_TRUE(uncached.ok);
  server_->Stop();

  StartServer();  // cache on
  Client warm_client = Connect();
  Client::Result first, second;
  ASSERT_TRUE(warm_client.Query(sql, &first).ok());
  ASSERT_TRUE(warm_client.Query(sql, &second).ok());
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_GE(server_->plan_cache()->hits(), 1u);
  EXPECT_EQ(first.rows, uncached.rows);
  EXPECT_EQ(second.rows, uncached.rows);
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PrepareExecuteCloseFlow) {
  StartServer();
  const std::string sql = "SELECT a, b FROM t ORDER BY a, b";
  const RowVec expected = Oracle(sql);

  Client first = Connect();
  Client::PreparedInfo info;
  ASSERT_TRUE(first.Prepare(sql, &info).ok());
  ASSERT_TRUE(info.ok) << info.error_message;
  EXPECT_FALSE(info.cache_hit);
  EXPECT_EQ(info.columns, (std::vector<std::string>{"a", "b"}));

  // Re-executable: same handle, same rows, twice.
  for (int run = 0; run < 2; ++run) {
    Client::Result result;
    ASSERT_TRUE(first.Execute(info.handle, &result).ok());
    ASSERT_TRUE(result.ok) << result.error_message;
    EXPECT_EQ(result.rows, expected);
  }

  // A second connection preparing the same text hits the shared cache.
  Client second = Connect();
  Client::PreparedInfo info2;
  ASSERT_TRUE(second.Prepare(sql, &info2).ok());
  ASSERT_TRUE(info2.ok);
  EXPECT_TRUE(info2.cache_hit);
  Client::Result result;
  ASSERT_TRUE(second.Execute(info2.handle, &result).ok());
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.rows, expected);

  ASSERT_TRUE(first.CloseStatement(info.handle).ok());
  // Executing a closed (now unknown) handle errors but keeps the
  // connection alive.
  ASSERT_TRUE(first.Execute(info.handle, &result).ok());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error_message.find("unknown statement handle"),
            std::string::npos);
  ASSERT_TRUE(first.Query("SELECT a FROM t ORDER BY a", &result).ok());
  EXPECT_TRUE(result.ok);
}

TEST_F(ServerTest, PrepareReportsSqlErrors) {
  StartServer();
  Client client = Connect();
  Client::PreparedInfo info;
  ASSERT_TRUE(client.Prepare("SELECT nope FROM t", &info).ok());
  EXPECT_FALSE(info.ok);
  EXPECT_NE(info.error_message.find("nope"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent execution of one cached plan
// ---------------------------------------------------------------------------

TEST_F(ServerTest, ConcurrentClientsShareOneCachedPlan) {
  ServerOptions options;
  options.max_queries = 8;
  StartServer(options);
  const std::string sql =
      "SELECT a, COUNT(*) AS n FROM t GROUP BY a ORDER BY a";
  const RowVec expected = Oracle(sql);
  ASSERT_FALSE(expected.empty());

  // Warm the cache so every concurrent execution instantiates the same
  // shared entry.
  {
    Client warmer = Connect();
    Client::Result result;
    ASSERT_TRUE(warmer.Query(sql, &result).ok());
    ASSERT_TRUE(result.ok);
  }

  constexpr int kClients = 4;
  constexpr int kIterations = 8;
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
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->plan_cache()->hits(),
            static_cast<uint64_t>(kClients * kIterations));
  EXPECT_EQ(server_->plan_cache()->misses(), 1u);
}

// ---------------------------------------------------------------------------
// Shutdown behavior
// ---------------------------------------------------------------------------

TEST_F(ServerTest, StopDisconnectsIdleClients) {
  StartServer();
  Client client = Connect();
  server_->Stop();
  Client::Result result;
  // Either the send or the response read fails; it must not hang.
  const Status status = client.Query("SELECT a FROM t", &result);
  EXPECT_FALSE(status.ok() && result.ok);
}

// ---------------------------------------------------------------------------
// Single-owner regressions: temp-file sub-managers
// ---------------------------------------------------------------------------

TEST(TempSubManager, NestsDisjointScratchDirs) {
  TempFileManager root;
  TempFileManager sub1(&root);
  TempFileManager sub2(&root);
  EXPECT_NE(sub1.dir(), sub2.dir());
  EXPECT_EQ(sub1.dir().find(root.dir()), 0u)
      << sub1.dir() << " not under " << root.dir();
  EXPECT_EQ(sub2.dir().find(root.dir()), 0u);
  EXPECT_TRUE(std::filesystem::is_directory(sub1.dir()));
  // Paths from different sub-managers never collide even with identical
  // tags and ids.
  EXPECT_NE(sub1.NewPath("run"), sub2.NewPath("run"));
}

TEST(TempSubManager, FirstErrorSlotIsPerSubManager) {
  TempFileManager root;
  TempFileManager session_a(&root);
  TempFileManager session_b(&root);

  // Query A's spill failure lands in A's slot only: B's concurrent query
  // and the server's root manager stay clean (the pre-PR-10 process-wide
  // manager bled this across sessions).
  session_a.RecordError(Status::IoError("disk full under session a"));
  EXPECT_FALSE(session_a.first_error().ok());
  EXPECT_TRUE(session_b.first_error().ok());
  EXPECT_TRUE(root.first_error().ok());

  // B's per-run ClearError must not wipe A's pending error either.
  session_b.ClearError();
  EXPECT_FALSE(session_a.first_error().ok());
  EXPECT_EQ(session_a.first_error().message(), "disk full under session a");
}

TEST(TempSubManager, DestructionRemovesOnlyOwnTree) {
  TempFileManager root;
  std::string sub_dir;
  {
    TempFileManager sub(&root);
    sub_dir = sub.dir();
    ASSERT_TRUE(std::filesystem::is_directory(sub_dir));
  }
  EXPECT_FALSE(std::filesystem::exists(sub_dir));
  EXPECT_TRUE(std::filesystem::is_directory(root.dir()));
}

// ---------------------------------------------------------------------------
// Single-owner regressions: admission slicing
// ---------------------------------------------------------------------------

TEST(AdmissionSlice, DividesMachineBudgetsAcrossSlots) {
  plan::PlanExecutor::Options machine;
  machine.planner.parallelism = 16;  // overwritten by the per-query value
  machine.planner.hash_memory_rows = uint64_t{1} << 20;
  machine.planner.sort_config.memory_rows = uint64_t{1} << 20;

  const plan::PlanExecutor::Options sliced =
      AdmissionController::Slice(machine, /*slots=*/4, /*workers_per_query=*/2);
  EXPECT_EQ(sliced.planner.parallelism, 2u);
  EXPECT_EQ(sliced.planner.hash_memory_rows, uint64_t{1} << 18);
  EXPECT_EQ(sliced.planner.sort_config.memory_rows, uint64_t{1} << 18);
}

TEST(AdmissionSlice, FloorsDegenerateBudgets) {
  plan::PlanExecutor::Options machine;
  machine.planner.hash_memory_rows = 100;
  machine.planner.sort_config.memory_rows = 100;
  const plan::PlanExecutor::Options sliced =
      AdmissionController::Slice(machine, /*slots=*/1000,
                                 /*workers_per_query=*/0);
  EXPECT_EQ(sliced.planner.parallelism, 1u);
  EXPECT_EQ(sliced.planner.hash_memory_rows,
            AdmissionController::kMinHashMemoryRows);
  EXPECT_EQ(sliced.planner.sort_config.memory_rows,
            AdmissionController::kMinSortMemoryRows);
}

TEST(Admission, GateBlocksAtCapacityAndReleases) {
  AdmissionController gate(2);
  ASSERT_TRUE(gate.Acquire());
  ASSERT_TRUE(gate.Acquire());
  EXPECT_EQ(gate.active(), 2u);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    if (gate.Acquire()) {
      admitted.store(true);
      gate.Release();
    }
  });
  // The third acquire must block while both slots are held.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(gate.active(), 2u);

  gate.Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  gate.Release();
  EXPECT_EQ(gate.active(), 0u);
  EXPECT_EQ(gate.high_water(), 2u);
}

TEST(Admission, ShutdownUnblocksWaiters) {
  AdmissionController gate(1);
  ASSERT_TRUE(gate.Acquire());
  std::thread waiter([&] { EXPECT_FALSE(gate.Acquire()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Shutdown();
  waiter.join();
  EXPECT_FALSE(gate.Acquire());
  gate.Release();
}

}  // namespace
}  // namespace ovc::server
