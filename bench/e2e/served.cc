#include "served.h"

#include <cstdlib>

#include "server/wire.h"

namespace ovcbench {

namespace {

using ovc::server::Frame;
using ovc::server::FrameType;
using ovc::server::PayloadReader;

/// u32 length + u8 type in front of every frame (server/wire.h).
constexpr uint64_t kFrameHeaderBytes = 5;

/// The unsigned number after the first `key` in `text` (0 when absent).
uint64_t NumberAfter(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

}  // namespace

ovc::Status RunQuery(ovc::server::Client* client, const std::string& sql,
                     Reply* reply) {
  *reply = Reply();
  OVC_RETURN_IF_ERROR(client->SendFrame(FrameType::kQuery, sql));
  std::vector<uint64_t> row;
  for (;;) {
    Frame frame;
    OVC_RETURN_IF_ERROR(client->ReadOneFrame(&frame));
    ++reply->frames;
    reply->bytes += kFrameHeaderBytes + frame.payload.size();
    PayloadReader reader(frame.payload);
    switch (frame.type) {
      case FrameType::kResultHeader:
        break;
      case FrameType::kRowBatch: {
        uint32_t rows = 0;
        uint32_t width = 0;
        if (!reader.GetU32(&rows) || !reader.GetU32(&width) || width == 0 ||
            width > 1024) {
          return ovc::Status::Internal("malformed ROW_BATCH frame");
        }
        row.resize(width);
        for (uint32_t r = 0; r < rows; ++r) {
          for (uint32_t c = 0; c < width; ++c) {
            if (!reader.GetU64(&row[c])) {
              return ovc::Status::Internal("malformed ROW_BATCH frame");
            }
          }
          reply->digest.AddRow(row.data(), width);
        }
        break;
      }
      case FrameType::kResultDone: {
        uint64_t total = 0;
        if (!reader.GetU64(&total) || !reader.GetCounters(&reply->counters) ||
            !reader.AtEnd()) {
          return ovc::Status::Internal("malformed RESULT_DONE frame");
        }
        reply->ok = total == reply->digest.rows();
        if (!reply->ok) reply->error = "RESULT_DONE row total disagrees";
        return ovc::Status::Ok();
      }
      case FrameType::kError: {
        uint32_t line = 0;
        uint32_t column = 0;
        if (!reader.GetU32(&line) || !reader.GetU32(&column) ||
            !reader.GetString(&reply->error)) {
          return ovc::Status::Internal("malformed ERROR frame");
        }
        return ovc::Status::Ok();
      }
      default:
        return ovc::Status::Internal("unexpected frame type in result stream");
    }
  }
}

ovc::Status FetchServerMetrics(ovc::server::Client* client,
                               ServerMetrics* out) {
  std::string json;
  OVC_RETURN_IF_ERROR(client->Metrics(&json));
  *out = ServerMetrics();
  // The snapshot is {"metrics":[{"name":...,"help":...,"kind":...,...},...]}
  // (common/metrics.h); each object runs to the next "{\"name\":".
  const std::string kName = "{\"name\":\"";
  size_t pos = json.find(kName);
  while (pos != std::string::npos) {
    const size_t name_begin = pos + kName.size();
    const size_t name_end = json.find('"', name_begin);
    if (name_end == std::string::npos) break;
    const std::string name = json.substr(name_begin, name_end - name_begin);
    const size_t next = json.find(kName, name_end);
    const std::string object = json.substr(
        name_end, next == std::string::npos ? std::string::npos
                                            : next - name_end);
    if (object.find("\"kind\":\"counter\"") != std::string::npos) {
      out->counters[name] = NumberAfter(object, "\"value\":");
    } else if (name == "server.query_latency_us") {
      out->latency_count = NumberAfter(object, "\"count\":");
      out->latency_sum_us = NumberAfter(object, "\"sum\":");
    }
    pos = next;
  }
  return ovc::Status::Ok();
}

}  // namespace ovcbench
