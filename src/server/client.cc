#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ovc::server {

namespace {

/// Decodes an ERROR payload into the result error fields.
bool ParseError(const std::string& payload, std::string* message,
                uint32_t* line, uint32_t* column) {
  PayloadReader reader(payload);
  return reader.GetU32(line) && reader.GetU32(column) &&
         reader.GetString(message) && reader.AtEnd();
}

}  // namespace

Status Client::Connect(const std::string& host, uint16_t port) {
  Disconnect();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Disconnect();
    return Status::InvalidArgument("bad server address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const Status status =
        Status::IoError(std::string("connect: ") + std::strerror(errno));
    Disconnect();
    return status;
  }
  // Requests are one send() each; none should wait on a delayed ACK.
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

void Client::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::Query(const std::string& sql, Result* result) {
  OVC_RETURN_IF_ERROR(SendFrame(FrameType::kQuery, sql));
  return CollectResult(result);
}

Status Client::Prepare(const std::string& sql, PreparedInfo* info) {
  *info = PreparedInfo();
  OVC_RETURN_IF_ERROR(SendFrame(FrameType::kPrepare, sql));
  Frame frame;
  OVC_RETURN_IF_ERROR(ReadOneFrame(&frame));
  if (frame.type == FrameType::kError) {
    if (!ParseError(frame.payload, &info->error_message, &info->error_line,
                    &info->error_column)) {
      return Status::Internal("malformed ERROR frame from server");
    }
    return Status::Ok();
  }
  if (frame.type != FrameType::kPrepared) {
    return Status::Internal("unexpected frame type in PREPARE response");
  }
  PayloadReader reader(frame.payload);
  uint8_t hit = 0;
  uint32_t ncols = 0;
  if (!reader.GetU64(&info->handle) || !reader.GetU8(&hit) ||
      !reader.GetU32(&ncols)) {
    return Status::Internal("malformed PREPARED frame from server");
  }
  info->cache_hit = hit != 0;
  info->columns.resize(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    if (!reader.GetString(&info->columns[i])) {
      return Status::Internal("malformed PREPARED frame from server");
    }
  }
  info->ok = true;
  return Status::Ok();
}

Status Client::Execute(uint64_t handle, Result* result) {
  OVC_RETURN_IF_ERROR(SendHandle(FrameType::kExecute, handle));
  return CollectResult(result);
}

Status Client::CloseStatement(uint64_t handle) {
  OVC_RETURN_IF_ERROR(SendHandle(FrameType::kClose, handle));
  Frame frame;
  OVC_RETURN_IF_ERROR(ReadOneFrame(&frame));
  if (frame.type != FrameType::kClosed) {
    return Status::Internal("unexpected frame type in CLOSE response");
  }
  return Status::Ok();
}

Status Client::Metrics(std::string* json) {
  OVC_RETURN_IF_ERROR(SendFrame(FrameType::kMetrics, ""));
  Frame frame;
  OVC_RETURN_IF_ERROR(ReadOneFrame(&frame));
  if (frame.type != FrameType::kText) {
    return Status::Internal("unexpected frame type in METRICS response");
  }
  PayloadReader reader(frame.payload);
  if (!reader.GetString(json) || !reader.AtEnd()) {
    return Status::Internal("malformed TEXT frame from server");
  }
  return Status::Ok();
}

Status Client::SendFrame(FrameType type, std::string_view payload) {
  if (fd_ < 0) return Status::IoError("not connected");
  FrameWriter out(fd_);
  out.BeginFrame(type);
  out.PutBytes(payload);
  return out.EndResponse();
}

Status Client::SendHandle(FrameType type, uint64_t handle) {
  if (fd_ < 0) return Status::IoError("not connected");
  FrameWriter out(fd_);
  out.BeginFrame(type);
  out.PutU64(handle);
  return out.EndResponse();
}

Status Client::SendBytes(const void* data, size_t len) {
  if (fd_ < 0) return Status::IoError("not connected");
  return SendAll(fd_, std::string_view(static_cast<const char*>(data), len),
                 SendCounters());
}

Status Client::ReadOneFrame(Frame* frame) {
  if (fd_ < 0) return Status::IoError("not connected");
  Status status = ReadFrame(fd_, frame);
  if (status.code() == StatusCode::kNotFound) {
    return Status::IoError("server closed the connection");
  }
  return status;
}

Status Client::CollectResult(Result* result) {
  *result = Result();
  for (;;) {
    Frame frame;
    OVC_RETURN_IF_ERROR(ReadOneFrame(&frame));
    switch (frame.type) {
      case FrameType::kResultHeader: {
        PayloadReader reader(frame.payload);
        uint32_t ncols = 0;
        if (!reader.GetU32(&ncols)) {
          return Status::Internal("malformed RESULT_HEADER frame");
        }
        result->columns.resize(ncols);
        for (uint32_t i = 0; i < ncols; ++i) {
          if (!reader.GetString(&result->columns[i])) {
            return Status::Internal("malformed RESULT_HEADER frame");
          }
        }
        break;
      }
      case FrameType::kRowBatch: {
        PayloadReader reader(frame.payload);
        uint32_t nrows = 0;
        uint32_t width = 0;
        if (!reader.GetU32(&nrows) || !reader.GetU32(&width)) {
          return Status::Internal("malformed ROW_BATCH frame");
        }
        for (uint32_t r = 0; r < nrows; ++r) {
          std::vector<uint64_t> row(width);
          for (uint32_t c = 0; c < width; ++c) {
            if (!reader.GetU64(&row[c])) {
              return Status::Internal("malformed ROW_BATCH frame");
            }
          }
          result->rows.push_back(std::move(row));
        }
        break;
      }
      case FrameType::kText: {
        PayloadReader reader(frame.payload);
        if (!reader.GetString(&result->explain_text)) {
          return Status::Internal("malformed TEXT frame");
        }
        break;
      }
      case FrameType::kResultDone: {
        PayloadReader reader(frame.payload);
        if (!reader.GetU64(&result->total_rows) ||
            !reader.GetCounters(&result->counters) || !reader.AtEnd()) {
          return Status::Internal("malformed RESULT_DONE frame");
        }
        result->ok = true;
        return Status::Ok();
      }
      case FrameType::kError: {
        if (!ParseError(frame.payload, &result->error_message,
                        &result->error_line, &result->error_column)) {
          return Status::Internal("malformed ERROR frame from server");
        }
        return Status::Ok();
      }
      default:
        return Status::Internal("unexpected frame type in result stream");
    }
  }
}

}  // namespace ovc::server
