#include "server/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace ovc::server {

namespace {

/// Reads exactly `len` bytes. `*clean_eof` is set when zero bytes arrive
/// before anything else was read (the peer hung up between frames).
Status RecvAll(int fd, char* data, size_t len, bool* clean_eof) {
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (clean_eof != nullptr && got == 0) {
        *clean_eof = true;
        return Status::Ok();
      }
      return Status::IoError("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void PutU32At(char* out, uint32_t v) {
  out[0] = static_cast<char>(v & 0xff);
  out[1] = static_cast<char>((v >> 8) & 0xff);
  out[2] = static_cast<char>((v >> 16) & 0xff);
  out[3] = static_cast<char>((v >> 24) & 0xff);
}

uint32_t GetU32At(const char* in) {
  return static_cast<uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

}  // namespace

Status SendAll(int fd, std::string_view data, const SendCounters& counters) {
  const char* p = data.data();
  size_t len = data.size();
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (counters.sends != nullptr) counters.sends->Increment();
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    if (counters.bytes != nullptr) counters.bytes->Add(n);
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status ReadFrame(int fd, Frame* out) {
  char header[kFrameHeaderBytes];
  bool clean_eof = false;
  OVC_RETURN_IF_ERROR(RecvAll(fd, header, kFrameHeaderBytes, &clean_eof));
  if (clean_eof) return Status::NotFound("end of stream");
  const uint32_t len = GetU32At(header);
  if (len > kMaxFrameBytes) {
    return Status::ResourceExhausted("frame payload of " + std::to_string(len) +
                                     " bytes exceeds the " +
                                     std::to_string(kMaxFrameBytes) +
                                     "-byte frame limit");
  }
  out->type = static_cast<FrameType>(static_cast<unsigned char>(header[4]));
  out->payload.resize(len);
  if (len > 0) {
    OVC_RETURN_IF_ERROR(RecvAll(fd, out->payload.data(), len, nullptr));
  }
  return Status::Ok();
}

void FrameWriter::BeginFrame(FrameType type) {
  frame_start_ = buf_.size();
  buf_.append(kFrameHeaderBytes - 1, '\0');  // length, patched at the end
  buf_.push_back(static_cast<char>(type));
}

void FrameWriter::PutU32(uint32_t v) {
  char tmp[4];
  PutU32At(tmp, v);
  buf_.append(tmp, sizeof(tmp));
}

void FrameWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v & 0xffffffffu));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void FrameWriter::PutU64s(const uint64_t* values, size_t n) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // In-memory layout already is the wire layout.
  buf_.append(reinterpret_cast<const char*>(values), n * sizeof(uint64_t));
#else
  for (size_t i = 0; i < n; ++i) PutU64(values[i]);
#endif
}

void FrameWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void FrameWriter::PutCounters(const QueryCounters& c) {
  QueryCounters::ForEachField(
      [&](const char*, uint64_t QueryCounters::*m) { PutU64(c.*m); });
}

void FrameWriter::PatchLength() {
  const size_t payload = buf_.size() - frame_start_ - kFrameHeaderBytes;
  PutU32At(&buf_[frame_start_], static_cast<uint32_t>(payload));
}

Status FrameWriter::EndFrame() {
  PatchLength();
  return buf_.size() >= kFlushBytes ? Flush() : Status::Ok();
}

Status FrameWriter::EndResponse() {
  PatchLength();
  return Flush();
}

Status FrameWriter::Flush() {
  const Status status = SendAll(fd_, buf_, counters_);
  buf_.clear();  // keeps the capacity for the next response
  return status;
}

bool PayloadReader::Take(void* out, size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(out, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool PayloadReader::GetU32(uint32_t* v) {
  char tmp[4];
  if (!Take(tmp, sizeof(tmp))) return false;
  *v = GetU32At(tmp);
  return true;
}

bool PayloadReader::GetU64(uint64_t* v) {
  uint32_t lo = 0;
  uint32_t hi = 0;
  if (!GetU32(&lo) || !GetU32(&hi)) return false;
  *v = static_cast<uint64_t>(hi) << 32 | lo;
  return true;
}

bool PayloadReader::GetU8(uint8_t* v) { return Take(v, 1); }

bool PayloadReader::GetString(std::string* s) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  if (data_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool PayloadReader::GetCounters(QueryCounters* c) {
  bool ok = true;
  QueryCounters::ForEachField([&](const char*, uint64_t QueryCounters::*m) {
    ok = ok && GetU64(&(c->*m));
  });
  return ok;
}

}  // namespace ovc::server
