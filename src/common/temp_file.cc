#include "common/temp_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ovc {

namespace fs = std::filesystem;

namespace {

/// Bounded retry for transient temp-file I/O: spills race other processes
/// for file descriptors and can be interrupted, so EINTR/EAGAIN (and
/// injected failpoint failures, which model exactly those) get a few
/// exponentially backed-off attempts before the error is reported.
constexpr int kMaxIoRetries = 3;

void BackoffBeforeRetry(int attempt) {
  // The span makes retry stalls visible in traces: a pipeline that looks
  // idle is often sitting in exactly this backoff.
  OVC_TRACE_SPAN("tempfile.retry");
  OVC_METRIC_COUNTER("tempfile.retries",
                     "Transient temp-file I/O failures retried with backoff")
      .Increment();
  std::this_thread::sleep_for(std::chrono::microseconds(100) * (1 << attempt));
}

bool TransientErrno(int err) { return err == EINTR || err == EAGAIN; }

}  // namespace

TempFileManager::TempFileManager(const std::string& base_dir) {
  fs::path base =
      base_dir.empty() ? fs::temp_directory_path() : fs::path(base_dir);
  // std::filesystem has no mkdtemp equivalent; pid + per-process counter is
  // unique enough for a scratch directory.
  static std::atomic<uint64_t> instance_counter{0};
  uint64_t id = instance_counter.fetch_add(1);
  fs::path dir = base / ("ovc-scratch-" + std::to_string(::getpid()) + "-" +
                         std::to_string(id));
  std::error_code ec;
  fs::create_directories(dir, ec);
  OVC_CHECK(!ec);
  dir_ = dir.string();
}

TempFileManager::TempFileManager(TempFileManager* parent) {
  OVC_CHECK(parent != nullptr);
  // Sub-directory ids come off the parent's path counter: NewPath ids and
  // sub-manager ids share the sequence, which keeps both unique within the
  // parent without a second counter.
  fs::path dir = fs::path(parent->dir()) /
                 ("sub-" + std::to_string(parent->next_id_.fetch_add(
                               1, std::memory_order_relaxed)));
  std::error_code ec;
  fs::create_directories(dir, ec);
  OVC_CHECK(!ec);
  dir_ = dir.string();
}

TempFileManager::~TempFileManager() {
  std::error_code ec;
  fs::remove_all(dir_, ec);
  // Best effort; nothing to do on failure in a destructor.
}

std::string TempFileManager::NewPath(const std::string& tag) {
  return dir_ + "/" + tag + "-" +
         std::to_string(next_id_.fetch_add(1, std::memory_order_relaxed));
}

void TempFileManager::RecordError(const Status& status) {
  if (status.ok()) return;
  MutexLock lock(error_mu_);
  if (first_error_.ok()) first_error_ = status;
}

Status TempFileManager::first_error() const {
  MutexLock lock(error_mu_);
  return first_error_;
}

void TempFileManager::ClearError() {
  MutexLock lock(error_mu_);
  first_error_ = Status::Ok();
}

FileWriter::~FileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileWriter::Open(const std::string& path) {
  OVC_CHECK(fd_ < 0);
  for (int attempt = 0;; ++attempt) {
    bool injected = OVC_FAILPOINT("tempfile.open");
    int fd = injected ? -1
                      : ::open(path.c_str(),
                               O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
    if (fd >= 0) {
      fd_ = fd;
      buf_.reset(new char[kBlockBytes]);
      used_ = 0;
      flushed_ = 0;
      path_ = path;
      OVC_METRIC_COUNTER("tempfile.files",
                         "Temporary files opened for writing")
          .Increment();
      return Status::Ok();
    }
    const bool transient = injected || TransientErrno(errno);
    if (!transient || attempt >= kMaxIoRetries) {
      return Status::IoError("open for write failed: " + path + ": " +
                             (injected ? "injected failure"
                                       : std::strerror(errno)));
    }
    ++retries_;
    BackoffBeforeRetry(attempt);
  }
}

Status FileWriter::WriteAcrossBlocks(const char* data, size_t len) {
  OVC_DCHECK(fd_ >= 0);
  while (len > kBlockBytes - used_) {
    const size_t part = kBlockBytes - used_;
    std::memcpy(buf_.get() + used_, data, part);
    used_ = kBlockBytes;
    data += part;
    len -= part;
    OVC_RETURN_IF_ERROR(Flush());
  }
  return Write(data, len);
}

Status FileWriter::Flush() {
  size_t done = 0;
  for (int attempt = 0; done < used_;) {
    bool injected = OVC_FAILPOINT("tempfile.write");
    const ssize_t wrote =
        injected ? -1 : ::write(fd_, buf_.get() + done, used_ - done);
    if (wrote > 0) {
      // A partial write resumes where it stopped: nothing is written twice.
      done += static_cast<size_t>(wrote);
      continue;
    }
    const int err = wrote < 0 ? errno : 0;
    const bool transient = injected || TransientErrno(err);
    if (!transient || attempt >= kMaxIoRetries) {
      return Status::IoError(
          "write failed: " + path_ + ": " +
          (injected ? "injected failure"
                    : err != 0 ? std::strerror(err) : "no progress"));
    }
    ++retries_;
    BackoffBeforeRetry(attempt++);
  }
  flushed_ += used_;
  used_ = 0;
  return Status::Ok();
}

Status FileWriter::Close() {
  if (fd_ < 0) {
    return Status::Ok();
  }
  Status flushed = Flush();
  const int rc = ::close(fd_);
  fd_ = -1;
  buf_.reset();
  used_ = 0;
  OVC_RETURN_IF_ERROR(flushed);
  if (rc != 0) {
    return Status::IoError("close failed: " + path_);
  }
  return Status::Ok();
}

FileReader::~FileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileReader::Open(const std::string& path) {
  OVC_CHECK(fd_ < 0);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("open for read failed: " + path + ": " +
                           std::strerror(errno));
  }
  fd_ = fd;
  buf_.reset(new char[kBlockBytes]);
  pos_ = end_ = 0;
  path_ = path;
  return Status::Ok();
}

Status FileReader::ReadAcrossBlocks(char* data, size_t len) {
  OVC_DCHECK(fd_ >= 0);
  while (len > end_ - pos_) {
    const size_t part = end_ - pos_;
    std::memcpy(data, buf_.get() + pos_, part);
    pos_ = end_;
    data += part;
    len -= part;
    OVC_RETURN_IF_ERROR(Refill());
    if (end_ == 0) {
      return Status::IoError("short read: " + path_);
    }
  }
  return Read(data, len);
}

Status FileReader::Refill() {
  OVC_DCHECK(pos_ == end_);
  ssize_t got;
  do {
    got = ::read(fd_, buf_.get(), kBlockBytes);
  } while (got < 0 && errno == EINTR);
  pos_ = end_ = 0;
  if (got < 0) {
    return Status::IoError("read failed: " + path_ + ": " +
                           std::strerror(errno));
  }
  end_ = static_cast<size_t>(got);
  return Status::Ok();
}

bool FileReader::AtEofAfterRefill() {
  OVC_DCHECK(fd_ >= 0);
  return Refill().ok() && end_ == 0;
}

Status FileReader::Close() {
  if (fd_ < 0) {
    return Status::Ok();
  }
  const int rc = ::close(fd_);
  fd_ = -1;
  buf_.reset();
  pos_ = end_ = 0;
  if (rc != 0) {
    return Status::IoError("close failed: " + path_);
  }
  return Status::Ok();
}

}  // namespace ovc
