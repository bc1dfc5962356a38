// Temporary-file management for spill runs.
//
// External sort, hash aggregation, and hash join spill intermediate data to
// "temporary storage" (paper, Section 6). This layer creates real files
// under a per-process scratch directory and deletes them when released.

#ifndef OVC_COMMON_TEMP_FILE_H_
#define OVC_COMMON_TEMP_FILE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace ovc {

/// Hands out unique temporary file paths under a scratch directory and
/// removes the directory on destruction. One instance is typically shared
/// per query (or per test).
///
/// Serving processes nest managers: the server owns one *root* manager
/// (one scratch tree for the whole process) and every session gets its own
/// *sub-manager* inside it. The first-error slot below is per-manager
/// state, so sub-managers are what keeps error reporting per-query: a
/// single process-wide manager shared by concurrent executors would let
/// query A's spill failure fail query B (RecordError lands in the shared
/// slot) and query B's pre-run ClearError wipe query A's pending error.
/// tests/server_test.cc pins this isolation.
class TempFileManager {
 public:
  /// Creates a fresh scratch directory under the system temp dir (or under
  /// `base_dir` if non-empty). Aborts if the directory cannot be created.
  explicit TempFileManager(const std::string& base_dir = "");

  /// Creates a sub-manager: a scratch directory nested inside `parent`'s,
  /// with its own path counter and its own first-error slot. The parent
  /// must outlive the sub-manager (the server's root manager outlives
  /// every connection). Cheap: one mkdir, no temp-dir probing.
  explicit TempFileManager(TempFileManager* parent);

  /// Removes the scratch directory and everything in it.
  ~TempFileManager();

  TempFileManager(const TempFileManager&) = delete;
  TempFileManager& operator=(const TempFileManager&) = delete;

  /// Returns a unique path (the file is not created). `tag` is embedded in
  /// the name for debuggability, e.g. "run", "hash-partition". Thread-safe:
  /// parallel worker pipelines spill through one shared manager.
  std::string NewPath(const std::string& tag);

  /// The scratch directory this manager owns.
  const std::string& dir() const { return dir_; }

  /// Deferred-error slot: spill paths deep inside operators (where
  /// NextBatch() cannot return a Status) record their first non-retryable
  /// I/O error here and degrade to producing no further output; the plan
  /// executor checks the slot after the run and surfaces the error to the
  /// session (a clean SqlError instead of an abort). Keeps only the first
  /// error.
  /// Thread-safe: parallel worker pipelines share one manager.
  void RecordError(const Status& status) OVC_EXCLUDES(error_mu_);
  /// The first recorded error since the last ClearError (Ok when none).
  Status first_error() const OVC_EXCLUDES(error_mu_);
  /// Resets the slot (the executor clears it before each run).
  void ClearError() OVC_EXCLUDES(error_mu_);

 private:
  std::string dir_;
  std::atomic<uint64_t> next_id_{0};
  mutable Mutex error_mu_;
  Status first_error_ OVC_GUARDED_BY(error_mu_) = Status::Ok();
};

/// The temporary files of one spilling operator: paths from a
/// TempFileManager that the operator removes as soon as it is done with
/// them -- one file once it has been read back, all of them on failure and
/// on destruction -- instead of leaving them until the manager's directory
/// goes away with the session. One operator's state; not thread-safe.
class TempFileSet {
 public:
  /// `temp` must outlive every NewPath call.
  explicit TempFileSet(TempFileManager* temp) : temp_(temp) {}
  ~TempFileSet() { RemoveAll(); }

  TempFileSet(const TempFileSet&) = delete;
  TempFileSet& operator=(const TempFileSet&) = delete;

  /// A fresh path from the manager (see TempFileManager::NewPath), removed
  /// with the set.
  std::string NewPath(const std::string& tag);
  /// Removes one file of the set.
  void Remove(const std::string& path);
  /// Removes every file of the set.
  void RemoveAll();

 private:
  TempFileManager* temp_;
  std::vector<std::string> paths_;
};

/// Bytes of the one buffer each open FileWriter/FileReader owns. Rows are
/// copied into and out of it inline; only whole blocks cross into the
/// kernel (one write(2) per flush, one read(2) per refill). A constant, not
/// a knob: an open run file costs this much memory, so a full-fan-in merge
/// (128 readers) holds 8 MiB and a 16-partition grace join (32 writers)
/// holds 2 MiB. The buffer is allocated by Open and released by Close.
inline constexpr size_t kBlockBytes = 64 * 1024;

/// Block-buffered sequential writer over a temporary file.
class FileWriter {
 public:
  FileWriter() = default;
  /// Closes the descriptor without flushing: a writer destroyed before
  /// Close is an abandoned spill whose file nobody reads.
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  /// Opens `path` for writing, truncating any existing file. Transient
  /// failures (EINTR/EAGAIN, or the "tempfile.open" failpoint) are retried
  /// with exponential backoff before reporting kIoError.
  Status Open(const std::string& path);
  /// Appends `len` bytes: a copy into the block, and a flush each time the
  /// block fills. Flushes retry transient failures (and the
  /// "tempfile.write" failpoint) like Open.
  Status Write(const void* data, size_t len) {
    OVC_DCHECK(fd_ >= 0);
    if (len <= kBlockBytes - used_) {
      std::memcpy(buf_.get() + used_, data, len);
      used_ += len;
      return Status::Ok();
    }
    return WriteAcrossBlocks(static_cast<const char*>(data), len);
  }
  /// Appends a little-endian 64-bit value.
  Status WriteU64(uint64_t v) { return Write(&v, sizeof(v)); }
  /// Appends a little-endian 32-bit value.
  Status WriteU32(uint32_t v) { return Write(&v, sizeof(v)); }
  /// Fast path for callers that assemble a record in place: the next `len`
  /// bytes of the block, counted as written (the caller must fill them),
  /// or nullptr when the block lacks room -- then append with Write.
  char* Reserve(size_t len) {
    OVC_DCHECK(fd_ >= 0);
    if (len > kBlockBytes - used_) return nullptr;
    char* out = buf_.get() + used_;
    used_ += len;
    return out;
  }
  /// Flushes the last block and closes; returns the first error.
  Status Close();

  /// Bytes written so far.
  uint64_t bytes_written() const { return flushed_ + used_; }
  /// Transient failures recovered by retrying (callers fold this into
  /// QueryCounters::io_retries after Close, whose final flush can retry).
  uint64_t retries() const { return retries_; }

 private:
  /// Write's slow path: fills and flushes blocks until `len` bytes fit.
  Status WriteAcrossBlocks(const char* data, size_t len);
  /// Writes the block's `used_` bytes to the file and empties it. A
  /// partial write resumes at the byte where it stopped.
  Status Flush();

  int fd_ = -1;
  std::unique_ptr<char[]> buf_;
  size_t used_ = 0;       // bytes buffered in buf_
  uint64_t flushed_ = 0;  // bytes already written to the file
  uint64_t retries_ = 0;
  std::string path_;
};

/// Block-buffered sequential reader over a temporary file.
class FileReader {
 public:
  FileReader() = default;
  ~FileReader();
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  /// Opens `path` for reading.
  Status Open(const std::string& path);
  /// Reads exactly `len` bytes; kIoError on short read.
  Status Read(void* data, size_t len) {
    if (len <= end_ - pos_) {
      std::memcpy(data, buf_.get() + pos_, len);
      pos_ += len;
      return Status::Ok();
    }
    return ReadAcrossBlocks(static_cast<char*>(data), len);
  }
  /// Reads a little-endian 64-bit value.
  Status ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  /// Reads a little-endian 32-bit value.
  Status ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  /// Fast path for callers that decode a record in place: the next `len`
  /// buffered bytes, or nullptr when fewer are buffered -- then read with
  /// Read, which refills. Consumes nothing; follow with Skip.
  const char* Peek(size_t len) const {
    return len <= end_ - pos_ ? buf_.get() + pos_ : nullptr;
  }
  /// Consumes `len` bytes returned by Peek.
  void Skip(size_t len) {
    OVC_DCHECK(len <= end_ - pos_);
    pos_ += len;
  }
  /// True once the reader has consumed the whole file. Refills the block
  /// when it is drained; a failed refill answers false, so the next Read
  /// reports the error instead of the stream ending silently.
  bool AtEof() { return pos_ == end_ && AtEofAfterRefill(); }
  /// Closes the file.
  Status Close();

 private:
  /// Read's slow path: drains the block and refills it until `len` bytes
  /// are copied; kIoError when the file ends first.
  Status ReadAcrossBlocks(char* data, size_t len);
  /// Replaces the (drained) block with the file's next bytes; at end of
  /// file the block stays empty.
  Status Refill();
  bool AtEofAfterRefill();

  int fd_ = -1;
  std::unique_ptr<char[]> buf_;
  size_t pos_ = 0;  // next unread byte in buf_
  size_t end_ = 0;  // bytes valid in buf_
  std::string path_;
};

}  // namespace ovc

#endif  // OVC_COMMON_TEMP_FILE_H_
