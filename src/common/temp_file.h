// Temporary-file management for spill runs.
//
// External sort, hash aggregation, and hash join spill intermediate data to
// "temporary storage" (paper, Section 6). This layer creates real files
// under a per-process scratch directory and deletes them when released.

#ifndef OVC_COMMON_TEMP_FILE_H_
#define OVC_COMMON_TEMP_FILE_H_

#include <atomic>
#include <cstdint>
#include <string>

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

/// Buffered sequential writer over a temporary file.
class FileWriter {
 public:
  FileWriter() = default;
  ~FileWriter();
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;

  /// Opens `path` for writing, truncating any existing file. Transient
  /// failures (EINTR/EAGAIN, or the "tempfile.open" failpoint) are retried
  /// with exponential backoff before reporting kIoError.
  Status Open(const std::string& path);
  /// Appends `len` bytes. Transient failures (and the "tempfile.write"
  /// failpoint) are retried like Open.
  Status Write(const void* data, size_t len);
  /// Appends a little-endian 64-bit value.
  Status WriteU64(uint64_t v) { return Write(&v, sizeof(v)); }
  /// Appends a little-endian 32-bit value.
  Status WriteU32(uint32_t v) { return Write(&v, sizeof(v)); }
  /// Flushes and closes; returns the first error encountered.
  Status Close();

  /// Bytes written so far.
  uint64_t bytes_written() const { return bytes_written_; }
  /// Transient failures recovered by retrying (callers fold this into
  /// QueryCounters::io_retries).
  uint64_t retries() const { return retries_; }

 private:
  void* file_ = nullptr;  // FILE*
  uint64_t bytes_written_ = 0;
  uint64_t retries_ = 0;
  std::string path_;
};

/// Buffered sequential reader over a temporary file.
class FileReader {
 public:
  FileReader() = default;
  ~FileReader();
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  /// Opens `path` for reading.
  Status Open(const std::string& path);
  /// Reads exactly `len` bytes; kIoError on short read.
  Status Read(void* data, size_t len);
  /// Reads a little-endian 64-bit value.
  Status ReadU64(uint64_t* v) { return Read(v, sizeof(*v)); }
  /// Reads a little-endian 32-bit value.
  Status ReadU32(uint32_t* v) { return Read(v, sizeof(*v)); }
  /// True once the reader has consumed the whole file.
  bool AtEof();
  /// Closes the file.
  Status Close();

 private:
  void* file_ = nullptr;  // FILE*
  std::string path_;
};

}  // namespace ovc

#endif  // OVC_COMMON_TEMP_FILE_H_
