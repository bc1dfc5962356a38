#include "sort/run_file.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace ovc {

namespace {

/// The error for a row whose prefix offset exceeds the key arity.
Status CorruptOffset(uint16_t offset, uint32_t arity) {
  return Status::IoError("corrupt run file: prefix offset " +
                         std::to_string(offset) + " exceeds key arity " +
                         std::to_string(arity));
}

}  // namespace

Status RunFileWriter::Open(const std::string& path) {
  return file_.Open(path);
}

Status RunFileWriter::Append(const uint64_t* row, Ovc code) {
  OVC_DCHECK(OvcCodec::IsValid(code));
  const uint32_t total = schema_->total_columns();
  const uint16_t offset = static_cast<uint16_t>(codec_.OffsetOf(code));
  OVC_DCHECK(offset <= schema_->key_arity());
  // Key columns past the shared prefix, then all payload columns: one
  // contiguous suffix of the row.
  const size_t suffix_bytes = (total - offset) * sizeof(uint64_t);
  const size_t row_bytes = sizeof(offset) + suffix_bytes;
  if (char* out = file_.Reserve(row_bytes)) {
    std::memcpy(out, &offset, sizeof(offset));
    std::memcpy(out + sizeof(offset), row + offset, suffix_bytes);
  } else {
    // The row straddles a block boundary.
    OVC_RETURN_IF_ERROR(file_.Write(&offset, sizeof(offset)));
    OVC_RETURN_IF_ERROR(file_.Write(row + offset, suffix_bytes));
  }
  ++rows_;
  if (counters_ != nullptr) {
    ++counters_->rows_spilled;
    counters_->bytes_spilled += row_bytes;
  }
  return Status::Ok();
}

Status RunFileWriter::Close() {
  Status st = file_.Close();
  // Fold transient-I/O recoveries into the session counters once per file
  // (retries() is cumulative over the writer's life), after the close's
  // final flush, which can retry too.
  if (counters_ != nullptr) {
    counters_->io_retries += file_.retries() - retries_folded_;
    retries_folded_ = file_.retries();
  }
  return st;
}

Status RunFileReader::Open(const std::string& path) {
  OVC_RETURN_IF_ERROR(file_.Open(path));
  open_ = true;
  return Status::Ok();
}

bool RunFileReader::Next(const uint64_t** row, Ovc* code) {
  OVC_CHECK(open_);
  if (failed_) {
    return false;
  }
  const uint32_t arity = schema_->key_arity();
  const uint32_t total = schema_->total_columns();
  uint16_t offset = 0;
  // The shared prefix is already in row_ from the previous row.
  if (const char* in = file_.Peek(sizeof(offset) + total * sizeof(uint64_t))) {
    // Fast path: the block holds a whole row of the widest shape.
    std::memcpy(&offset, in, sizeof(offset));
    if (offset > arity) return Fail(CorruptOffset(offset, arity));
    const size_t suffix_bytes = (total - offset) * sizeof(uint64_t);
    std::memcpy(row_.data() + offset, in + sizeof(offset), suffix_bytes);
    file_.Skip(sizeof(offset) + suffix_bytes);
  } else {
    // Near a block boundary or the end of the file.
    if (file_.AtEof()) return false;
    Status st = file_.Read(&offset, sizeof(offset));
    if (st.ok() && offset > arity) st = CorruptOffset(offset, arity);
    if (st.ok()) {
      st = file_.Read(row_.data() + offset,
                      (total - offset) * sizeof(uint64_t));
    }
    if (!st.ok()) return Fail(st);
  }
  *row = row_.data();
  *code = codec_.MakeFromRow(row_.data(), offset);
  return true;
}

bool RunFileReader::Fail(const Status& status) {
  failed_ = true;
  if (error_sink_ != nullptr) {
    // Degrade contract: first error lands in the manager's slot, the
    // stream ends, and the executor surfaces the error after the run.
    error_sink_->RecordError(status);
    return false;
  }
  // No sink (storage scans owning their files): a torn run file is not
  // recoverable and truncating it silently would corrupt query results.
  std::fprintf(stderr, "RunFileReader: unrecoverable run-file error: %s\n",
               status.ToString().c_str());
  std::abort();
}

}  // namespace ovc
