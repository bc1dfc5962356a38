// Offset-value coding (OVC).
//
// An offset-value code describes one row's sort key *relative to a base key
// that sorts earlier*: the offset is the length (in columns) of the maximal
// shared prefix, and the value is the row's column value at that offset.
// Conner 1977; Table 1 of Graefe & Do, EDBT 2023.
//
// Ascending coding packs (arity - offset, value) so that, among codes
// relative to the same base, a smaller code means "sorts earlier". This is
// the engine-wide primary coding. Descending coding (offset, domain - value),
// where a *larger* code means earlier, is provided for completeness and is
// exercised by tests and the Table 1 benchmark.
//
// 64-bit code word layout (ascending), following Section 5 of the paper
// ("invalid key values ... are also folded into this integer"):
//
//   bits 63..62   kind: 00 early fence (-inf), 01 valid, 11 late fence (+inf)
//   bits 61..48   arity - offset (14 bits; arity <= 16383)
//   bits 47..0    value: monotone saturating image of the normalized column
//                 value at the offset
//
// A single unsigned integer comparison therefore orders early fences before
// all valid codes before all late fences -- the comparison of offset-value
// codes is folded into the validity test, making it "practically free".
// A late fence's low 62 bits may carry a tournament slot (LateFence(slot)),
// so that no two slots' fences tie; the validity test reads only the kind
// bits.
//
// The 48-bit value field stores min(v, 2^48 - 1) of the *normalized* column
// value. This saturating map is monotone, which is all the OVC algebra
// needs: codes that differ still decide comparisons correctly, and equal
// codes mean "continue with column comparisons at the offset" (at offset + 1
// when the stored value is below the saturation point, because then equal
// images imply equal column values).

#ifndef OVC_CORE_OVC_H_
#define OVC_CORE_OVC_H_

#include <cstdint>
#include <string>

#include "common/ovc_word.h"
#include "row/schema.h"

namespace ovc {

/// Encoder/decoder for ascending offset-value codes over a given schema.
class OvcCodec {
 public:
  static constexpr int kValueBits = 48;
  static constexpr int kOffsetBits = 14;
  static constexpr uint64_t kValueMask = (uint64_t{1} << kValueBits) - 1;
  /// Largest representable arity (14-bit offset field).
  static constexpr uint32_t kMaxArity = (1u << kOffsetBits) - 1;

  static constexpr uint64_t kKindValid = uint64_t{1} << 62;
  static constexpr uint64_t kKindLateFence = uint64_t{3} << 62;

  /// `schema` must outlive the codec.
  explicit OvcCodec(const Schema* schema) : schema_(schema) {
    OVC_CHECK(schema->key_arity() <= kMaxArity);
  }

  /// The sort-key arity codes are computed over.
  uint32_t arity() const { return schema_->key_arity(); }
  const Schema& schema() const { return *schema_; }

  /// Monotone saturating image of a normalized column value in the 48-bit
  /// value field.
  static uint64_t EncodeValue(uint64_t normalized) {
    return normalized < kValueMask ? normalized : kValueMask;
  }

  /// True when EncodeValue(normalized) is injective at this value, i.e. the
  /// stored image did not saturate.
  static bool EncodedLossless(uint64_t encoded) { return encoded < kValueMask; }

  /// Builds a valid code from an offset and a normalized column value.
  /// `offset == arity()` builds the duplicate code (value ignored, stored 0).
  Ovc Make(uint32_t offset, uint64_t normalized_value) const {
    OVC_DCHECK(offset <= arity());
    if (offset == arity()) return DuplicateCode();
    return kKindValid |
           (uint64_t{arity() - offset} << kValueBits) |
           EncodeValue(normalized_value);
  }

  /// Builds the code of `row` at `offset`, taking the (normalized) value
  /// from the row itself. `offset == arity()` yields the duplicate code.
  Ovc MakeFromRow(const uint64_t* row, uint32_t offset) const {
    if (offset == arity()) return DuplicateCode();
    return Make(offset, schema_->NormalizedAt(row, offset));
  }

  /// Code of a stream's first row: relative to the imaginary "minus
  /// infinity" base, with which it shares no prefix (offset 0).
  Ovc MakeInitial(const uint64_t* row) const { return MakeFromRow(row, 0); }

  /// Code of a row whose key equals its base's key: offset == arity.
  /// Numerically the smallest valid code (Table 1's "0").
  Ovc DuplicateCode() const { return kKindValid; }

  /// The early fence (-inf): smaller than every valid code.
  static constexpr Ovc EarlyFence() { return 0; }
  /// The late fence (+inf): larger than every valid code. A tournament
  /// gives each slot its own fence, ~0 - slot, so that two fences never
  /// tie and the codes alone decide every match between them.
  static constexpr Ovc LateFence(uint32_t slot = 0) {
    return ~uint64_t{0} - slot;
  }

  /// True for valid (non-fence) codes.
  static bool IsValid(Ovc code) { return (code >> 62) == 1; }

  /// Offset stored in a valid code.
  uint32_t OffsetOf(Ovc code) const {
    OVC_DCHECK(IsValid(code));
    return arity() -
           static_cast<uint32_t>((code >> kValueBits) & kMaxArity);
  }

  /// Value image stored in a valid code.
  static uint64_t ValueOf(Ovc code) {
    OVC_DCHECK(IsValid(code));
    return code & kValueMask;
  }

  /// True when `code` marks its row as a full-key duplicate of its base
  /// (offset == arity). Drives duplicate removal (Section 4.4) and the
  /// merge-bypass fast path (Section 5).
  bool IsDuplicate(Ovc code) const {
    return IsValid(code) && OffsetOf(code) == arity();
  }

  /// True when `code` marks a boundary between groups of rows that share the
  /// first `prefix` key columns: the row differs from its predecessor within
  /// that prefix. Drives segmentation (4.3), grouping (4.5), and one-to-many
  /// shuffle. Fences count as boundaries.
  bool IsBoundary(Ovc code, uint32_t prefix) const {
    OVC_DCHECK(prefix <= arity());
    if (!IsValid(code)) return true;
    return OffsetOf(code) < prefix;
  }

  /// Column index where column-value comparisons must resume when two codes
  /// relative to the same base compare equal (Iyer's equal-code theorem,
  /// adjusted for value saturation): past the shared prefix and value when
  /// the stored value is exact, at the offset itself when it saturated.
  uint32_t ResumeColumn(Ovc code) const {
    OVC_DCHECK(IsValid(code));
    const uint32_t offset = OffsetOf(code);
    if (offset == arity()) return offset;  // duplicate: nothing to compare
    return EncodedLossless(ValueOf(code)) ? offset + 1 : offset;
  }

  /// Re-bases a code for a stream restricted to the first `prefix` key
  /// columns: offsets larger than `prefix` clamp to the duplicate code of
  /// the shorter key. Used by projection (4.2) when only a key prefix
  /// survives, by segmentation (4.3), and by grouping (4.5).
  Ovc ClampToPrefix(Ovc code, uint32_t prefix, const OvcCodec& out) const {
    OVC_DCHECK(IsValid(code));
    OVC_DCHECK(prefix == out.arity());
    const uint32_t offset = OffsetOf(code);
    if (offset >= prefix) return out.DuplicateCode();
    return out.Make(offset, ValueOfRaw(code));
  }

  /// Human-readable form, e.g. "(off=1,val=8)", "dup", "-inf", "+inf".
  std::string ToString(Ovc code) const;

 private:
  static uint64_t ValueOfRaw(Ovc code) { return code & kValueMask; }

  const Schema* schema_;
};

/// Descending offset-value coding: packs (offset, complemented value) so
/// that a *larger* code sorts earlier. Provided for parity with the paper's
/// Table 1 and the min-combination form of the theorem; the engine's
/// operators use ascending coding throughout.
class DescendingOvcCodec {
 public:
  explicit DescendingOvcCodec(const Schema* schema) : schema_(schema) {
    OVC_CHECK(schema->key_arity() <= OvcCodec::kMaxArity);
  }

  uint32_t arity() const { return schema_->key_arity(); }

  /// Builds a descending code: higher offset or lower value => larger code.
  Ovc Make(uint32_t offset, uint64_t normalized_value) const {
    OVC_DCHECK(offset <= arity());
    if (offset == arity()) return DuplicateCode();
    return OvcCodec::kKindValid |
           (uint64_t{offset} << OvcCodec::kValueBits) |
           (OvcCodec::kValueMask - OvcCodec::EncodeValue(normalized_value));
  }

  /// Code of `row` at `offset` with the value taken from the row.
  Ovc MakeFromRow(const uint64_t* row, uint32_t offset) const {
    if (offset == arity()) return DuplicateCode();
    return Make(offset, schema_->NormalizedAt(row, offset));
  }

  /// First-row code (offset 0).
  Ovc MakeInitial(const uint64_t* row) const { return MakeFromRow(row, 0); }

  /// Duplicate code: offset == arity, the numerically *largest* valid
  /// descending code (Table 1's "400").
  Ovc DuplicateCode() const {
    return OvcCodec::kKindValid |
           (uint64_t{arity()} << OvcCodec::kValueBits) | OvcCodec::kValueMask;
  }

  uint32_t OffsetOf(Ovc code) const {
    OVC_DCHECK(OvcCodec::IsValid(code));
    return static_cast<uint32_t>((code >> OvcCodec::kValueBits) &
                                 OvcCodec::kMaxArity);
  }

  /// Value image stored in a valid code (complement undone).
  static uint64_t ValueOf(Ovc code) {
    return OvcCodec::kValueMask - (code & OvcCodec::kValueMask);
  }

 private:
  const Schema* schema_;
};

}  // namespace ovc

#endif  // OVC_CORE_OVC_H_
