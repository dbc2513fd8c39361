// Checkpoint record framing: versioned, CRC-checksummed byte envelopes.
//
// A checkpoint record is an opaque payload (the typed sweep state encoded
// by ckpt/codec.h) wrapped in a fixed frame:
//
//   magic  u32   "SRK1" — a smartred checkpoint record
//   version u32  kFormatVersion; readers reject any other value
//   fingerprint u64  hash of the run configuration the record belongs to
//   payload_len u64
//   payload  bytes
//   crc  u32   CRC-32C of everything above
//
// The frame is what makes recovery *refuse cleanly* instead of
// mis-resuming. frame_intact checks the size and the CRC before any field
// is read, so a torn or bit-flipped file is rejected as damaged and the
// store falls back to an older epoch. An intact record written by another
// format fails the version check, and one from a different run
// configuration fails the fingerprint comparison in the typed layer; both
// are refused. Neither check throws on hostile input: each returns a
// verdict with a one-line reason.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace smartred::ckpt {

/// Thrown for unrecoverable checkpoint problems: a record that matches no
/// known layout, a configuration mismatch on resume, or a failed save.
/// (A torn or corrupt epoch file is not one: the store skips it for an
/// older epoch and never throws.)
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// "SRK1" little-endian.
inline constexpr std::uint32_t kRecordMagic = 0x314B5253u;
/// Bumped on any layout change; readers reject records from other versions
/// rather than guessing at their contents.
inline constexpr std::uint32_t kFormatVersion = 2;

/// Wraps `payload` in the framed envelope described above.
[[nodiscard]] std::vector<std::uint8_t> frame_record(
    std::uint64_t fingerprint, const std::vector<std::uint8_t>& payload);

/// A successfully unframed record.
struct FramedRecord {
  std::uint64_t fingerprint = 0;
  std::vector<std::uint8_t> payload;
};

/// Whether `bytes` are an undamaged frame: at least the frame's size, with
/// a trailing CRC-32C that matches everything before it. Reads no field,
/// so it says nothing about magic, version or fingerprint. On false, `why`
/// (when non-null) gets a one-line reason.
[[nodiscard]] bool frame_intact(const std::vector<std::uint8_t>& bytes,
                                std::string* why = nullptr);

/// Validates and strips the frame. Returns nullopt (and, when `why` is
/// non-null, a one-line reason) when the frame is not intact, or on bad
/// magic, version skew or a payload length that disagrees with the size.
/// Never throws on malformed input.
[[nodiscard]] std::optional<FramedRecord> parse_record(
    const std::vector<std::uint8_t>& bytes, std::string* why = nullptr);

}  // namespace smartred::ckpt
