// CRC-32C (Castagnoli) checksums for durable on-disk records.
//
// Every framed checkpoint record carries a CRC so that truncation, bit
// rot, or a torn write is detected before any byte of it is trusted.
// CRC-32C is the iSCSI/ext4 polynomial — better error-detection properties
// than the zip CRC at identical cost; a plain table-driven implementation
// is used (checksumming is never on the simulation hot path, only around
// file I/O).
#pragma once

#include <cstddef>
#include <cstdint>

namespace smartred::common {

/// CRC-32C of `size` bytes starting at `data`, continuing from `crc`
/// (pass the previous return value to checksum a record in pieces; the
/// result of checksumming the concatenation is identical).
[[nodiscard]] std::uint32_t crc32c(const void* data, std::size_t size,
                                   std::uint32_t crc = 0);

}  // namespace smartred::common
