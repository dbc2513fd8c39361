#include "ckpt/record.h"

#include "common/binio.h"
#include "common/checksum.h"

namespace smartred::ckpt {

std::vector<std::uint8_t> frame_record(
    std::uint64_t fingerprint, const std::vector<std::uint8_t>& payload) {
  common::ByteWriter writer;
  writer.u32(kRecordMagic);
  writer.u32(kFormatVersion);
  writer.u64(fingerprint);
  writer.u64(payload.size());
  writer.bytes(payload.data(), payload.size());
  const std::uint32_t crc = common::crc32c(writer.data().data(),
                                           writer.data().size());
  writer.u32(crc);
  return writer.take();
}

bool frame_intact(const std::vector<std::uint8_t>& bytes, std::string* why) {
  const auto reject = [why](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  // magic + version + fingerprint + payload_len + crc
  constexpr std::size_t kFrameOverhead = 4 + 4 + 8 + 8 + 4;
  if (bytes.size() < kFrameOverhead) {
    return reject("record truncated: " + std::to_string(bytes.size()) +
                  " bytes is shorter than the frame");
  }
  const std::uint32_t expected =
      common::crc32c(bytes.data(), bytes.size() - 4);
  common::ByteReader crc_reader(bytes.data() + bytes.size() - 4, 4);
  if (crc_reader.u32() != expected) {
    return reject("CRC mismatch: record is torn or corrupt");
  }
  return true;
}

std::optional<FramedRecord> parse_record(
    const std::vector<std::uint8_t>& bytes, std::string* why) {
  const auto reject = [why](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return std::nullopt;
  };
  if (!frame_intact(bytes, why)) return std::nullopt;
  common::ByteReader reader(bytes.data(), bytes.size() - 4);
  const std::uint32_t magic = reader.u32();
  if (magic != kRecordMagic) {
    return reject("bad magic: not a checkpoint record");
  }
  const std::uint32_t version = reader.u32();
  if (version != kFormatVersion) {
    return reject("version skew: record format v" + std::to_string(version) +
                  ", reader understands v" + std::to_string(kFormatVersion));
  }
  const std::uint64_t fingerprint = reader.u64();
  const std::uint64_t payload_len = reader.u64();
  if (payload_len != reader.remaining()) {
    return reject("payload length mismatch: payload claims " +
                  std::to_string(payload_len) + " bytes, " +
                  std::to_string(reader.remaining()) + " present");
  }
  FramedRecord record;
  record.fingerprint = fingerprint;
  record.payload.assign(bytes.end() - 4 -
                            static_cast<std::ptrdiff_t>(payload_len),
                        bytes.end() - 4);
  return record;
}

}  // namespace smartred::ckpt
