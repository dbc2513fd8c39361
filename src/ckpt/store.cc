#include "ckpt/store.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "ckpt/record.h"
#include "common/binio.h"
#include "common/checksum.h"
#include "common/fileio.h"

namespace smartred::ckpt {

namespace {

namespace fs = std::filesystem;

/// "SRM1" little-endian: a smartred checkpoint epoch manifest.
constexpr std::uint32_t kManifestMagic = 0x314D5253u;
/// Upper bound on shards a manifest may claim — far above any real
/// configuration, low enough that a corrupt count cannot demand memory.
constexpr std::uint32_t kMaxShards = 4096;

/// Everything the manifest promises about one committed epoch.
struct Manifest {
  std::uint64_t epoch = 0;
  std::uint64_t record_len = 0;
  std::uint32_t record_crc = 0;
  std::uint64_t parity_len = 0;
  std::uint32_t parity_crc = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> shards;  // len, crc
};

// Names are built by appending: GCC 12 at -O3 raises a false
// -Werror=restrict on `"literal" + std::string` once it is inlined.
[[nodiscard]] std::string epoch_prefix(std::uint64_t epoch) {
  std::string prefix = "e";
  prefix += std::to_string(epoch);
  prefix += '.';
  return prefix;
}

[[nodiscard]] fs::path manifest_path(const fs::path& dir,
                                     std::uint64_t epoch) {
  return dir / (epoch_prefix(epoch) + "manifest");
}

[[nodiscard]] fs::path shard_path(const fs::path& dir, unsigned level,
                                  std::uint64_t epoch, std::uint32_t shard) {
  fs::path level_dir = "l";
  level_dir += std::to_string(level);
  return dir / level_dir / (epoch_prefix(epoch) + "s" + std::to_string(shard));
}

[[nodiscard]] fs::path parity_path(const fs::path& dir, std::uint64_t epoch) {
  return dir / "l2" / (epoch_prefix(epoch) + "parity");
}

/// Committed epochs of a point directory, newest first.
[[nodiscard]] std::vector<std::uint64_t> list_epochs(const fs::path& dir) {
  std::vector<std::uint64_t> epochs;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() < 3 || name.front() != 'e') continue;
    const auto dot = name.find('.');
    if (dot == std::string::npos || name.substr(dot) != ".manifest") continue;
    const std::string digits = name.substr(1, dot - 1);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    epochs.push_back(std::stoull(digits));
  }
  std::sort(epochs.rbegin(), epochs.rend());
  return epochs;
}

void note(std::string* diagnostics, const std::string& line) {
  if (diagnostics == nullptr) return;
  if (!diagnostics->empty()) *diagnostics += '\n';
  *diagnostics += line;
}

[[nodiscard]] std::vector<std::uint8_t> encode_manifest(
    const Manifest& manifest) {
  common::ByteWriter writer;
  writer.u32(kManifestMagic);
  writer.u32(kFormatVersion);
  writer.u64(manifest.epoch);
  writer.u32(static_cast<std::uint32_t>(manifest.shards.size()));
  writer.u64(manifest.record_len);
  writer.u32(manifest.record_crc);
  writer.u64(manifest.parity_len);
  writer.u32(manifest.parity_crc);
  for (const auto& [len, crc] : manifest.shards) {
    writer.u64(len);
    writer.u32(crc);
  }
  writer.u32(common::crc32c(writer.data().data(), writer.data().size()));
  return writer.take();
}

[[nodiscard]] std::optional<Manifest> decode_manifest(
    const std::vector<std::uint8_t>& bytes, std::string* why) {
  const auto reject = [why](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return std::nullopt;
  };
  if (bytes.size() < 4) return reject("manifest truncated");
  const std::uint32_t expected =
      common::crc32c(bytes.data(), bytes.size() - 4);
  try {
    common::ByteReader tail(bytes.data() + bytes.size() - 4, 4);
    if (tail.u32() != expected) return reject("manifest CRC mismatch");
    common::ByteReader reader(bytes.data(), bytes.size() - 4);
    if (reader.u32() != kManifestMagic) return reject("bad manifest magic");
    const std::uint32_t version = reader.u32();
    if (version != kFormatVersion) {
      return reject("manifest version skew: v" + std::to_string(version));
    }
    Manifest manifest;
    manifest.epoch = reader.u64();
    const std::uint32_t shard_count = reader.u32();
    if (shard_count == 0 || shard_count > kMaxShards) {
      return reject("manifest shard count " + std::to_string(shard_count) +
                    " out of range");
    }
    manifest.record_len = reader.u64();
    manifest.record_crc = reader.u32();
    manifest.parity_len = reader.u64();
    manifest.parity_crc = reader.u32();
    manifest.shards.reserve(shard_count);
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      const std::uint64_t len = reader.u64();
      const std::uint32_t crc = reader.u32();
      manifest.shards.emplace_back(len, crc);
    }
    if (!reader.done()) return reject("manifest has trailing bytes");
    return manifest;
  } catch (const common::DecodeError& error) {
    return reject(std::string("manifest malformed: ") + error.what());
  }
}

/// A shard read back from disk and verified against the manifest, or
/// nullopt when the file is missing, truncated, or corrupt.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_verified(
    const fs::path& path, std::uint64_t len, std::uint32_t crc) {
  auto contents = common::read_file(path);
  if (!contents) return std::nullopt;
  if (contents->size() != len) return std::nullopt;
  if (common::crc32c(contents->data(), contents->size()) != crc) {
    return std::nullopt;
  }
  return contents;
}

void write_back(const fs::path& path,
                const std::vector<std::uint8_t>& contents) {
  try {
    common::atomic_write_file(path, contents);
  } catch (const std::exception&) {
    // Self-healing is best effort; the next save supersedes this epoch.
  }
}

}  // namespace

Store::Store(StoreConfig config) : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw Error("checkpoint store needs a directory");
  }
  config_.shards = std::max(config_.shards, 1u);
  config_.keep_epochs = std::max(config_.keep_epochs, 1u);
}

fs::path Store::point_dir(std::uint64_t point) const {
  return config_.dir / ("point-" + std::to_string(point));
}

void Store::save(std::uint64_t point,
                 const std::vector<std::uint8_t>& record) {
  const fs::path dir = point_dir(point);
  const std::vector<std::uint64_t> existing = list_epochs(dir);
  const std::uint64_t epoch = existing.empty() ? 1 : existing.front() + 1;

  // Contiguous split into `shards` chunks (the first len % shards chunks
  // get one extra byte), padded with zeros to the longest chunk for the
  // XOR parity.
  const auto shard_count = static_cast<std::uint32_t>(config_.shards);
  const std::uint64_t total = record.size();
  const std::uint64_t base = total / shard_count;
  const std::uint64_t extra = total % shard_count;
  Manifest manifest;
  manifest.epoch = epoch;
  manifest.record_len = total;
  manifest.record_crc = common::crc32c(record.data(), record.size());
  manifest.parity_len = base + (extra > 0 ? 1 : 0);
  std::vector<std::uint8_t> parity(
      static_cast<std::size_t>(manifest.parity_len), 0);
  std::uint64_t offset = 0;
  try {
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      const std::uint64_t len = base + (s < extra ? 1 : 0);
      const std::vector<std::uint8_t> chunk(
          record.begin() + static_cast<std::ptrdiff_t>(offset),
          record.begin() + static_cast<std::ptrdiff_t>(offset + len));
      offset += len;
      for (std::size_t i = 0; i < chunk.size(); ++i) parity[i] ^= chunk[i];
      manifest.shards.emplace_back(
          len, common::crc32c(chunk.data(), chunk.size()));
      common::atomic_write_file(shard_path(dir, 0, epoch, s), chunk);
      common::atomic_write_file(shard_path(dir, 1, epoch, s), chunk);
    }
    manifest.parity_crc = common::crc32c(parity.data(), parity.size());
    common::atomic_write_file(parity_path(dir, epoch), parity);
    // Commit point: the epoch exists once (and only once) its manifest
    // does. A SIGKILL anywhere above leaves the previous epoch current.
    common::atomic_write_file(manifest_path(dir, epoch),
                              encode_manifest(manifest));
  } catch (const std::exception& error) {
    throw Error("checkpoint save failed for point " + std::to_string(point) +
                ": " + error.what());
  }

  // Prune epochs beyond the retention window (best effort: a stale epoch
  // is wasted space, not a correctness problem).
  for (const std::uint64_t old : existing) {
    if (old + config_.keep_epochs > epoch) continue;
    std::error_code ec;
    for (std::uint32_t s = 0; s < kMaxShards; ++s) {
      const bool had_primary = fs::remove(shard_path(dir, 0, old, s), ec);
      const bool had_partner = fs::remove(shard_path(dir, 1, old, s), ec);
      if (!had_primary && !had_partner) break;
    }
    fs::remove(parity_path(dir, old), ec);
    fs::remove(manifest_path(dir, old), ec);
  }
}

std::optional<std::vector<std::uint8_t>> Store::load(
    std::uint64_t point, std::string* diagnostics) const {
  const fs::path dir = point_dir(point);
  for (const std::uint64_t epoch : list_epochs(dir)) {
    const std::string tag =
        "point " + std::to_string(point) + " epoch " + std::to_string(epoch);
    const auto manifest_bytes = common::read_file(manifest_path(dir, epoch));
    if (!manifest_bytes) {
      note(diagnostics, tag + ": manifest unreadable");
      continue;
    }
    std::string why;
    const auto manifest = decode_manifest(*manifest_bytes, &why);
    if (!manifest) {
      note(diagnostics, tag + ": " + why + " — trying older epoch");
      continue;
    }
    const std::size_t shard_count = manifest->shards.size();
    std::vector<std::optional<std::vector<std::uint8_t>>> shards(shard_count);
    std::size_t missing = 0;
    std::size_t missing_index = 0;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const auto [len, crc] = manifest->shards[s];
      const fs::path primary =
          shard_path(dir, 0, epoch, static_cast<std::uint32_t>(s));
      shards[s] = read_verified(primary, len, crc);
      if (shards[s]) continue;
      // Level 1: the partner copy in the second failure domain.
      shards[s] = read_verified(
          shard_path(dir, 1, epoch, static_cast<std::uint32_t>(s)), len, crc);
      if (shards[s]) {
        note(diagnostics, tag + ": shard " + std::to_string(s) +
                              " damaged at level 0, recovered from partner "
                              "copy (level 1)");
        write_back(primary, *shards[s]);
        continue;
      }
      ++missing;
      missing_index = s;
    }
    if (missing == 1) {
      // Level 2: XOR the surviving shards (zero-padded to the parity
      // length) with the parity block to rebuild the lost one.
      auto parity = read_verified(parity_path(dir, epoch),
                                  manifest->parity_len, manifest->parity_crc);
      if (parity) {
        for (std::size_t s = 0; s < shard_count; ++s) {
          if (s == missing_index) continue;
          const auto& shard = *shards[s];
          for (std::size_t i = 0; i < shard.size(); ++i) {
            (*parity)[i] ^= shard[i];
          }
        }
        const auto [len, crc] = manifest->shards[missing_index];
        parity->resize(static_cast<std::size_t>(len));
        if (common::crc32c(parity->data(), parity->size()) == crc) {
          note(diagnostics, tag + ": shard " + std::to_string(missing_index) +
                                " lost at levels 0 and 1, reconstructed from "
                                "XOR parity (level 2)");
          write_back(shard_path(dir, 0, epoch,
                                static_cast<std::uint32_t>(missing_index)),
                     *parity);
          shards[missing_index] = std::move(parity);
          missing = 0;
        } else {
          note(diagnostics,
               tag + ": XOR reconstruction failed its CRC check");
        }
      } else {
        note(diagnostics, tag + ": parity block unreadable");
      }
    }
    if (missing > 0) {
      note(diagnostics, tag + ": " + std::to_string(missing) +
                            " shard(s) unrecoverable — trying older epoch");
      continue;
    }
    std::vector<std::uint8_t> record;
    record.reserve(static_cast<std::size_t>(manifest->record_len));
    for (const auto& shard : shards) {
      record.insert(record.end(), shard->begin(), shard->end());
    }
    if (record.size() != manifest->record_len ||
        common::crc32c(record.data(), record.size()) !=
            manifest->record_crc) {
      note(diagnostics, tag + ": assembled record failed verification");
      continue;
    }
    return record;
  }
  return std::nullopt;
}

void Store::reset_point(std::uint64_t point) {
  std::error_code ec;
  fs::remove_all(point_dir(point), ec);
}

}  // namespace smartred::ckpt
