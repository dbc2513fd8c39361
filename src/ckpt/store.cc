#include "ckpt/store.h"

#include <algorithm>
#include <utility>

#include "ckpt/record.h"
#include "common/fileio.h"

namespace smartred::ckpt {

namespace {

namespace fs = std::filesystem;

/// Committed epochs kept per point: the newest and one fallback behind it.
constexpr std::uint64_t kKeepEpochs = 2;

// Names are built by appending: GCC 12 at -O3 raises a false
// -Werror=restrict on `"literal" + std::string` once it is inlined.
[[nodiscard]] fs::path epoch_path(const fs::path& dir, std::uint64_t epoch) {
  std::string name = "e";
  name += std::to_string(epoch);
  name += ".ckpt";
  return dir / name;
}

/// Committed epochs of a point directory, newest first. A stale
/// `e<E>.ckpt.tmp` from a killed save is not one.
[[nodiscard]] std::vector<std::uint64_t> list_epochs(const fs::path& dir) {
  std::vector<std::uint64_t> epochs;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() < 7 || name.front() != 'e' ||
        !name.ends_with(".ckpt")) {
      continue;
    }
    const std::string digits = name.substr(1, name.size() - 6);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    epochs.push_back(std::stoull(digits));
  }
  std::sort(epochs.rbegin(), epochs.rend());
  return epochs;
}

}  // namespace

Store::Store(fs::path dir) : dir_(std::move(dir)) {
  if (dir_.empty()) throw Error("checkpoint store needs a directory");
}

fs::path Store::point_dir(std::uint64_t point) const {
  return dir_ / ("point-" + std::to_string(point));
}

void Store::save(std::uint64_t point,
                 const std::vector<std::uint8_t>& record) {
  const fs::path dir = point_dir(point);
  const std::vector<std::uint64_t> existing = list_epochs(dir);
  const std::uint64_t epoch = existing.empty() ? 1 : existing.front() + 1;
  try {
    common::atomic_write_file(epoch_path(dir, epoch), record);
  } catch (const std::exception& error) {
    throw Error("checkpoint save failed for point " + std::to_string(point) +
                ": " + error.what());
  }
  // Best effort: a stale epoch is wasted space, not a correctness problem.
  for (const std::uint64_t old : existing) {
    if (old + kKeepEpochs > epoch) continue;
    std::error_code ec;
    fs::remove(epoch_path(dir, old), ec);
  }
}

std::optional<std::vector<std::uint8_t>> Store::load(
    std::uint64_t point, std::string* diagnostics) const {
  const fs::path dir = point_dir(point);
  for (const std::uint64_t epoch : list_epochs(dir)) {
    auto bytes = common::read_file(epoch_path(dir, epoch));
    std::string why = "file unreadable";
    if (bytes && frame_intact(*bytes, &why)) return bytes;
    if (diagnostics == nullptr) continue;
    if (!diagnostics->empty()) *diagnostics += '\n';
    *diagnostics += "point " + std::to_string(point) + " epoch " +
                    std::to_string(epoch) + ": " + why +
                    " — trying older epoch";
  }
  return std::nullopt;
}

void Store::reset_point(std::uint64_t point) {
  std::error_code ec;
  fs::remove_all(point_dir(point), ec);
}

}  // namespace smartred::ckpt
