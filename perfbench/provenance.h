// The provenance stamp every result carries, so results taken on different
// hosts, builds or inputs are never compared as if they were alike.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunIdentity {
  std::string workload;
  std::uint64_t seed = 0;
  std::string strategy;
  std::string policy;
  unsigned threads = 1;
  std::string git_rev;        ///< "none" outside a git checkout
  std::string source_digest;  ///< hash of the program and benchmark sources
};

/// One JSON object: the identity plus CPU model, L2/L3 sizes, hardware
/// threads, compiler, flags and build type.
[[nodiscard]] std::string provenance_json(const RunIdentity& identity);

/// `text` as a JSON string literal.
[[nodiscard]] std::string json_string(const std::string& text);

}  // namespace perfbench
