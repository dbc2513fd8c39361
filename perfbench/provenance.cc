#include "provenance.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

// Host facts come from the CPU and the C library, never from files outside
// the checkout.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

long cache_kib(int name) {
  const long bytes = sysconf(name);
  return bytes > 0 ? bytes / 1024 : 0;
}

}  // namespace

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string provenance_json(const RunIdentity& identity) {
  std::string out = "{";
  const auto field = [&out](const char* key, const std::string& value) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + value;
  };
  field("git_rev", json_string(identity.git_rev));
  field("source_digest", json_string(identity.source_digest));
  field("cpu_model", json_string(cpu_model()));
  field("l2_kib", std::to_string(cache_kib(_SC_LEVEL2_CACHE_SIZE)));
  field("l3_kib", std::to_string(cache_kib(_SC_LEVEL3_CACHE_SIZE)));
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("compiler", json_string(PERFBENCH_COMPILER));
  field("cxx_flags", json_string(PERFBENCH_CXX_FLAGS));
  field("build_type", json_string(PERFBENCH_BUILD_TYPE));
  field("workload", json_string(identity.workload));
  field("seed", std::to_string(identity.seed));
  field("strategy", json_string(identity.strategy));
  field("policy", json_string(identity.policy));
  field("threads", std::to_string(identity.threads));
  return out + "}";
}

}  // namespace perfbench
