#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>

#include "platform/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// JSON string literal; the fingerprint fields hold no control characters
/// but CPU model strings can carry quotes.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string fingerprint_json(const std::string& workload, std::uint64_t seed) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  const char* threads = std::getenv("SNICIT_THREADS");
#ifdef SNICIT_SIMD
  const char* simd = "on";
#else
  const char* simd = "off";
#endif
  return "{\"workload\":" + quoted(workload) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"affinity_cpus\":" + std::to_string(affinity) +
         ",\"SNICIT_THREADS\":" + quoted(threads != nullptr ? threads : "unset") +
         ",\"pool_threads\":" +
         std::to_string(snicit::platform::ThreadPool::global().size()) +
         ",\"simd\":" + quoted(simd) + ",\"compiler\":" + quoted(compiler()) +
         ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
         ",\"cpu\":" + quoted(cpu_model()) + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
