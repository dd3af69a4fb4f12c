// Host fingerprint and process memory, printed with every result.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// One-line JSON object: nproc, SNICIT_THREADS, pool size, SIMD on/off,
/// compiler and version, build type, CPU model, workload and seed.
std::string fingerprint_json(const std::string& workload, std::uint64_t seed);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
