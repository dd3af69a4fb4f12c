#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "platform/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] +
         (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double tail_percentile(std::size_t n, std::size_t min_tail) {
  // Per-mille levels keep the tail count in exact integer arithmetic:
  // (1000 - k) / 1000 of the samples lie beyond the k-per-mille point.
  constexpr std::size_t kLevels[] = {999, 990, 900, 500};
  for (const std::size_t k : kLevels) {
    if (n * (1000 - k) >= min_tail * 1000) {
      return static_cast<double>(k) / 1000.0;
    }
  }
  return 0.0;
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_ms,
                                     std::uint64_t seed) {
  std::vector<double> due;
  if (!(rate_per_s > 0.0) || !(duration_ms > 0.0)) return due;
  snicit::platform::Rng rng(seed);
  const double mean_gap_ms = 1000.0 / rate_per_s;
  const auto gap = [&] { return -std::log(1.0 - rng.next_double()) * mean_gap_ms; };
  for (double t = gap(); t < duration_ms; t += gap()) due.push_back(t);
  return due;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t digest(const DenseMatrix& m) {
  const std::uint64_t rows = m.rows();
  const std::uint64_t cols = m.cols();
  std::uint64_t hash = fnv1a(&rows, sizeof(rows));
  hash = fnv1a(&cols, sizeof(cols), hash);
  return fnv1a(m.data(), rows * cols * sizeof(float), hash);
}

bool bit_equal(const DenseMatrix& a, const DenseMatrix& b) {
  const std::size_t n = a.rows() * a.cols();
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(float)) == 0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return snicit::platform::SplitMix64(seed ^ (stream * 0x9e3779b97f4a7c15ULL))
      .next();
}

std::vector<std::size_t> seeded_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  snicit::platform::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

}  // namespace perfbench
