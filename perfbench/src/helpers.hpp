// Statistics, arrival schedules, seeds and output digests shared by the
// workloads. Nothing here runs an engine, so tests/test_helpers.cpp
// pins every rule on small hand-made inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sparse/dense_matrix.hpp"

namespace perfbench {

using snicit::sparse::DenseMatrix;

/// Order statistic with linear interpolation between neighbours (the
/// "type 7" rule most tools default to). q is clamped to [0, 1]; an empty
/// sample yields 0.
double quantile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// The highest of p50, p90, p99 and p99.9 that leaves at least `min_tail`
/// of `n` samples beyond it, as a fraction (0.9 for p90); 0 when not even
/// the median does.
double tail_percentile(std::size_t n, std::size_t min_tail = 10);

/// Due times (ms from the start of a step) of a Poisson arrival process
/// at `rate_per_s` over `duration_ms`: exponential gaps from a generator
/// seeded with `seed`, so one seed always gives one schedule.
std::vector<double> poisson_schedule(double rate_per_s, double duration_ms,
                                     std::uint64_t seed);

/// Latency of an open-loop request measured from when it was due: how
/// late its submit call started, plus the latency the server measured
/// from that submit.
inline double latency_from_due_ms(double due_ms, double submit_ms,
                                  double served_ms) {
  return (submit_ms - due_ms) + served_ms;
}

/// FNV-1a over raw bytes, continuing from `hash`.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = kFnvBasis);

/// Digest of a matrix: its shape, then every float's bits in column
/// order.
std::uint64_t digest(const DenseMatrix& m);

/// Same shape and identical float bits.
bool bit_equal(const DenseMatrix& a, const DenseMatrix& b);

/// Independent sub-seed number `stream` of the workload seed, so inputs,
/// orders and arrivals each draw from their own generator.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// A permutation of [0, n) drawn from `seed` (Fisher-Yates).
std::vector<std::size_t> seeded_permutation(std::size_t n, std::uint64_t seed);

}  // namespace perfbench
