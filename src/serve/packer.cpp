#include "serve/packer.hpp"

#include <bit>

#include "platform/common.hpp"
#include "platform/error.hpp"

namespace snicit::serve {

namespace {

/// SplitMix64-style finalizer: one well-mixed 64-bit word per feature,
/// whose bits are the ±1 projection weights of the 64 SimHash planes.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Signature input_signature(std::span<const float> column, std::uint64_t seed) {
  // One accumulator per plane; each nonzero feature contributes +|x| or
  // -|x| per plane according to its hash bits. Magnitude weighting keeps
  // the sketch meaningful for continuous inputs; for the binary SDGC
  // batches it degenerates to ±1 counting.
  float acc[64] = {};
  for (std::size_t i = 0; i < column.size(); ++i) {
    const float x = column[i];
    if (x == 0.0f) continue;
    const float w = x < 0.0f ? -x : x;
    std::uint64_t h = mix64(seed ^ (static_cast<std::uint64_t>(i) *
                                    0x2545f4914f6cdd1dULL));
    for (int b = 0; b < 64; ++b) {
      acc[b] += (h & 1ULL) ? w : -w;
      h >>= 1;
    }
  }
  Signature sig = 0;
  for (int b = 0; b < 64; ++b) {
    if (acc[b] > 0.0f) sig |= (1ULL << b);
  }
  return sig;
}

double signature_similarity(Signature a, Signature b) {
  return static_cast<double>(64 - std::popcount(a ^ b)) / 64.0;
}

double mean_pairwise_similarity(std::span<const Signature> signatures) {
  const std::size_t n = signatures.size();
  if (n < 2) return 1.0;
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j, ++pairs) {
      sum += signature_similarity(signatures[i], signatures[j]);
    }
  }
  return sum / static_cast<double>(pairs);
}

std::vector<std::size_t> FifoPacker::pack(
    std::span<const Signature> signatures, std::size_t max_batch) {
  (void)max_batch;
  std::vector<std::size_t> order(signatures.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  return order;
}

std::vector<std::size_t> SimilarityPacker::pack(
    std::span<const Signature> signatures, std::size_t max_batch) {
  (void)max_batch;
  const std::size_t n = signatures.size();
  std::vector<Signature> leaders;
  std::vector<std::vector<std::size_t>> clusters;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = clusters.size();
    double best_sim = kSimilarityThreshold;
    for (std::size_t c = 0; c < leaders.size(); ++c) {
      const double sim = signature_similarity(signatures[i], leaders[c]);
      if (sim >= best_sim) {
        best = c;
        best_sim = sim;
        if (sim == 1.0) break;  // exact match: no better cluster exists
      }
    }
    if (best == clusters.size()) {
      leaders.push_back(signatures[i]);
      clusters.emplace_back();
    }
    clusters[best].push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(n);
  for (const auto& cluster : clusters) {
    order.insert(order.end(), cluster.begin(), cluster.end());
  }
  return order;
}

const std::vector<std::string>& known_packers() {
  static const std::vector<std::string> names = {"fifo", "similarity"};
  return names;
}

std::unique_ptr<BatchPacker> make_packer(const std::string& name) {
  if (name == "fifo") return std::make_unique<FifoPacker>();
  if (name == "similarity") return std::make_unique<SimilarityPacker>();
  throw platform::ErrorException(
      platform::ErrorCode::kBadInput,
      "unknown packer '" + name + "' (expected fifo|similarity)");
}

}  // namespace snicit::serve
