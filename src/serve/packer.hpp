// Batch packing strategies for the request-level serving front end.
//
// SNICIT's speedup is a function of intra-batch similarity: the closer
// the columns of a batch, the fewer clusters Y(t) converges into and the
// sparser the residues after conversion (PAPER.md §3.2-3.3). A serving
// system that accepts individual requests therefore gets to *choose* its
// batches — and packing look-alike samples together is free compression.
//
// A BatchPacker turns the set of requests collected for one serving
// round into a packed order; consecutive runs of `max_batch` positions
// form the engine batches. Two strategies ship:
//
//   fifo        arrival order (the baseline every dynamic batcher has)
//   similarity  cheap input-signature bucketing: a 64-bit SimHash sketch
//               per request (sign of seeded random projections over the
//               active features), greedy leader clustering in Hamming
//               space, clusters emitted in first-arrival order
//
// Signatures are deterministic in (seed, input), so packing is a pure
// function of the collected request set — no timing dependence.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace snicit::serve {

/// 64-bit SimHash sketch of one input column: bit b is the sign of the
/// sum of seeded ±1 projections over the nonzero features. Similar
/// inputs agree on most bits; unrelated ones agree on ~half.
using Signature = std::uint64_t;

Signature input_signature(std::span<const float> column,
                          std::uint64_t seed = 0x51c1757ULL);

/// Fraction of agreeing bits in [0, 1] (identical = 1, unrelated ~ 0.5).
double signature_similarity(Signature a, Signature b);

/// Mean pairwise signature similarity of one packed batch (1.0 for
/// batches of a single request — nothing to disagree with).
double mean_pairwise_similarity(std::span<const Signature> signatures);

class BatchPacker {
 public:
  virtual ~BatchPacker() = default;

  virtual std::string name() const = 0;

  /// Returns a permutation of [0, signatures.size()): the packed serving
  /// order of this round's requests. Consecutive chunks of `max_batch`
  /// positions become the engine batches. Must be a valid permutation —
  /// the batcher feeds every request it collected exactly once.
  virtual std::vector<std::size_t> pack(std::span<const Signature> signatures,
                                        std::size_t max_batch) = 0;
};

/// Arrival order, sliced as-is: the policy of a packer-less batcher.
class FifoPacker final : public BatchPacker {
 public:
  std::string name() const override { return "fifo"; }
  std::vector<std::size_t> pack(std::span<const Signature> signatures,
                                std::size_t max_batch) override;
};

/// Minimum bit-agreement fraction with a cluster leader for the
/// similarity packer: it tolerates the per-bit noise of ~3% feature flips
/// while keeping unrelated classes (~0.5 agreement) apart.
inline constexpr double kSimilarityThreshold = 0.75;

/// Greedy leader clustering on signature Hamming similarity: each request
/// joins the first cluster whose leader it matches at >=
/// kSimilarityThreshold, else opens a new one; clusters are emitted in
/// first-arrival order, members in arrival order. O(requests x clusters)
/// signature compares per round.
class SimilarityPacker final : public BatchPacker {
 public:
  std::string name() const override { return "similarity"; }
  std::vector<std::size_t> pack(std::span<const Signature> signatures,
                                std::size_t max_batch) override;
};

const std::vector<std::string>& known_packers();

/// Factory used by the CLI/bench flags: "fifo" or "similarity". Unknown
/// names throw a typed kBadInput error (a typo must not silently serve
/// FIFO and report the wrong packing numbers).
std::unique_ptr<BatchPacker> make_packer(const std::string& name);

}  // namespace snicit::serve
