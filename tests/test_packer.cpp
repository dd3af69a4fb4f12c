// Unit suite for the batch-packing layer: SimHash signature properties
// (determinism, noise tolerance, class separation on the clustered SDGC
// workload), the permutation contract every packer must honour, the
// greedy leader clustering behaviour of the similarity packer, and the
// factory's typed rejection of unknown strategy names.
#include "serve/packer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "data/synthetic.hpp"
#include "platform/error.hpp"
#include "platform/rng.hpp"

namespace snicit::serve {
namespace {

std::vector<float> column_of(const sparse::DenseMatrix& m, std::size_t j) {
  return {m.col(j), m.col(j) + m.rows()};
}

bool is_permutation_of_n(const std::vector<std::size_t>& order,
                         std::size_t n) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (const std::size_t p : order) {
    if (p >= n || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

TEST(Signature, DeterministicAndSeedSensitive) {
  std::vector<float> x(128, 0.0f);
  x[3] = 1.0f;
  x[40] = 2.5f;
  x[90] = 0.25f;
  EXPECT_EQ(input_signature(x), input_signature(x));
  EXPECT_NE(input_signature(x, 1), input_signature(x, 2));
  // Zero columns hash to the empty sketch regardless of length.
  const std::vector<float> zeros(64, 0.0f);
  EXPECT_EQ(input_signature(zeros), input_signature(std::vector<float>(8)));
}

TEST(Signature, SimilarityBoundsAndIdentity) {
  const Signature a = 0xdeadbeefcafef00dULL;
  EXPECT_DOUBLE_EQ(signature_similarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(signature_similarity(a, ~a), 0.0);
  const double sim = signature_similarity(a, a ^ 0xffULL);  // 8 bits flip
  EXPECT_DOUBLE_EQ(sim, 56.0 / 64.0);
}

TEST(Signature, SameClassAgreesMoreThanCrossClass) {
  // SDGC-style inputs: class prototypes + flip noise. Same-class columns
  // must agree on clearly more bits than cross-class ones, with a usable
  // gap around the packer's default 0.75 threshold.
  data::SdgcInputOptions opt;
  opt.neurons = 512;
  opt.batch = 60;
  opt.classes = 6;
  opt.seed = 21;
  const auto data = data::make_sdgc_input(opt);
  std::vector<Signature> sig(opt.batch);
  for (std::size_t j = 0; j < opt.batch; ++j) {
    sig[j] = input_signature(column_of(data.features, j));
  }
  double same_sum = 0.0, cross_sum = 0.0;
  std::size_t same_n = 0, cross_n = 0;
  for (std::size_t a = 0; a < opt.batch; ++a) {
    for (std::size_t b = a + 1; b < opt.batch; ++b) {
      const double s = signature_similarity(sig[a], sig[b]);
      if (data.labels[a] == data.labels[b]) {
        same_sum += s;
        same_n += 1;
      } else {
        cross_sum += s;
        cross_n += 1;
      }
    }
  }
  ASSERT_GT(same_n, 0u);
  ASSERT_GT(cross_n, 0u);
  const double same_mean = same_sum / static_cast<double>(same_n);
  const double cross_mean = cross_sum / static_cast<double>(cross_n);
  EXPECT_GT(same_mean, cross_mean + 0.1)
      << "same " << same_mean << " vs cross " << cross_mean;
}

TEST(Signature, MeanPairwiseSimilarityEdgeCases) {
  EXPECT_DOUBLE_EQ(mean_pairwise_similarity({}), 1.0);
  const std::vector<Signature> one = {42};
  EXPECT_DOUBLE_EQ(mean_pairwise_similarity(one), 1.0);
  const std::vector<Signature> pair = {0x0ULL, ~0x0ULL};
  EXPECT_DOUBLE_EQ(mean_pairwise_similarity(pair), 0.0);
}

TEST(Packers, FifoIsIdentity) {
  FifoPacker packer;
  std::vector<Signature> sigs(7, 0);
  const auto order = packer.pack(sigs, 3);
  std::vector<std::size_t> identity(7);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(order, identity);
}

TEST(Packers, AlwaysAPermutationUnderFuzz) {
  platform::Rng rng(99);
  for (const char* name : {"fifo", "similarity"}) {
    auto packer = make_packer(name);
    for (int round = 0; round < 20; ++round) {
      const std::size_t n = 1 + rng.next_below(70);
      std::vector<Signature> sigs(n);
      for (auto& s : sigs) s = rng.next_u64();
      const std::size_t max_batch = 1 + rng.next_below(17);
      EXPECT_TRUE(is_permutation_of_n(packer->pack(sigs, max_batch), n))
          << name << " n=" << n << " max_batch=" << max_batch;
    }
  }
}

TEST(Packers, SimilarityGroupsIdenticalSignatures) {
  // Interleaved members of two signature families A and B: the packer
  // must de-interleave them so each family forms one contiguous run,
  // clusters emitted in first-arrival order (A leads).
  const Signature a = 0x1234123412341234ULL;
  const Signature b = ~a;
  const std::vector<Signature> sigs = {a, b, a, b, a, b};
  SimilarityPacker packer;
  const auto order = packer.pack(sigs, 3);
  ASSERT_TRUE(is_permutation_of_n(order, sigs.size()));
  const std::vector<std::size_t> expected = {0, 2, 4, 1, 3, 5};
  EXPECT_EQ(order, expected);
}

TEST(Packers, SimilarityRaisesIntraBatchSimilarityOnClusteredInput) {
  data::SdgcInputOptions opt;
  opt.neurons = 512;
  opt.batch = 64;
  opt.classes = 8;
  opt.seed = 33;
  const auto data = data::make_sdgc_input(opt);
  std::vector<Signature> sigs(opt.batch);
  for (std::size_t j = 0; j < opt.batch; ++j) {
    sigs[j] = input_signature(column_of(data.features, j));
  }
  const std::size_t max_batch = 16;
  const auto batch_mean = [&](const std::vector<std::size_t>& order) {
    double sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < order.size(); begin += max_batch) {
      const std::size_t end = std::min(order.size(), begin + max_batch);
      std::vector<Signature> batch;
      for (std::size_t p = begin; p < end; ++p) {
        batch.push_back(sigs[order[p]]);
      }
      sum += mean_pairwise_similarity(batch);
      batches += 1;
    }
    return sum / static_cast<double>(batches);
  };
  FifoPacker fifo;
  SimilarityPacker similarity;
  const double fifo_mean = batch_mean(fifo.pack(sigs, max_batch));
  const double packed_mean = batch_mean(similarity.pack(sigs, max_batch));
  EXPECT_GT(packed_mean, fifo_mean)
      << "similarity packing failed to beat arrival order";
}

TEST(Packers, FactoryNamesAndTypedRejection) {
  const auto& names = known_packers();
  ASSERT_EQ(names.size(), 2u);
  for (const auto& name : names) {
    EXPECT_EQ(make_packer(name)->name(), name);
  }
  try {
    make_packer("clairvoyant");
    FAIL() << "unknown packer must throw";
  } catch (const platform::ErrorException& e) {
    EXPECT_EQ(e.code(), platform::ErrorCode::kBadInput);
  }
}

}  // namespace
}  // namespace snicit::serve
