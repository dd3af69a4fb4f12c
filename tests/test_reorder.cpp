#include "snicit/reorder.hpp"

#include <gtest/gtest.h>

#include <set>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/rng.hpp"
#include "radixnet/radixnet.hpp"
#include "snicit/postconv.hpp"
#include "snicit/recovery.hpp"

namespace snicit::core {
namespace {

/// Small converted batch: columns 0 and 3 centroids, others residues.
CompressedBatch example_batch() {
  DenseMatrix y(8, 6);
  platform::Rng rng(1);
  for (std::size_t j = 0; j < 6; ++j) {
    const float base = (j % 2 == 0) ? 1.0f : 5.0f;
    for (std::size_t r = 0; r < 8; ++r) {
      y.at(r, j) = base + (rng.next_bool(0.2) ? 0.5f : 0.0f);
    }
  }
  return convert_to_compressed(y, {0, 3}, 0.0f);
}

TEST(Reorder, PermutationIsBijective) {
  const auto batch = example_batch();
  const auto perm = cluster_order(batch);
  ASSERT_EQ(perm.size(), 6u);
  std::set<Index> seen(perm.forward.begin(), perm.forward.end());
  EXPECT_EQ(seen.size(), 6u);
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_EQ(perm.inverse[static_cast<std::size_t>(perm.forward[j])],
              static_cast<Index>(j));
  }
}

TEST(Reorder, CentroidsLeadTheirClusters) {
  const auto batch = example_batch();
  const auto perm = cluster_order(batch);
  const auto reordered = permute_batch(batch, perm);
  // After reordering: a centroid appears, then all its residues, before
  // the next centroid. Verify each column's mapper points backward to the
  // most recent centroid.
  Index current_centroid = -1;
  for (std::size_t j = 0; j < reordered.batch(); ++j) {
    if (reordered.is_centroid(j)) {
      current_centroid = static_cast<Index>(j);
    } else {
      EXPECT_EQ(reordered.mapper[j], current_centroid);
    }
  }
}

TEST(Reorder, PermuteUnpermuteRoundTrip) {
  platform::Rng rng(4);
  DenseMatrix y(5, 9);
  for (std::size_t i = 0; i < 45; ++i) {
    y.data()[i] = rng.uniform(-1.0f, 1.0f);
  }
  const auto batch = convert_to_compressed(y, {0, 4}, 0.0f);
  const auto perm = cluster_order(batch);
  const auto round =
      unpermute_columns(permute_columns(y, perm), perm);
  EXPECT_FLOAT_EQ(DenseMatrix::max_abs_diff(round, y), 0.0f);
}

TEST(Reorder, PermutedBatchRecoversSameResults) {
  // Running post-convergence on the permuted batch and un-permuting the
  // recovered output must equal the unpermuted pipeline's output.
  radixnet::RadixNetOptions opt;
  opt.neurons = 64;
  opt.layers = 8;
  opt.fanin = 8;
  opt.seed = 9;
  const auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = 64;
  in_opt.batch = 20;
  in_opt.seed = 10;
  const auto input = data::make_sdgc_input(in_opt).features;
  const auto y4 = dnn::reference_forward(net, input, 0, 4);

  // Scalar gather is the CSR form; the three remaining non-scalar-scatter
  // arms must be just as permutation-blind.
  for (const auto arm :
       {sparse::SpmmVariant::kGatherScalar, sparse::SpmmVariant::kGatherSimd,
        sparse::SpmmVariant::kGatherThreaded,
        sparse::SpmmVariant::kScatterSimd}) {
    sparse::SpmmPolicy policy;
    policy.variant = arm;
    auto plain = convert_to_compressed(y4, {0, 1, 2}, 0.0f);
    const auto perm = cluster_order(plain);
    auto permuted = permute_batch(plain, perm);

    DenseMatrix scratch(y4.rows(), y4.cols());
    for (std::size_t l = 4; l < 8; ++l) {
      post_convergence_layer(net.weight(l), &net.weight_csc(l), net.bias(l),
                             net.ymax(), 0.0f, plain, scratch, policy);
      plain.refresh_ne_idx();
      post_convergence_layer(net.weight(l), &net.weight_csc(l), net.bias(l),
                             net.ymax(), 0.0f, permuted, scratch, policy);
      permuted.refresh_ne_idx();
    }
    const auto a = recover_results(plain);
    const auto b = unpermute_columns(recover_results(permuted), perm);
    EXPECT_FLOAT_EQ(DenseMatrix::max_abs_diff(a, b), 0.0f)
        << sparse::to_string(arm);
  }
}

TEST(Reorder, IdentityDetection) {
  // A batch whose centroids already lead their clusters in order can
  // still produce a non-identity order; just verify the predicate works.
  BatchPermutation ident;
  ident.forward = {0, 1, 2};
  ident.inverse = {0, 1, 2};
  EXPECT_TRUE(ident.is_identity());
  BatchPermutation swapped;
  swapped.forward = {1, 0};
  swapped.inverse = {1, 0};
  EXPECT_FALSE(swapped.is_identity());
}

}  // namespace
}  // namespace snicit::core
