// Algorithm-level invariants the paper states or relies on, checked
// across the full post-convergence evolution of randomized workloads:
//
//   I1  M is fixed after conversion — never modified by updates (§3.2.2)
//   I2  centroid columns are always non-empty and always in ne_idx
//   I3  once a residue column is empty (without pruning) it stays empty
//   I4  Ŷ's centroid columns equal the exact feed-forward of the
//       original centroid columns at every layer (first case of Eq. (5))
//   I5  recovery at any intermediate layer approximates the exact
//       activations (the representation is losslessly maintained)
#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/rng.hpp"
#include "radixnet/radixnet.hpp"
#include "snicit/convert.hpp"
#include "snicit/postconv.hpp"
#include "snicit/recovery.hpp"
#include "snicit/sample_prune.hpp"
#include "snicit/sampling.hpp"

namespace snicit::core {
namespace {

struct Evolution {
  dnn::SparseDnn net;
  dnn::DenseMatrix y_t;      // exact activations at conversion layer
  CompressedBatch initial;
  std::size_t t;
};

Evolution make_evolution(std::uint64_t seed) {
  platform::Rng rng(seed);
  radixnet::RadixNetOptions opt;
  opt.neurons = static_cast<sparse::Index>(64 + 32 * rng.next_below(3));
  opt.layers = 16;
  opt.fanin = 8;
  opt.seed = seed;
  auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = static_cast<std::size_t>(opt.neurons);
  in_opt.batch = 24 + rng.next_below(24);
  in_opt.seed = seed + 5;
  const auto input = data::make_sdgc_input(in_opt).features;
  const std::size_t t = 4 + rng.next_below(6);
  auto y_t = dnn::reference_forward(net, input, 0, t);
  const auto f = build_sample_matrix(y_t, 16, 0);
  auto batch =
      convert_to_compressed(y_t, prune_samples(f, 0.03f, 0.03f), 0.0f);
  return {std::move(net), std::move(y_t), std::move(batch), t};
}

class InvariantSweep : public ::testing::TestWithParam<int> {};

TEST_P(InvariantSweep, HoldThroughPostConvergence) {
  const auto ev = make_evolution(static_cast<std::uint64_t>(GetParam()) * 31);
  // Scalar gather is the CSR form; the three remaining non-scalar-scatter
  // arms must hold the same invariants.
  for (const auto arm :
       {sparse::SpmmVariant::kGatherScalar, sparse::SpmmVariant::kGatherSimd,
        sparse::SpmmVariant::kGatherThreaded,
        sparse::SpmmVariant::kScatterSimd}) {
    SCOPED_TRACE(sparse::to_string(arm));
    sparse::SpmmPolicy policy;
    policy.variant = arm;
    auto batch = ev.initial;
    const auto mapper_snapshot = batch.mapper;
    const auto centroid_snapshot = batch.centroids;

    // Exact per-layer evolution of the original centroid columns (I4).
    dnn::DenseMatrix cent_exact(ev.y_t.rows(), batch.centroids.size());
    for (std::size_t k = 0; k < batch.centroids.size(); ++k) {
      std::copy_n(ev.y_t.col(static_cast<std::size_t>(batch.centroids[k])),
                  ev.y_t.rows(), cent_exact.col(k));
    }

    dnn::DenseMatrix exact = ev.y_t;  // full exact trajectory (I5)
    dnn::DenseMatrix scratch(ev.y_t.rows(), ev.y_t.cols());
    std::vector<std::uint8_t> was_empty(batch.batch(), 0);

    for (std::size_t l = ev.t; l < ev.net.num_layers(); ++l) {
      for (std::size_t j = 0; j < batch.batch(); ++j) {
        if (!batch.is_centroid(j) && batch.ne_rec[j] == 0) was_empty[j] = 1;
      }

      post_convergence_layer(ev.net.weight(l), &ev.net.weight_csc(l),
                             ev.net.bias(l), ev.net.ymax(), 0.0f, batch,
                             scratch, policy);
      batch.refresh_ne_idx();
      exact = dnn::reference_forward(ev.net, exact, l, l + 1);
      cent_exact = dnn::reference_forward(ev.net, cent_exact, l, l + 1);

      // I1: M and y* unchanged.
      ASSERT_EQ(batch.mapper, mapper_snapshot);
      ASSERT_EQ(batch.centroids, centroid_snapshot);

      // I2: centroids non-empty and listed.
      for (sparse::Index cent : batch.centroids) {
        EXPECT_EQ(batch.ne_rec[static_cast<std::size_t>(cent)], 1);
        EXPECT_TRUE(std::find(batch.ne_idx.begin(), batch.ne_idx.end(),
                              cent) != batch.ne_idx.end());
      }

      // I3: emptiness is absorbing (no pruning involved).
      for (std::size_t j = 0; j < batch.batch(); ++j) {
        if (was_empty[j] != 0) {
          EXPECT_EQ(batch.ne_rec[j], 0) << "column " << j << " revived";
          EXPECT_EQ(batch.yhat.column_nonzeros(j), 0u);
        }
      }

      // I4: centroid columns track exact feed-forward. Every arm sums
      // each element in the reference gather's nnz order; scatter_simd
      // differs only in skipping some ±0 products of zero activations.
      for (std::size_t k = 0; k < batch.centroids.size(); ++k) {
        const auto cent = static_cast<std::size_t>(batch.centroids[k]);
        for (std::size_t r = 0; r < ev.y_t.rows(); ++r) {
          ASSERT_FLOAT_EQ(batch.yhat.at(r, cent), cent_exact.at(r, k))
              << "layer " << l;
        }
      }

      // I5: recovery approximates the exact activations at every layer.
      const auto recovered = recover_results(batch);
      EXPECT_LE(dnn::DenseMatrix::max_abs_diff(recovered, exact), 2e-3f)
          << "layer " << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace snicit::core
