#include "snicit/postconv.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "radixnet/radixnet.hpp"
#include "snicit/recovery.hpp"
#include "sparse/spmm.hpp"

namespace snicit::core {
namespace {

using dnn::SparseDnn;
using sparse::SpmmVariant;

/// Advances `batch` through layer `l` with the load-reduced spMM forced to
/// `arm`: kGatherScalar is the CSR gather form, kScatter the CSC scatter
/// form.
std::size_t advance(const SparseDnn& net, std::size_t l, float prune,
                    CompressedBatch& batch, DenseMatrix& scratch,
                    SpmmVariant arm = SpmmVariant::kGatherScalar) {
  sparse::SpmmPolicy policy;
  policy.variant = arm;
  return post_convergence_layer(net.weight(l), &net.weight_csc(l),
                                net.bias(l), net.ymax(), prune, batch,
                                scratch, policy);
}

/// The CSR-form tests' arm loop: scalar gather plus the three remaining
/// arms that are not the scalar scatter.
constexpr SpmmVariant kArms[] = {
    SpmmVariant::kGatherScalar, SpmmVariant::kGatherSimd,
    SpmmVariant::kGatherThreaded, SpmmVariant::kScatterSimd};

/// Builds a small SDGC-style net and a clustered input batch, runs the
/// exact reference to layer t, converts, then post-convergence-updates
/// through the remaining layers.
struct Fixture {
  SparseDnn net;
  DenseMatrix y_t;       // exact activations at layer t
  std::size_t t;

  static Fixture make(std::size_t t, std::uint64_t seed = 1) {
    radixnet::RadixNetOptions opt;
    opt.neurons = 96;
    opt.layers = 12;
    opt.fanin = 8;
    opt.bias = -0.2f;
    opt.seed = seed;
    auto net = radixnet::make_radixnet(opt);
    data::SdgcInputOptions in_opt;
    in_opt.neurons = 96;
    in_opt.batch = 24;
    in_opt.classes = 3;
    in_opt.seed = seed + 1;
    const auto input = data::make_sdgc_input(in_opt).features;
    auto y_t = dnn::reference_forward(net, input, 0, t);
    return Fixture{std::move(net), std::move(y_t), t};
  }
};

TEST(PostConv, SingleLayerMatchesReferenceAfterRecovery) {
  auto fx = Fixture::make(6);
  auto batch = convert_to_compressed(fx.y_t, {0, 1, 2}, 0.0f);
  DenseMatrix scratch(fx.y_t.rows(), fx.y_t.cols());
  advance(fx.net, fx.t, 0.0f, batch, scratch);
  batch.refresh_ne_idx();
  const auto recovered = recover_results(batch);
  const auto expected =
      dnn::reference_forward(fx.net, fx.y_t, fx.t, fx.t + 1);
  EXPECT_LE(DenseMatrix::max_abs_diff(recovered, expected), 2e-4f);
}

TEST(PostConv, MultiLayerCloseToReference) {
  auto fx = Fixture::make(4);
  const auto expected = dnn::reference_forward(fx.net, fx.y_t, fx.t,
                                               fx.net.num_layers());
  for (const auto arm : kArms) {
    auto batch = convert_to_compressed(fx.y_t, {0, 1, 2, 3}, 0.0f);
    DenseMatrix scratch(fx.y_t.rows(), fx.y_t.cols());
    for (std::size_t l = fx.t; l < fx.net.num_layers(); ++l) {
      advance(fx.net, l, 0.0f, batch, scratch, arm);
      batch.refresh_ne_idx();
    }
    const auto recovered = recover_results(batch);
    EXPECT_LE(DenseMatrix::max_abs_diff(recovered, expected), 2e-3f)
        << sparse::to_string(arm);
  }
}

TEST(PostConv, IdenticalColumnsStayExactlyEqualToCentroidPath) {
  // When a non-centroid column duplicates its centroid, its residue is
  // exactly zero and must remain exactly zero through every layer — the
  // skip-empty-columns optimisation is exact, not approximate.
  auto fx = Fixture::make(5);
  // Duplicate centroid column 0 into columns 5 and 6.
  for (std::size_t r = 0; r < fx.y_t.rows(); ++r) {
    fx.y_t.at(r, 5) = fx.y_t.at(r, 0);
    fx.y_t.at(r, 6) = fx.y_t.at(r, 0);
  }
  for (const auto arm : kArms) {
    auto batch = convert_to_compressed(fx.y_t, {0}, 0.0f);
    EXPECT_EQ(batch.ne_rec[5], 0);
    EXPECT_EQ(batch.ne_rec[6], 0);
    DenseMatrix scratch(fx.y_t.rows(), fx.y_t.cols());
    for (std::size_t l = fx.t; l < fx.net.num_layers(); ++l) {
      advance(fx.net, l, 0.0f, batch, scratch, arm);
      batch.refresh_ne_idx();
    }
    EXPECT_EQ(batch.yhat.column_nonzeros(5), 0u) << sparse::to_string(arm);
    EXPECT_EQ(batch.yhat.column_nonzeros(6), 0u) << sparse::to_string(arm);
    const auto recovered = recover_results(batch);
    // Duplicated columns recover to exactly the centroid's trajectory.
    for (std::size_t r = 0; r < recovered.rows(); ++r) {
      EXPECT_FLOAT_EQ(recovered.at(r, 5), recovered.at(r, 0));
      EXPECT_FLOAT_EQ(recovered.at(r, 6), recovered.at(r, 0));
    }
  }
}

TEST(PostConv, CentroidColumnFollowsPlainFeedForward) {
  auto fx = Fixture::make(3);
  auto batch = convert_to_compressed(fx.y_t, {0, 1}, 0.0f);
  DenseMatrix scratch(fx.y_t.rows(), fx.y_t.cols());
  advance(fx.net, fx.t, 0.0f, batch, scratch);
  // Centroid column 0 must equal σ(W·y0 + b) computed directly.
  DenseMatrix single(fx.y_t.rows(), 1);
  for (std::size_t r = 0; r < fx.y_t.rows(); ++r) {
    single.at(r, 0) = fx.y_t.at(r, 0);
  }
  DenseMatrix out(fx.y_t.rows(), 1);
  sparse::spmm_gather(fx.net.weight(fx.t), single, out);
  sparse::apply_bias_activation(out,
                                {fx.net.bias(fx.t), 0.0f, fx.net.ymax()});
  for (std::size_t r = 0; r < fx.y_t.rows(); ++r) {
    EXPECT_FLOAT_EQ(batch.yhat.at(r, 0), out.at(r, 0));
  }
}

TEST(PostConv, EmptyColumnsSkippedButConsistent) {
  // Run one net twice: refresh ne_idx every layer vs never. Final results
  // must agree (stale ne_idx recomputes zero columns but stays correct).
  auto fx = Fixture::make(4, 9);
  for (const auto arm : kArms) {
    auto batch_fresh = convert_to_compressed(fx.y_t, {0, 1}, 0.0f);
    auto batch_stale = batch_fresh;
    DenseMatrix scratch(fx.y_t.rows(), fx.y_t.cols());
    for (std::size_t l = fx.t; l < fx.net.num_layers(); ++l) {
      advance(fx.net, l, 0.0f, batch_fresh, scratch, arm);
      batch_fresh.refresh_ne_idx();
      advance(fx.net, l, 0.0f, batch_stale, scratch, arm);
      // no refresh for batch_stale
    }
    const auto a = recover_results(batch_fresh);
    const auto b = recover_results(batch_stale);
    EXPECT_FLOAT_EQ(DenseMatrix::max_abs_diff(a, b), 0.0f)
        << sparse::to_string(arm);
  }
}

TEST(PostConv, PruningReducesNonEmptyColumns) {
  auto fx = Fixture::make(6, 21);
  for (const auto arm : kArms) {
    auto strict = convert_to_compressed(fx.y_t, {0, 1, 2}, 0.0f);
    auto pruned = convert_to_compressed(fx.y_t, {0, 1, 2}, 0.05f);
    DenseMatrix scratch(fx.y_t.rows(), fx.y_t.cols());
    for (std::size_t l = fx.t; l < fx.net.num_layers(); ++l) {
      advance(fx.net, l, 0.0f, strict, scratch, arm);
      strict.refresh_ne_idx();
      advance(fx.net, l, 0.05f, pruned, scratch, arm);
      pruned.refresh_ne_idx();
    }
    EXPECT_LE(pruned.ne_idx.size(), strict.ne_idx.size())
        << sparse::to_string(arm);
    EXPECT_LE(pruned.yhat.count_nonzeros(), strict.yhat.count_nonzeros())
        << sparse::to_string(arm);
  }
}

TEST(PostConv, ScatterOverloadMatchesGatherOverload) {
  auto fx = Fixture::make(5, 33);
  fx.net.ensure_csc();
  for (const auto arm :
       {SpmmVariant::kScatter, SpmmVariant::kGatherSimd,
        SpmmVariant::kGatherThreaded, SpmmVariant::kScatterSimd}) {
    auto a = convert_to_compressed(fx.y_t, {0, 1, 2}, 0.0f);
    auto b = a;
    DenseMatrix scratch(fx.y_t.rows(), fx.y_t.cols());
    for (std::size_t l = fx.t; l < fx.net.num_layers(); ++l) {
      advance(fx.net, l, 0.0f, a, scratch, SpmmVariant::kGatherScalar);
      a.refresh_ne_idx();
      advance(fx.net, l, 0.0f, b, scratch, arm);
      b.refresh_ne_idx();
    }
    // Different accumulation orders inside the multiply: tolerance compare.
    EXPECT_LE(DenseMatrix::max_abs_diff(recover_results(a),
                                        recover_results(b)),
              1e-4f)
        << sparse::to_string(arm);
    EXPECT_EQ(a.ne_idx.size(), b.ne_idx.size()) << sparse::to_string(arm);
  }
}

}  // namespace
}  // namespace snicit::core
