#include "snicit/engine.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/thread_pool.hpp"
#include "radixnet/radixnet.hpp"

namespace snicit::core {
namespace {

struct TestNet {
  dnn::SparseDnn net;
  dnn::DenseMatrix input;
};

TestNet make_test_net(int layers = 16, std::uint64_t seed = 2,
                      sparse::Index neurons = 128, std::size_t batch = 48) {
  radixnet::RadixNetOptions opt;
  opt.neurons = neurons;
  opt.layers = layers;
  opt.fanin = 16;
  opt.seed = seed;
  auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = static_cast<std::size_t>(neurons);
  in_opt.batch = batch;
  in_opt.classes = 6;
  in_opt.seed = seed + 100;
  auto input = data::make_sdgc_input(in_opt).features;
  return {std::move(net), std::move(input)};
}

SnicitParams default_params(int t) {
  SnicitParams p;
  p.threshold_layer = t;
  p.sample_size = 16;
  p.downsample_dim = 0;  // exact column comparison at this small scale
  p.prune_threshold = 0.0f;
  return p;
}

TEST(SnicitEngine, MatchesReferenceWithoutPruning) {
  auto [net, input] = make_test_net();
  SnicitEngine engine(default_params(8));
  const auto result = engine.run(net, input);
  const auto expected = dnn::reference_forward(net, input);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, expected), 5e-3f);
  // Categories must agree exactly (the SDGC golden-reference criterion).
  EXPECT_DOUBLE_EQ(
      dnn::category_match_rate(dnn::sdgc_categories(result.output, 1e-3f),
                               dnn::sdgc_categories(expected, 1e-3f)),
      1.0);
}

TEST(SnicitEngine, ReportsAllFourStages) {
  auto [net, input] = make_test_net();
  SnicitEngine engine(default_params(8));
  const auto result = engine.run(net, input);
  EXPECT_GT(result.stages.get("pre-convergence"), 0.0);
  EXPECT_GT(result.stages.get("conversion"), 0.0);
  EXPECT_GT(result.stages.get("post-convergence"), 0.0);
  EXPECT_GE(result.stages.get("recovery"), 0.0);
  EXPECT_EQ(result.stages.entries().size(), 4u);
  EXPECT_EQ(result.layer_ms.size(), net.num_layers());
}

TEST(SnicitEngine, ThresholdZeroConvertsInput) {
  auto [net, input] = make_test_net(8);
  SnicitEngine engine(default_params(0));
  const auto result = engine.run(net, input);
  const auto expected = dnn::reference_forward(net, input);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, expected), 5e-3f);
  EXPECT_DOUBLE_EQ(result.diagnostics.at("threshold_layer"), 0.0);
}

TEST(SnicitEngine, ThresholdAtDepthFallsBackToPureFeedForward) {
  auto [net, input] = make_test_net(6);
  SnicitEngine engine(default_params(6));
  const auto result = engine.run(net, input);
  const auto expected = dnn::reference_forward(net, input);
  // Pure feed-forward path: same kernels as the reference, tolerance only
  // for kernel-order float differences (scatter vs gather).
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, expected), 1e-4f);
  EXPECT_DOUBLE_EQ(result.diagnostics.at("centroids"), 0.0);
}

TEST(SnicitEngine, ThresholdBeyondDepthIsClamped) {
  auto [net, input] = make_test_net(6);
  SnicitEngine engine(default_params(99));
  const auto result = engine.run(net, input);
  EXPECT_DOUBLE_EQ(result.diagnostics.at("threshold_layer"), 6.0);
}

TEST(SnicitEngine, ForcedKernelsProduceSameCategories) {
  auto [net, input] = make_test_net();
  const auto expected = dnn::reference_forward(net, input);
  for (auto kernel :
       {sparse::SpmmVariant::kGatherScalar, sparse::SpmmVariant::kScatter,
        sparse::SpmmVariant::kGatherSimd}) {
    auto params = default_params(8);
    params.spmm.variant = kernel;
    SnicitEngine engine(params);
    const auto result = engine.run(net, input);
    EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, expected), 5e-3f)
        << "kernel " << sparse::to_string(kernel);
  }
}

TEST(SnicitEngine, TopCategoriesInvariantUnderEverySpmmVariant) {
  // The SDGC scoring criterion must not depend on which kernel the
  // autotuner picks: force every variant (plus auto) through both phases.
  auto [net, input] = make_test_net();
  const auto expected = dnn::reference_forward(net, input);
  const auto golden_cats = dnn::sdgc_categories(expected, 1e-3f);
  for (int i = -1; i < sparse::kNumSpmmVariants; ++i) {
    auto params = default_params(8);
    params.spmm.variant = static_cast<sparse::SpmmVariant>(i);
    SnicitEngine engine(params);
    const auto result = engine.run(net, input);
    EXPECT_DOUBLE_EQ(
        dnn::category_match_rate(dnn::sdgc_categories(result.output, 1e-3f),
                                 golden_cats),
        1.0)
        << "variant " << sparse::to_string(params.spmm.variant);
  }
}

TEST(SnicitEngine, TopCategoriesInvariantUnderSerialRegion) {
  // One pool worker vs the full pool must score identically (kernels are
  // order-deterministic; only the arm selection may legitimately differ).
  auto [net, input] = make_test_net();
  const auto expected = dnn::reference_forward(net, input);
  const auto golden_cats = dnn::sdgc_categories(expected, 1e-3f);
  platform::ScopedSerialRegion serial;
  SnicitEngine engine(default_params(8));
  const auto result = engine.run(net, input);
  EXPECT_DOUBLE_EQ(
      dnn::category_match_rate(dnn::sdgc_categories(result.output, 1e-3f),
                               golden_cats),
      1.0);
}

TEST(SnicitEngine, TraceRecordsPostConvergenceCompression) {
  auto [net, input] = make_test_net(20, 5);
  auto params = default_params(10);
  params.record_trace = true;
  SnicitEngine engine(params);
  engine.run(net, input);
  const auto& trace = engine.last_trace();
  EXPECT_EQ(trace.threshold_layer, 10);
  EXPECT_GE(trace.centroid_count, 1u);
  ASSERT_EQ(trace.ne_count.size(), 10u);  // 20 - 10 post layers
  // Non-empty count never exceeds the batch and includes the centroids.
  for (auto c : trace.ne_count) {
    EXPECT_GE(c, trace.centroid_count);
    EXPECT_LE(c, input.cols());
  }
}

TEST(SnicitEngine, PruningTradesAccuracyMonotonically) {
  auto [net, input] = make_test_net(16, 8);
  const auto expected = dnn::reference_forward(net, input);
  auto p0 = default_params(8);
  p0.prune_threshold = 0.0f;
  auto p1 = default_params(8);
  p1.prune_threshold = 0.02f;
  SnicitEngine e0(p0);
  SnicitEngine e1(p1);
  const float err0 =
      dnn::DenseMatrix::max_abs_diff(e0.run(net, input).output, expected);
  const float err1 =
      dnn::DenseMatrix::max_abs_diff(e1.run(net, input).output, expected);
  EXPECT_LE(err0, err1 + 1e-6f);
}

TEST(SnicitEngine, AutoThresholdPicksEarlierLayer) {
  auto [net, input] = make_test_net(24, 3);
  auto params = default_params(24);  // upper bound: whole net
  params.auto_threshold = true;
  params.auto_level = 0.05f;
  params.record_trace = true;
  SnicitEngine engine(params);
  const auto result = engine.run(net, input);
  const auto expected = dnn::reference_forward(net, input);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, expected), 5e-3f);
  // On a saturating SDGC-style net the detector should fire well before
  // the bound.
  EXPECT_LT(engine.last_trace().threshold_layer, 24);
  EXPECT_GE(engine.last_trace().threshold_layer, 1);
}

TEST(SnicitEngine, NeRefreshIntervalDoesNotChangeResults) {
  auto [net, input] = make_test_net(18, 6);
  auto p_every = default_params(6);
  p_every.ne_refresh_interval = 1;
  auto p_rare = default_params(6);
  p_rare.ne_refresh_interval = 200;
  SnicitEngine a(p_every);
  SnicitEngine b(p_rare);
  const auto ya = a.run(net, input).output;
  const auto yb = b.run(net, input).output;
  EXPECT_FLOAT_EQ(dnn::DenseMatrix::max_abs_diff(ya, yb), 0.0f);
}

TEST(SnicitEngine, PostKernelsAgree) {
  auto [net, input] = make_test_net(18, 7);
  auto p_scatter = default_params(8);
  p_scatter.spmm.variant = sparse::SpmmVariant::kScatter;
  auto p_gather = default_params(8);
  p_gather.spmm.variant = sparse::SpmmVariant::kGatherScalar;
  SnicitEngine a(p_scatter);
  SnicitEngine b(p_gather);
  const auto ya = a.run(net, input).output;
  const auto yb = b.run(net, input).output;
  // Different accumulation orders: tolerance, not bitwise.
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(ya, yb), 1e-4f);
}

TEST(SnicitEngine, DeterministicAcrossRuns) {
  auto [net, input] = make_test_net();
  SnicitEngine engine(default_params(8));
  const auto a = engine.run(net, input).output;
  const auto b = engine.run(net, input).output;
  EXPECT_FLOAT_EQ(dnn::DenseMatrix::max_abs_diff(a, b), 0.0f);
}

}  // namespace
}  // namespace snicit::core
