#include "baselines/autotune.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "radixnet/radixnet.hpp"

namespace snicit::baselines {
namespace {

struct Workload {
  dnn::SparseDnn net;
  dnn::DenseMatrix input;
};

Workload make_workload(int layers, std::uint64_t seed = 20) {
  radixnet::RadixNetOptions opt;
  opt.neurons = 128;
  opt.layers = layers;
  opt.fanin = 16;
  opt.seed = seed;
  auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = 128;
  in_opt.batch = 32;
  in_opt.seed = seed + 1;
  auto input = data::make_sdgc_input(in_opt).features;
  return {std::move(net), std::move(input)};
}

TEST(Autotune, MatchesReference) {
  auto wl = make_workload(16);
  AutotuneEngine engine;
  const auto result = engine.run(wl.net, wl.input);
  const auto golden = dnn::reference_forward(wl.net, wl.input);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, golden), 1e-3f);
  EXPECT_EQ(result.layer_ms.size(), 16u);
}

TEST(Autotune, CommitsAfterTriallingAllArms) {
  auto wl = make_workload(20);
  AutotuneEngine engine;
  engine.run(wl.net, wl.input);
  // With 20 layers and 1 trial round per arm, at least the bucket the
  // steady-state density falls into must have committed to a valid
  // kernel variant.
  const auto arms = engine.committed_arms();
  bool any_committed = false;
  for (int arm : arms) {
    if (arm >= 0) {
      EXPECT_LT(arm, sparse::kNumSpmmVariants);
      any_committed = true;
    }
  }
  EXPECT_TRUE(any_committed);
}

TEST(Autotune, ForcedVariantSkipsTrials) {
  auto wl = make_workload(8);
  AutotuneOptions opt;
  opt.policy.variant = sparse::SpmmVariant::kGatherSimd;
  AutotuneEngine engine(opt);
  const auto result = engine.run(wl.net, wl.input);
  const auto golden = dnn::reference_forward(wl.net, wl.input);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, golden), 1e-3f);
  // Every bucket reports the forced variant, even ones never visited.
  for (int arm : engine.committed_arms()) {
    EXPECT_EQ(arm, static_cast<int>(sparse::SpmmVariant::kGatherSimd));
  }
}

TEST(Autotune, ArmListCoversKernelFamily) {
  AutotuneEngine engine;
  const auto arms = engine.arm_list();
  EXPECT_GE(arms.size(), 4u);  // scalar/SIMD gather, 2x scatter
  for (auto v : arms) {
    EXPECT_GE(static_cast<int>(v), 0);
    EXPECT_LT(static_cast<int>(v), sparse::kNumSpmmVariants);
  }
}

TEST(Autotune, ShortNetMayStayInTrialsButIsStillExact) {
  auto wl = make_workload(2);  // fewer layers than arms
  AutotuneEngine engine;
  const auto result = engine.run(wl.net, wl.input);
  const auto golden = dnn::reference_forward(wl.net, wl.input);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, golden), 1e-3f);
}

TEST(Autotune, DiagnosticsExposeArms) {
  auto wl = make_workload(20);
  AutotuneEngine engine;
  const auto result = engine.run(wl.net, wl.input);
  EXPECT_EQ(result.diagnostics.count("bucket0_arm"), 1u);
  EXPECT_EQ(result.diagnostics.count("bucket1_arm"), 1u);
  EXPECT_EQ(result.diagnostics.count("bucket2_arm"), 1u);
}

TEST(Autotune, TrialRoundsRespected) {
  auto wl = make_workload(30);
  AutotuneOptions opt;
  opt.trial_rounds = 3;  // 9 trial layers before a bucket commits
  AutotuneEngine engine(opt);
  const auto result = engine.run(wl.net, wl.input);
  const auto golden = dnn::reference_forward(wl.net, wl.input);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, golden), 1e-3f);
}

TEST(AutotuneDeathTest, InvalidOptionsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        AutotuneOptions opt;
        opt.trial_rounds = 0;
        AutotuneEngine engine(opt);
      },
      "trial_rounds");
}

}  // namespace
}  // namespace snicit::baselines
