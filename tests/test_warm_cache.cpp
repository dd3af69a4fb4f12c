#include "snicit/warm_cache.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "snicit/engine.hpp"

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "radixnet/radixnet.hpp"

namespace snicit::core {
namespace {

struct Workload {
  dnn::SparseDnn net;
  dnn::DenseMatrix batch1;
  dnn::DenseMatrix batch2;
};

Workload make_workload() {
  radixnet::RadixNetOptions opt;
  opt.neurons = 128;
  opt.layers = 20;
  opt.fanin = 16;
  opt.seed = 40;
  auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = 128;
  in_opt.batch = 80;
  in_opt.classes = 6;
  in_opt.seed = 41;  // both batches drawn from the same distribution
  const auto full = data::make_sdgc_input(in_opt);
  Workload wl{std::move(net), {}, {}};
  wl.batch1 = full.features;  // first 80 columns
  data::SdgcInputOptions second = in_opt;
  second.seed = 41;  // same prototypes (same seed), fresh batch slice
  auto other = data::make_sdgc_input(second);
  wl.batch2 = other.features;
  return wl;
}

SnicitParams base_params() {
  SnicitParams p;
  p.threshold_layer = 8;
  p.sample_size = 24;
  p.downsample_dim = 0;
  return p;
}

TEST(ConvertWithCache, AppendsCentroidColumns) {
  // A warm run converts against the cache: the k cached centroids are
  // appended as batch columns [B, B+k) of the compressed batch the stage
  // loop leaves in its workspace, and recovery drops them again.
  auto wl = make_workload();
  WarmSnicitEngine warm(base_params());
  warm.run(wl.net, wl.batch1);  // establish the cache
  ASSERT_TRUE(warm.warmed());
  const std::size_t b = wl.batch1.cols();
  const std::size_t k = warm.cache().size();

  platform::Workspace ws;
  dnn::RunResult result;
  warm.run_into(wl.net, wl.batch1, ws, result);
  EXPECT_EQ(result.output.cols(), b);
  const auto& batch = ws.state<CompressedBatch>();
  ASSERT_EQ(batch.batch(), b + k);  // B originals + k cached
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_TRUE(batch.is_centroid(b + c));
  }
  // Every original maps to a cached centroid. Each cached centroid was
  // copied from a column of this very batch, so that column maps to it
  // with an empty residue (which Eq. (5) keeps empty).
  std::vector<int> exact_members(k, 0);
  for (std::size_t j = 0; j < b; ++j) {
    ASSERT_FALSE(batch.is_centroid(j));
    const auto c = static_cast<std::size_t>(batch.mapper[j]);
    ASSERT_GE(c, b);
    ASSERT_LT(c, b + k);
    if (batch.ne_rec[j] == 0) ++exact_members[c - b];
  }
  for (std::size_t c = 0; c < k; ++c) {
    EXPECT_GE(exact_members[c], 1) << "cached centroid " << c;
  }
}

TEST(WarmEngine, ColdRunMatchesPlainSnicit) {
  auto wl = make_workload();
  WarmSnicitEngine warm(base_params());
  SnicitEngine plain(base_params());
  const auto a = warm.run(wl.net, wl.batch1);
  const auto b = plain.run(wl.net, wl.batch1);
  EXPECT_FLOAT_EQ(dnn::DenseMatrix::max_abs_diff(a.output, b.output), 0.0f);
  EXPECT_TRUE(warm.warmed());
  EXPECT_DOUBLE_EQ(a.diagnostics.at("warm"), 0.0);
}

TEST(WarmEngine, WarmRunMatchesReference) {
  auto wl = make_workload();
  WarmSnicitEngine warm(base_params());
  warm.run(wl.net, wl.batch1);  // establish cache
  const auto result = warm.run(wl.net, wl.batch2);
  EXPECT_DOUBLE_EQ(result.diagnostics.at("warm"), 1.0);
  const auto golden = dnn::reference_forward(wl.net, wl.batch2);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, golden), 5e-3f);
  EXPECT_EQ(result.output.cols(), wl.batch2.cols());  // centroids dropped
  EXPECT_DOUBLE_EQ(
      dnn::category_match_rate(dnn::sdgc_categories(result.output, 1e-3f),
                               dnn::sdgc_categories(golden, 1e-3f)),
      1.0);
}

TEST(WarmEngine, WarmConversionSkipsSamplingCost) {
  // The warm path must not *re-derive* centroids: its cache size stays
  // fixed across runs.
  auto wl = make_workload();
  WarmSnicitEngine warm(base_params());
  warm.run(wl.net, wl.batch1);
  const auto k = warm.cache().size();
  warm.run(wl.net, wl.batch2);
  warm.run(wl.net, wl.batch1);
  EXPECT_EQ(warm.cache().size(), k);
}

TEST(WarmEngine, ResetForcesRecalibration) {
  auto wl = make_workload();
  WarmSnicitEngine warm(base_params());
  warm.run(wl.net, wl.batch1);
  ASSERT_TRUE(warm.warmed());
  warm.reset();
  EXPECT_FALSE(warm.warmed());
  const auto result = warm.run(wl.net, wl.batch2);
  EXPECT_DOUBLE_EQ(result.diagnostics.at("warm"), 0.0);  // cold again
  EXPECT_TRUE(warm.warmed());
}

TEST(WarmEngineDeathTest, AutoThresholdRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto params = base_params();
        params.auto_threshold = true;
        WarmSnicitEngine warm(params);
      },
      "auto_threshold");
}

TEST(WarmEngine, ThresholdAtDepthSkipsConversionAndStaysCold) {
  // t >= l: no post-convergence layer remains, so both engines return the
  // plain feed-forward Y(l) before conversion. The warm engine has no
  // centroids to cache, stays unwarmed and has nothing to save.
  auto wl = make_workload();
  auto params = base_params();
  params.threshold_layer = static_cast<int>(wl.net.num_layers()) + 5;
  WarmSnicitEngine warm(params);
  SnicitEngine plain(params);
  const auto golden = dnn::reference_forward(wl.net, wl.batch1);
  const auto a = warm.run(wl.net, wl.batch1);
  const auto b = plain.run(wl.net, wl.batch1);
  EXPECT_FLOAT_EQ(dnn::DenseMatrix::max_abs_diff(a.output, golden), 0.0f);
  EXPECT_FLOAT_EQ(dnn::DenseMatrix::max_abs_diff(b.output, golden), 0.0f);
  EXPECT_DOUBLE_EQ(a.diagnostics.at("centroids"), 0.0);
  EXPECT_DOUBLE_EQ(a.diagnostics.at("warm"), 0.0);
  EXPECT_FALSE(warm.warmed());
  const auto saved =
      warm.save_state(::testing::TempDir() + "warm_unconverted.snap");
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.error().code, platform::ErrorCode::kBadInput);
}

// Property sweep: warm runs agree with the exact reference across seeds.
class WarmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WarmFuzz, WarmRunsTrackReference) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  radixnet::RadixNetOptions opt;
  opt.neurons = 96;
  opt.layers = 14;
  opt.fanin = 12;
  opt.seed = seed;
  const auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = 96;
  in_opt.batch = 30;
  in_opt.seed = seed + 1;
  const auto first = data::make_sdgc_input(in_opt).features;
  in_opt.seed = seed + 2;  // fresh prototypes: mild distribution shift
  const auto second = data::make_sdgc_input(in_opt).features;

  auto params = base_params();
  params.threshold_layer = 6;
  WarmSnicitEngine warm(params);
  warm.run(net, first);
  const auto result = warm.run(net, second);
  const auto golden = dnn::reference_forward(net, second);
  // Even under prototype shift the cached-centroid path is exact without
  // pruning: residues are just denser.
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, golden), 5e-3f)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmFuzz, ::testing::Range(1, 7));

}  // namespace
}  // namespace snicit::core
