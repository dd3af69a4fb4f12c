// Graceful-degradation suite: the SNICIT divergence guard must catch
// injected numerical corruption (NaN tiles from the load-reduced spMM,
// poisoned conversion output), fall back mid-network to the dense
// baseline path, match the serial reference exactly, and attribute the
// fallback in traces/diagnostics/metrics and StreamResult — on fresh and
// on cached-centroid (warmed WarmSnicitEngine) conversions alike.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/fault_injection.hpp"
#include "platform/metrics.hpp"
#include "radixnet/radixnet.hpp"
#include "snicit/engine.hpp"
#include "snicit/parallel_stream.hpp"
#include "snicit/warm_cache.hpp"

namespace snicit::core {
namespace {

struct Workload {
  dnn::SparseDnn net;
  dnn::DenseMatrix input;
};

Workload make_workload(std::size_t batch = 48) {
  radixnet::RadixNetOptions opt;
  opt.neurons = 64;
  opt.layers = 12;
  opt.fanin = 8;
  opt.seed = 17;
  auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = 64;
  in_opt.batch = batch;
  in_opt.seed = 18;
  auto input = data::make_sdgc_input(in_opt).features;
  return {std::move(net), std::move(input)};
}

SnicitParams base_params() {
  SnicitParams p;
  p.threshold_layer = 4;
  p.sample_size = 16;
  p.downsample_dim = 0;
  p.record_trace = true;
  return p;
}

class DegradationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    platform::fault::FaultRegistry::global().clear();
  }
};

TEST_F(DegradationTest, CleanRunNeverFallsBack) {
  auto wl = make_workload();
  SnicitEngine engine(base_params());
  const auto result = engine.run(wl.net, wl.input);
  EXPECT_EQ(engine.last_trace().fallback_layer, -1);
  EXPECT_EQ(result.diagnostics.count("fallback_layer"), 0u);
}

TEST_F(DegradationTest, NanTileTriggersExactDenseFallback) {
  // nan_tile:1.0 poisons the first load-reduced spMM after conversion:
  // the Eq. (5) update detects the NaN at the threshold layer and the
  // engine recomputes layers t..l-1 densely from the checkpointed Y(t).
  // The fallback path must match the serial reference bit-for-bit.
  auto wl = make_workload();
  ASSERT_TRUE(platform::fault::FaultRegistry::global()
                  .configure("nan_tile:1.0", 42)
                  .ok());
  SnicitEngine engine(base_params());
  const auto result = engine.run(wl.net, wl.input);

  EXPECT_EQ(engine.last_trace().fallback_layer, 4);  // t = threshold layer
  ASSERT_EQ(result.diagnostics.count("fallback_layer"), 1u);
  EXPECT_DOUBLE_EQ(result.diagnostics.at("fallback_layer"), 4.0);

  const auto golden = dnn::reference_forward(wl.net, wl.input);
  EXPECT_FLOAT_EQ(dnn::DenseMatrix::max_abs_diff(result.output, golden),
                  0.0f);
  // The run reports a "fallback" stage and full per-layer timings.
  EXPECT_GT(result.stages.get("fallback"), 0.0);
  EXPECT_EQ(result.layer_ms.size(), wl.net.num_layers());
}

TEST_F(DegradationTest, ConvertNanCaughtByPostConversionScan) {
  // convert_nan:1.0 poisons a residue column during conversion — possibly
  // one the load-reduced spMM would never touch — so the engine's
  // post-conversion sanity scan must catch it before any update runs.
  auto wl = make_workload();
  ASSERT_TRUE(platform::fault::FaultRegistry::global()
                  .configure("convert_nan:1.0", 42)
                  .ok());
  SnicitEngine engine(base_params());
  const auto result = engine.run(wl.net, wl.input);

  EXPECT_EQ(engine.last_trace().fallback_layer, 4);
  const auto golden = dnn::reference_forward(wl.net, wl.input);
  EXPECT_FLOAT_EQ(dnn::DenseMatrix::max_abs_diff(result.output, golden),
                  0.0f);
}

// The same drills on a warmed WarmSnicitEngine: its warm runs go through
// the same stage loop, so the guard must catch corruption of a cached
// conversion too and fall back to the reference bit for bit.
void expect_warmed_engine_falls_back(const char* fault_spec) {
  auto wl = make_workload();
  WarmSnicitEngine engine(base_params());
  engine.run(wl.net, wl.input);  // clean cold run fills the cache
  ASSERT_TRUE(engine.warmed());
  ASSERT_TRUE(platform::fault::FaultRegistry::global()
                  .configure(fault_spec, 42)
                  .ok());
  const auto result = engine.run(wl.net, wl.input);

  EXPECT_DOUBLE_EQ(result.diagnostics.at("warm"), 1.0);
  EXPECT_EQ(result.fallback_layer, 4);
  ASSERT_EQ(result.diagnostics.count("fallback_layer"), 1u);
  // Compared by bits: max_abs_diff would not see a NaN that got through.
  const auto golden = dnn::reference_forward(wl.net, wl.input);
  ASSERT_EQ(result.output.rows(), golden.rows());
  ASSERT_EQ(result.output.cols(), golden.cols());
  EXPECT_EQ(std::memcmp(result.output.data(), golden.data(),
                        golden.rows() * golden.cols() * sizeof(float)),
            0);
  EXPECT_EQ(result.layer_ms.size(), wl.net.num_layers());
}

TEST_F(DegradationTest, WarmedEngineNanTileFallsBackExactly) {
  expect_warmed_engine_falls_back("nan_tile:1.0");
}

TEST_F(DegradationTest, WarmedEngineConvertNanFallsBackExactly) {
  expect_warmed_engine_falls_back("convert_nan:1.0");
}

TEST_F(DegradationTest, CorruptColdConversionLeavesWarmEngineCold) {
  // The cache is filled only from a conversion the guard accepted, so a
  // corrupt cold batch cannot pin bad centroids for later batches.
  auto wl = make_workload();
  WarmSnicitEngine engine(base_params());
  ASSERT_TRUE(platform::fault::FaultRegistry::global()
                  .configure("convert_nan:1.0", 42)
                  .ok());
  EXPECT_EQ(engine.run(wl.net, wl.input).fallback_layer, 4);
  EXPECT_FALSE(engine.warmed());
  platform::fault::FaultRegistry::global().clear();
  EXPECT_EQ(engine.run(wl.net, wl.input).fallback_layer, -1);
  EXPECT_TRUE(engine.warmed());
}

TEST_F(DegradationTest, GuardOffLetsCorruptionThrough) {
  // The guard is load-bearing: with divergence_guard=false the same
  // nan_tile drill reaches the output.
  auto wl = make_workload();
  ASSERT_TRUE(platform::fault::FaultRegistry::global()
                  .configure("nan_tile:1.0", 42)
                  .ok());
  auto params = base_params();
  params.divergence_guard = false;
  SnicitEngine engine(params);
  const auto result = engine.run(wl.net, wl.input);

  EXPECT_EQ(engine.last_trace().fallback_layer, -1);
  bool has_nan = false;
  for (std::size_t j = 0; j < result.output.cols() && !has_nan; ++j) {
    const float* col = result.output.col(j);
    for (std::size_t r = 0; r < result.output.rows(); ++r) {
      if (std::isnan(col[r])) {
        has_nan = true;
        break;
      }
    }
  }
  EXPECT_TRUE(has_nan);
}

TEST_F(DegradationTest, FallbackIsCountedInMetrics) {
  auto wl = make_workload();
  ASSERT_TRUE(platform::fault::FaultRegistry::global()
                  .configure("nan_tile:1.0", 42)
                  .ok());
  platform::metrics::set_enabled(true);
  auto& registry = platform::metrics::MetricsRegistry::global();
  const auto before = registry.counter("snicit.fallbacks").get();
  SnicitEngine engine(base_params());
  engine.run(wl.net, wl.input);
  EXPECT_EQ(registry.counter("snicit.fallbacks").get(), before + 1);
  EXPECT_DOUBLE_EQ(registry.gauge("snicit.fallback_layer").get(), 4.0);
  platform::metrics::set_enabled(false);
}

TEST_F(DegradationTest, StreamResultCountsDegradedBatches) {
  // Through the serving pipeline every batch degrades under nan_tile:1.0
  // — StreamResult::degraded_batches accounts for all of them and the
  // stream output still matches the reference exactly.
  auto wl = make_workload(64);
  ASSERT_TRUE(platform::fault::FaultRegistry::global()
                  .configure("nan_tile:1.0", 42)
                  .ok());
  ParallelStreamOptions opt;
  opt.batch_size = 16;  // 4 batches
  opt.workers = 2;
  SnicitEngine engine(base_params());
  const auto result =
      ParallelStreamExecutor(opt).run(engine, wl.net, wl.input);

  EXPECT_TRUE(result.complete());
  EXPECT_EQ(result.degraded_batches, 4u);
  const auto golden = dnn::reference_forward(wl.net, wl.input);
  EXPECT_FLOAT_EQ(dnn::DenseMatrix::max_abs_diff(result.outputs, golden),
                  0.0f);
}

}  // namespace
}  // namespace snicit::core
