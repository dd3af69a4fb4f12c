// Randomized cross-engine equivalence and kernel edge-case fuzzing.
// Every engine (and SNICIT under randomized parameters) must agree with
// the exact reference on randomly shaped workloads; kernels must survive
// degenerate inputs (empty rows, all-zero batches, single columns,
// extreme values).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/bf2019.hpp"
#include "baselines/serial.hpp"
#include "baselines/snig2020.hpp"
#include "baselines/xy2021.hpp"
#include "builder.hpp"
#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/rng.hpp"
#include "radixnet/radixnet.hpp"
#include "snicit/engine.hpp"
#include "sparse/coo.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_policy.hpp"

namespace snicit {
namespace {

class EngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzz, AllEnginesAgreeOnRandomWorkloads) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  platform::Rng rng(seed * 2654435761ULL + 17);

  radixnet::RadixNetOptions opt;
  opt.neurons = static_cast<sparse::Index>(32 + 16 * rng.next_below(8));
  opt.layers = static_cast<int>(1 + rng.next_below(20));
  opt.fanin = static_cast<int>(
      2 + rng.next_below(static_cast<std::uint64_t>(opt.neurons / 4)));
  opt.seed = seed;
  const auto net = radixnet::make_radixnet(opt);

  data::SdgcInputOptions in_opt;
  in_opt.neurons = static_cast<std::size_t>(opt.neurons);
  in_opt.batch = 1 + rng.next_below(48);
  in_opt.classes = 1 + rng.next_below(10);
  in_opt.seed = seed + 99;
  const auto input = data::make_sdgc_input(in_opt).features;

  const auto golden = dnn::reference_forward(net, input);

  baselines::Bf2019Engine bf(1 + rng.next_below(5));
  baselines::Snig2020Engine snig(1 + rng.next_below(4),
                                 1 + rng.next_below(6));
  baselines::Xy2021Engine xy;
  baselines::SerialEngine serial;
  for (dnn::InferenceEngine* engine :
       std::initializer_list<dnn::InferenceEngine*>{&bf, &snig, &xy,
                                                    &serial}) {
    const auto result = engine->run(net, input);
    EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, golden), 1e-3f)
        << engine->name() << " seed=" << seed << " N=" << opt.neurons
        << " l=" << opt.layers << " B=" << input.cols();
  }

  // SNICIT with randomized parameters (no pruning: must track golden).
  core::SnicitParams params;
  params.threshold_layer = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(opt.layers) + 2));
  params.sample_size =
      static_cast<int>(1 + rng.next_below(input.cols()));
  params.downsample_dim = static_cast<int>(rng.next_below(32));
  params.ne_refresh_interval = static_cast<int>(1 + rng.next_below(10));
  params.reconvert_interval = static_cast<int>(rng.next_below(8));
  core::SnicitEngine snicit(params);
  const auto result = snicit.run(net, input);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, golden), 2e-2f)
      << "SNICIT seed=" << seed << " t=" << params.threshold_layer
      << " s=" << params.sample_size << " n=" << params.downsample_dim;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range(1, 25));

// Column-subset kernel property: for random (W, Y, subset) triples every
// arm's column-subset dispatch must (a) leave untouched columns
// bit-identical and (b) produce, on the touched columns, exactly its
// family's full scalar arm's values for those columns (same per-column
// accumulation order, so the match is bitwise, not approximate).
class ColsKernelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ColsKernelFuzz, SubsetVariantsTouchOnlyTheirColumns) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  platform::Rng rng(seed * 48271 + 5);
  const auto rows = static_cast<sparse::Index>(8 + rng.next_below(72));
  const auto cols = static_cast<sparse::Index>(8 + rng.next_below(72));
  sparse::CooMatrix coo(rows, cols);
  for (sparse::Index r = 0; r < rows; ++r) {
    for (sparse::Index c = 0; c < cols; ++c) {
      if (rng.next_bool(0.2)) coo.add(r, c, rng.uniform(-1.0f, 1.0f));
    }
  }
  const auto w = sparse::CsrMatrix::from_coo(coo);
  const auto w_csc = sparse::CscMatrix::from_csr(w);

  const std::size_t batch = 1 + rng.next_below(40);
  dnn::DenseMatrix y(static_cast<std::size_t>(cols), batch);
  for (std::size_t i = 0; i < y.rows() * y.cols(); ++i) {
    if (rng.next_bool(0.5)) y.data()[i] = rng.uniform(0.0f, 2.0f);
  }
  std::vector<sparse::Index> subset;
  for (std::size_t j = 0; j < batch; ++j) {
    if (rng.next_bool(0.5)) subset.push_back(static_cast<sparse::Index>(j));
  }

  dnn::DenseMatrix full_gather(static_cast<std::size_t>(rows), batch);
  sparse::spmm_gather(w, y, full_gather);
  dnn::DenseMatrix full_scatter(static_cast<std::size_t>(rows), batch);
  sparse::spmm_dispatch(w, &w_csc, y, full_scatter, 0.5,
                        {sparse::SpmmVariant::kScatter});

  constexpr float kSentinel = 123.25f;
  const auto check = [&](const dnn::DenseMatrix& out,
                         const dnn::DenseMatrix& full, const char* name) {
    std::vector<bool> touched(batch, false);
    for (sparse::Index jc : subset) {
      touched[static_cast<std::size_t>(jc)] = true;
    }
    for (std::size_t j = 0; j < batch; ++j) {
      const float* oc = out.col(j);
      const float* fc = full.col(j);
      for (std::size_t r = 0; r < out.rows(); ++r) {
        if (touched[j]) {
          ASSERT_EQ(std::memcmp(&oc[r], &fc[r], sizeof(float)), 0)
              << name << " seed=" << seed << " col " << j << " row " << r;
        } else {
          ASSERT_EQ(oc[r], kSentinel)
              << name << " seed=" << seed << " clobbered col " << j;
        }
      }
    }
  };

  for (int i = 0; i < sparse::kNumSpmmVariants; ++i) {
    const auto v = static_cast<sparse::SpmmVariant>(i);
    const bool scatter = v == sparse::SpmmVariant::kScatter ||
                         v == sparse::SpmmVariant::kScatterSimd;
    dnn::DenseMatrix out(static_cast<std::size_t>(rows), batch, kSentinel);
    sparse::spmm_dispatch_cols(w, &w_csc, y, subset, out, 0.5, {v});
    check(out, scatter ? full_scatter : full_gather, sparse::to_string(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColsKernelFuzz, ::testing::Range(1, 21));

TEST(KernelEdge, SingleNeuronNetwork) {
  dnn::DnnBuilder builder(1, 4.0f);
  const auto net =
      builder.add_layer({{0, 0, 2.0f}}).with_bias(-0.5f).build();
  dnn::DenseMatrix x(1, 3);
  x.at(0, 0) = 1.0f;
  x.at(0, 1) = 0.1f;
  x.at(0, 2) = 3.0f;
  const auto y = dnn::reference_forward(net, x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 0.0f);   // 0.2-0.5 clipped
  EXPECT_FLOAT_EQ(y.at(0, 2), 4.0f);   // 5.5 clipped at ymax
}

TEST(KernelEdge, SingleColumnBatchThroughSnicit) {
  radixnet::RadixNetOptions opt;
  opt.neurons = 32;
  opt.layers = 6;
  opt.fanin = 4;
  const auto net = radixnet::make_radixnet(opt);
  dnn::DenseMatrix x(32, 1, 0.7f);
  core::SnicitParams params;
  params.threshold_layer = 3;
  params.sample_size = 8;  // clamped to the 1 available column
  core::SnicitEngine engine(params);
  const auto result = engine.run(net, x);
  const auto golden = dnn::reference_forward(net, x);
  EXPECT_LE(dnn::DenseMatrix::max_abs_diff(result.output, golden), 1e-4f);
  EXPECT_DOUBLE_EQ(result.diagnostics.at("centroids"), 1.0);
}

TEST(KernelEdge, AllZeroInputStaysConsistent) {
  radixnet::RadixNetOptions opt;
  opt.neurons = 64;
  opt.layers = 5;
  opt.fanin = 8;
  opt.bias = -0.1f;  // negative bias keeps zeros at zero
  const auto net = radixnet::make_radixnet(opt);
  dnn::DenseMatrix x(64, 8);  // all zeros
  core::SnicitParams params;
  params.threshold_layer = 2;
  core::SnicitEngine engine(params);
  const auto result = engine.run(net, x);
  EXPECT_EQ(result.output.count_nonzeros(), 0u);
}

TEST(KernelEdge, ExtremeValuesDoNotOverflow) {
  dnn::DnnBuilder builder(4, 32.0f);
  const auto net = builder
                       .add_layer({{0, 0, 1e30f},
                                   {1, 1, -1e30f},
                                   {2, 2, 1e-30f},
                                   {3, 3, 1.0f}})
                       .build();
  dnn::DenseMatrix x(4, 1, 1.0f);
  const auto y = dnn::reference_forward(net, x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 32.0f);  // huge positive clipped
  EXPECT_FLOAT_EQ(y.at(1, 0), 0.0f);   // huge negative clipped
  EXPECT_FLOAT_EQ(y.at(2, 0), 1e-30f);
  EXPECT_FLOAT_EQ(y.at(3, 0), 1.0f);
}

TEST(KernelEdge, DenormalActivationsSurviveKernels) {
  platform::Rng rng(3);
  sparse::CooMatrix coo(8, 8);
  for (int i = 0; i < 8; ++i) {
    coo.add(i, (i + 1) % 8, 1.0f);
  }
  const auto w = sparse::CsrMatrix::from_coo(coo);
  dnn::DenseMatrix y(8, 2, 1e-40f);  // subnormal floats
  dnn::DenseMatrix out(8, 2);
  sparse::spmm_gather(w, y, out);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_GE(out.data()[i], 0.0f);
    EXPECT_LT(out.data()[i], 1e-30f);
  }
}

}  // namespace
}  // namespace snicit
