#include "baselines/serial.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/rng.hpp"
#include "radixnet/radixnet.hpp"
#include "sparse/coo.hpp"

namespace snicit::baselines {
namespace {

TEST(SerialBaseline, MatchesReferenceBitwise) {
  // Trained-style net: random weights and a different bias per neuron,
  // with inputs that keep activations alive to the output (an all-zero
  // result would match whatever order the loop sums in).
  constexpr sparse::Index kNeurons = 128;
  platform::Rng rng(7);
  std::vector<sparse::CsrMatrix> w;
  std::vector<std::vector<float>> b;
  for (int layer = 0; layer < 6; ++layer) {
    sparse::CooMatrix coo(kNeurons, kNeurons);
    for (sparse::Index r = 0; r < kNeurons; ++r) {
      for (sparse::Index c = 0; c < kNeurons; ++c) {
        if (rng.next_bool(0.2)) coo.add(r, c, rng.uniform(-0.5f, 0.5f));
      }
    }
    w.push_back(sparse::CsrMatrix::from_coo(coo));
    b.emplace_back(static_cast<std::size_t>(kNeurons));
    for (auto& v : b.back()) v = rng.uniform(-0.3f, 0.3f);
  }
  const dnn::SparseDnn net(kNeurons, std::move(w), std::move(b), 32.0f,
                           "row-bias");
  dnn::DenseMatrix x(static_cast<std::size_t>(kNeurons), 16);
  for (std::size_t i = 0; i < x.rows() * x.cols(); ++i) {
    x.data()[i] = rng.uniform(0.0f, 1.0f);
  }

  SerialEngine engine;
  const auto result = engine.run(net, x);
  const auto expected = dnn::reference_forward(net, x);
  ASSERT_GT(expected.count_nonzeros(), 0u);
  // Same CSR-order row sum and bias-after-sum epilogue as the reference:
  // bitwise equal.
  EXPECT_EQ(std::memcmp(result.output.data(), expected.data(),
                        sizeof(float) * x.rows() * x.cols()),
            0);
  EXPECT_EQ(result.layer_ms.size(), 6u);
  EXPECT_EQ(result.stages.entries().size(), 1u);
}

TEST(SerialBaseline, HandlesVectorBias) {
  // A trained-style net with per-neuron biases must flow through the
  // naive loop unchanged.
  sparse::CooMatrix coo(3, 3);
  coo.add(0, 0, 1.0f);
  coo.add(1, 1, 2.0f);
  coo.add(2, 0, -1.0f);
  std::vector<sparse::CsrMatrix> w;
  w.push_back(sparse::CsrMatrix::from_coo(coo));
  std::vector<std::vector<float>> b = {{0.1f, 0.2f, 0.3f}};
  dnn::SparseDnn net(3, std::move(w), std::move(b), 1.0f, "vb");

  dnn::DenseMatrix x(3, 1);
  x.at(0, 0) = 0.5f;
  x.at(1, 0) = 0.25f;
  SerialEngine engine;
  const auto y = engine.run(net, x).output;
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.6f);   // 0.5 + 0.1
  EXPECT_FLOAT_EQ(y.at(1, 0), 0.7f);   // 0.5 + 0.2
  EXPECT_FLOAT_EQ(y.at(2, 0), 0.0f);   // -0.5 + 0.3 clipped
}

TEST(SerialBaseline, SlowerOrEqualToParallelEngines) {
  // Sanity property used by the Table 3 narrative: on non-trivial
  // workloads the naive serial loop is the slowest engine. (Timing
  // assertions are fragile; assert only non-negative + recorded.)
  radixnet::RadixNetOptions opt;
  opt.neurons = 128;
  opt.layers = 6;
  opt.fanin = 16;
  const auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = 128;
  in_opt.batch = 32;
  const auto input = data::make_sdgc_input(in_opt).features;
  SerialEngine engine;
  const auto result = engine.run(net, input);
  EXPECT_GT(result.total_ms(), 0.0);
}

}  // namespace
}  // namespace snicit::baselines
