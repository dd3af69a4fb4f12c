#include "builder.hpp"

#include <gtest/gtest.h>

#include "dnn/reference.hpp"

namespace snicit::dnn {
namespace {

TEST(Builder, RandomLayerDensity) {
  DnnBuilder builder(64, 1.0f);
  const auto net =
      builder.add_random_layer(0.25, -1.0f, 1.0f, 5).build();
  EXPECT_EQ(net.num_layers(), 1u);
  EXPECT_NEAR(net.weight(0).density(), 0.25, 0.05);
  EXPECT_FLOAT_EQ(net.ymax(), 1.0f);
}

TEST(Builder, BandedLayerStructure) {
  DnnBuilder builder(8);
  const auto net = builder.add_banded_layer(1, 0.5f).build();
  const auto& w = net.weight(0);
  EXPECT_EQ(w.nnz(), 8 * 3);
  // Row 0 connects to 7, 0, 1 (wrapping).
  const auto cols = w.row_cols(0);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], 0);
  EXPECT_EQ(cols[1], 1);
  EXPECT_EQ(cols[2], 7);
  for (float v : w.row_vals(0)) {
    EXPECT_FLOAT_EQ(v, 0.5f);
  }
}

TEST(Builder, ExplicitTripletsAndBias) {
  DnnBuilder builder(3, 10.0f);
  const auto net = builder
                       .add_layer({{0, 1, 2.0f}, {2, 2, -1.0f}})
                       .with_bias(0.5f)
                       .with_name("explicit")
                       .build();
  EXPECT_EQ(net.name(), "explicit");
  EXPECT_TRUE(net.bias_is_constant(0));
  EXPECT_FLOAT_EQ(net.constant_bias(0), 0.5f);

  DenseMatrix x(3, 1);
  x.at(1, 0) = 2.0f;
  const auto y = reference_forward(net, x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 4.5f);  // 2*2 + 0.5
  EXPECT_FLOAT_EQ(y.at(1, 0), 0.5f);  // bias only
  EXPECT_FLOAT_EQ(y.at(2, 0), 0.5f);
}

TEST(Builder, VectorBias) {
  DnnBuilder builder(2, 1.0f);
  const auto net = builder.add_banded_layer(0, 1.0f)
                       .with_bias(std::vector<float>{0.1f, 0.2f})
                       .build();
  EXPECT_FALSE(net.bias_is_constant(0));
  EXPECT_FLOAT_EQ(net.bias(0)[1], 0.2f);
}

TEST(Builder, MultiLayerComposition) {
  DnnBuilder builder(16, 32.0f);
  builder.add_banded_layer(2, 0.1f).with_bias(-0.05f);
  builder.add_random_layer(0.5, 0.0f, 0.2f, 9);
  builder.add_banded_layer(0, 1.0f);
  const auto net = builder.build();
  EXPECT_EQ(net.num_layers(), 3u);
  EXPECT_FLOAT_EQ(net.constant_bias(0), -0.05f);
  EXPECT_FLOAT_EQ(net.constant_bias(1), 0.0f);  // default
}

TEST(Builder, ReusableAfterBuild) {
  DnnBuilder builder(4);
  builder.add_banded_layer(0, 1.0f);
  const auto first = builder.build();
  builder.add_banded_layer(1, 2.0f);
  const auto second = builder.build();
  EXPECT_EQ(first.num_layers(), 1u);
  EXPECT_EQ(second.num_layers(), 1u);
  EXPECT_EQ(second.weight(0).nnz(), 4 * 3);
}

TEST(BuilderDeathTest, BiasBeforeLayerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DnnBuilder builder(4);
        builder.with_bias(1.0f);
      },
      "with_bias");
}

TEST(BuilderDeathTest, BuildWithoutLayersAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DnnBuilder builder(4);
        builder.build();
      },
      "no layers");
}

}  // namespace
}  // namespace snicit::dnn
