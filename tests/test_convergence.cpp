#include "snicit/convergence.hpp"

#include <gtest/gtest.h>

#include "platform/rng.hpp"

namespace snicit::core {
namespace {

/// Batch whose columns all equal `value` (fully clustered).
DenseMatrix uniform_batch(std::size_t n, std::size_t b, float value) {
  return DenseMatrix(n, b, value);
}

/// Batch of mutually distant columns (no clustering).
DenseMatrix scattered_batch(std::size_t n, std::size_t b) {
  DenseMatrix y(n, b);
  for (std::size_t j = 0; j < b; ++j) {
    for (std::size_t r = 0; r < n; ++r) {
      y.at(r, j) = static_cast<float>(j) * 10.0f +
                   static_cast<float>(r % 7) * 0.5f;
    }
  }
  return y;
}

TEST(ConvergenceDetector, NeedsTwoClusteredLayers) {
  ConvergenceDetector det(0.01f);
  const auto y = uniform_batch(64, 16, 1.0f);
  EXPECT_FALSE(det.observe(y));  // first clustered layer
  EXPECT_TRUE(det.observe(y));   // second -> converged
  EXPECT_TRUE(det.converged());
  EXPECT_DOUBLE_EQ(det.last_distance(), 0.0);
}

TEST(ConvergenceDetector, ScatteredBatchNeverConverges) {
  ConvergenceDetector det(0.01f);
  const auto y = scattered_batch(64, 16);
  for (int layer = 0; layer < 10; ++layer) {
    EXPECT_FALSE(det.observe(y));
  }
  EXPECT_GT(det.last_distance(), 0.5);
}

TEST(ConvergenceDetector, ValuesMayChangeAcrossLayersWhileClustered) {
  // The essential semantics: convergence is columns matching EACH OTHER,
  // not staying constant over layers (weights differ per layer).
  ConvergenceDetector det(0.01f);
  EXPECT_FALSE(det.observe(uniform_batch(32, 8, 1.0f)));
  EXPECT_TRUE(det.observe(uniform_batch(32, 8, 7.0f)));  // new value, still
                                                         // clustered
}

TEST(ConvergenceDetector, DeclusteringResetsTheStreak) {
  ConvergenceDetector det(0.01f);
  det.observe(uniform_batch(32, 8, 1.0f));   // hit 1
  EXPECT_FALSE(det.observe(scattered_batch(32, 8)));  // reset
  EXPECT_FALSE(det.observe(uniform_batch(32, 8, 2.0f)));  // hit 1
  EXPECT_TRUE(det.observe(uniform_batch(32, 8, 3.0f)));   // hit 2
}

TEST(ConvergenceDetector, ToleratesSubEtaJitter) {
  ConvergenceDetector det(0.1f);
  platform::Rng rng(5);
  DenseMatrix y(32, 8, 1.0f);
  for (std::size_t i = 0; i < 32 * 8; ++i) {
    y.data()[i] += rng.uniform(-0.04f, 0.04f);  // columns differ < eta
  }
  EXPECT_FALSE(det.observe(y));
  EXPECT_TRUE(det.observe(y));
}

TEST(ConvergenceDetector, TwoClusterBatchConverges) {
  // Clusters need not be a single attractor: any near-duplicate structure
  // gives every column a near neighbour.
  ConvergenceDetector det(0.01f);
  DenseMatrix y(32, 8);
  for (std::size_t j = 0; j < 8; ++j) {
    const float v = (j % 2 == 0) ? 1.0f : 5.0f;
    for (std::size_t r = 0; r < 32; ++r) y.at(r, j) = v;
  }
  det.observe(y);
  EXPECT_TRUE(det.observe(y));
}

TEST(ConvergenceDetector, PartialClusteringScoresBetweenExtremes) {
  ConvergenceDetector det(0.01f);
  // Columns agree on the first half of rows, differ on the second. The
  // probe covers the whole 64 x 8 matrix (it is clamped to the matrix).
  DenseMatrix y(64, 8, 1.0f);
  for (std::size_t j = 0; j < 8; ++j) {
    for (std::size_t r = 32; r < 64; ++r) {
      y.at(r, j) = static_cast<float>(j * 100 + r);
    }
  }
  det.observe(y);
  EXPECT_NEAR(det.last_distance(), 0.5, 0.05);
}

TEST(ConvergenceDetector, ResetClearsState) {
  ConvergenceDetector det(0.01f);
  det.observe(uniform_batch(16, 4, 1.0f));
  det.observe(uniform_batch(16, 4, 1.0f));
  ASSERT_TRUE(det.converged());
  det.reset();
  EXPECT_FALSE(det.converged());
  EXPECT_DOUBLE_EQ(det.last_distance(), 1.0);
}

TEST(ConvergenceDetector, DegenerateInputsIgnored) {
  ConvergenceDetector det;
  DenseMatrix empty;
  EXPECT_FALSE(det.observe(empty));
  DenseMatrix single(8, 1, 1.0f);  // one column: no neighbour to compare
  EXPECT_FALSE(det.observe(single));
  EXPECT_FALSE(det.converged());
}

}  // namespace
}  // namespace snicit::core
