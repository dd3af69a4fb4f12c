#include "sparse/spmm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "platform/rng.hpp"
#include "sparse/coo.hpp"

namespace snicit::sparse {
namespace {

/// Dense reference multiply: out = W * y.
DenseMatrix dense_spmm(const CsrMatrix& w, const DenseMatrix& y) {
  DenseMatrix out(static_cast<std::size_t>(w.rows()), y.cols());
  for (std::size_t j = 0; j < y.cols(); ++j) {
    for (Index i = 0; i < w.rows(); ++i) {
      const auto cols = w.row_cols(i);
      const auto vals = w.row_vals(i);
      float acc = 0.0f;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        acc += vals[k] * y.at(static_cast<std::size_t>(cols[k]), j);
      }
      out.at(static_cast<std::size_t>(i), j) = acc;
    }
  }
  return out;
}

CsrMatrix random_weights(Index rows, Index cols, double density,
                         std::uint64_t seed) {
  platform::Rng rng(seed);
  CooMatrix coo(rows, cols);
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < cols; ++c) {
      if (rng.next_bool(density)) {
        coo.add(r, c, rng.uniform(-1.0f, 1.0f));
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

DenseMatrix random_activations(std::size_t rows, std::size_t cols,
                               double density, std::uint64_t seed) {
  platform::Rng rng(seed);
  DenseMatrix y(rows, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.next_bool(density)) {
        y.at(r, j) = rng.uniform(0.0f, 2.0f);
      }
    }
  }
  return y;
}

TEST(SpmmGather, MatchesDenseReference) {
  const auto w = random_weights(24, 32, 0.2, 1);
  const auto y = random_activations(32, 10, 0.8, 2);
  DenseMatrix out(24, 10);
  spmm_gather(w, y, out);
  EXPECT_LE(DenseMatrix::max_abs_diff(out, dense_spmm(w, y)), 1e-5f);
}

TEST(SpmmScatter, MatchesGatherBitwiseOnSparseInputs) {
  // Scatter accumulates in input order == sorted column order, which is
  // not the same float order as gather, so compare with tolerance; but
  // with each output row touched by <= a few products the results are
  // numerically tight.
  const auto w = random_weights(40, 40, 0.1, 3);
  const auto y = random_activations(40, 8, 0.3, 4);
  DenseMatrix a(40, 8);
  DenseMatrix b(40, 8);
  spmm_gather(w, y, a);
  spmm_scatter(CscMatrix::from_csr(w), y, b);
  EXPECT_LE(DenseMatrix::max_abs_diff(a, b), 1e-4f);
}

TEST(SpmmScatter, AllZeroInputGivesZeroOutput) {
  const auto w = random_weights(16, 16, 0.3, 5);
  DenseMatrix y(16, 4);  // all zeros
  DenseMatrix out(16, 4, 99.0f);
  spmm_scatter(CscMatrix::from_csr(w), y, out);
  EXPECT_EQ(out.count_nonzeros(), 0u);  // scatter zero-fills its columns
}

TEST(SpmmGatherCols, OnlyTouchesListedColumns) {
  const auto w = random_weights(12, 12, 0.4, 8);
  const auto y = random_activations(12, 6, 0.7, 9);
  DenseMatrix out(12, 6, -7.0f);
  const std::vector<Index> cols = {1, 4};
  spmm_gather_cols(w, y, cols, out);
  const auto ref = dense_spmm(w, y);
  for (std::size_t j = 0; j < 6; ++j) {
    const bool listed = (j == 1 || j == 4);
    for (std::size_t r = 0; r < 12; ++r) {
      if (listed) {
        EXPECT_NEAR(out.at(r, j), ref.at(r, j), 1e-5f);
      } else {
        EXPECT_FLOAT_EQ(out.at(r, j), -7.0f);  // untouched sentinel
      }
    }
  }
}

TEST(SpmmScatterCols, OnlyTouchesListedColumns) {
  const auto w = random_weights(12, 12, 0.4, 10);
  const auto y = random_activations(12, 6, 0.7, 11);
  DenseMatrix out(12, 6, -7.0f);
  const std::vector<Index> cols = {0, 5};
  spmm_scatter_cols(CscMatrix::from_csr(w), y, cols, out);
  const auto ref = dense_spmm(w, y);
  for (std::size_t j = 0; j < 6; ++j) {
    const bool listed = (j == 0 || j == 5);
    for (std::size_t r = 0; r < 12; ++r) {
      if (listed) {
        EXPECT_NEAR(out.at(r, j), ref.at(r, j), 1e-4f);
      } else {
        EXPECT_FLOAT_EQ(out.at(r, j), -7.0f);
      }
    }
  }
}

TEST(BiasActivation, VectorBiasClipsBothSides) {
  DenseMatrix y(3, 2);
  y.at(0, 0) = -5.0f;
  y.at(1, 0) = 10.0f;
  y.at(2, 0) = 50.0f;
  const std::vector<float> bias = {1.0f, -1.0f, 0.0f};
  apply_bias_activation(y, bias, 32.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);   // -5+1 clipped at 0
  EXPECT_FLOAT_EQ(y.at(1, 0), 9.0f);   // 10-1
  EXPECT_FLOAT_EQ(y.at(2, 0), 32.0f);  // 50 clipped at ymax
  EXPECT_FLOAT_EQ(y.at(0, 1), 1.0f);   // 0+1
}

TEST(BiasActivation, ScalarBiasEqualsVectorBias) {
  platform::Rng rng(12);
  DenseMatrix a(8, 5);
  for (std::size_t i = 0; i < 40; ++i) {
    a.data()[i] = rng.uniform(-2.0f, 2.0f);
  }
  DenseMatrix b = a;
  apply_bias_activation(a, -0.3f, 1.0f);
  const std::vector<float> bias(8, -0.3f);
  apply_bias_activation(b, bias, 1.0f);
  EXPECT_FLOAT_EQ(DenseMatrix::max_abs_diff(a, b), 0.0f);
}

TEST(DensityEstimate, ExactOnSmallMatrices) {
  DenseMatrix y(10, 3);
  y.at(0, 0) = 1.0f;
  y.at(5, 0) = 1.0f;  // col 0: 2/10
  // col 1 empty; col 2: 1/10
  y.at(9, 2) = 1.0f;
  const std::vector<Index> cols = {0, 1, 2};
  EXPECT_NEAR(estimate_column_density(y, cols), 0.1, 1e-9);
}

TEST(DensityEstimate, EmptyColumnListIsZero) {
  DenseMatrix y(4, 4, 1.0f);
  EXPECT_DOUBLE_EQ(estimate_column_density(y, {}), 0.0);
}

// Property sweep: all kernel variants agree on random (shape, density)
// combinations — the invariant behind XY-2021's free kernel choice.
class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, double, double>> {
};

TEST_P(KernelEquivalence, AllVariantsAgree) {
  const auto [n, b, w_density, y_density] = GetParam();
  const auto w = random_weights(n, n, w_density, 100 + n);
  const auto y = random_activations(static_cast<std::size_t>(n),
                                    static_cast<std::size_t>(b), y_density,
                                    200 + b);
  DenseMatrix g(n, b);
  DenseMatrix s(n, b);
  spmm_gather(w, y, g);
  spmm_scatter(CscMatrix::from_csr(w), y, s);
  EXPECT_LE(DenseMatrix::max_abs_diff(g, s), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelEquivalence,
    ::testing::Combine(::testing::Values(8, 64, 128),
                       ::testing::Values(1, 17, 64),
                       ::testing::Values(0.05, 0.3),
                       ::testing::Values(0.0, 0.2, 1.0)));

}  // namespace
}  // namespace snicit::sparse
