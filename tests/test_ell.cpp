#include "sparse/ell.hpp"

#include <gtest/gtest.h>

#include "platform/rng.hpp"
#include "radixnet/radixnet.hpp"
#include "sparse/spmm.hpp"

namespace snicit::sparse {
namespace {

CooMatrix ragged_example() {
  // 3x4, rows of different lengths (forces padding):
  //   [ 1 0 2 0 ]
  //   [ 0 0 0 0 ]
  //   [ 4 5 0 6 ]
  CooMatrix coo(3, 4);
  coo.add(0, 0, 1.0f);
  coo.add(0, 2, 2.0f);
  coo.add(2, 0, 4.0f);
  coo.add(2, 1, 5.0f);
  coo.add(2, 3, 6.0f);
  return coo;
}

TEST(Ell, FromCooShapeAndPadding) {
  const auto ell = EllMatrix::from_coo(ragged_example());
  EXPECT_EQ(ell.rows(), 3);
  EXPECT_EQ(ell.cols(), 4);
  EXPECT_EQ(ell.width(), 3);  // longest row has 3 entries
  EXPECT_EQ(ell.nnz(), 5);
  EXPECT_TRUE(ell.is_valid());
  EXPECT_NEAR(ell.padding_ratio(), 1.0 - 5.0 / 9.0, 1e-12);
}

TEST(Ell, PaddedSlotsCarryZero) {
  const auto ell = EllMatrix::from_coo(ragged_example());
  const auto row1 = ell.row_cols(1);  // empty row: all padding
  for (Index c : row1) {
    EXPECT_EQ(c, EllMatrix::kPad);
  }
  for (float v : ell.row_vals(1)) {
    EXPECT_FLOAT_EQ(v, 0.0f);
  }
}

TEST(Ell, FixedFaninHasNoPadding) {
  radixnet::RadixNetOptions opt;
  opt.neurons = 128;
  opt.layers = 1;
  opt.fanin = 8;
  const auto net = radixnet::make_radixnet(opt);
  const auto ell = EllMatrix::from_csr(net.weight(0));
  EXPECT_EQ(ell.width(), 8);
  EXPECT_DOUBLE_EQ(ell.padding_ratio(), 0.0);
  EXPECT_TRUE(ell.is_valid());
}

TEST(Ell, SpmmMatchesCsrGather) {
  platform::Rng rng(3);
  CooMatrix coo(40, 40);
  for (Index r = 0; r < 40; ++r) {
    for (Index c = 0; c < 40; ++c) {
      if (rng.next_bool(0.15)) coo.add(r, c, rng.uniform(-1.0f, 1.0f));
    }
  }
  const auto csr = CsrMatrix::from_coo(coo);
  const auto ell = EllMatrix::from_csr(csr);
  DenseMatrix y(40, 9);
  for (std::size_t i = 0; i < 40 * 9; ++i) {
    y.data()[i] = rng.uniform(0.0f, 2.0f);
  }
  DenseMatrix a(40, 9);
  DenseMatrix b(40, 9);
  spmm_gather(csr, y, a);
  spmm_ell(ell, y, b);
  EXPECT_LE(DenseMatrix::max_abs_diff(a, b), 1e-5f);
}

TEST(Ell, EmptyMatrix) {
  CooMatrix coo(4, 4);
  const auto ell = EllMatrix::from_coo(coo);
  EXPECT_EQ(ell.width(), 0);
  EXPECT_EQ(ell.nnz(), 0);
  EXPECT_TRUE(ell.is_valid());
  DenseMatrix y(4, 2, 1.0f);
  DenseMatrix out(4, 2, 5.0f);
  spmm_ell(ell, y, out);
  EXPECT_EQ(out.count_nonzeros(), 0u);  // all rows sum to zero
}

// Property sweep: ELL == CSR gather over random shapes/densities.
class EllEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(EllEquivalence, MatchesGather) {
  const auto [n, b, density] = GetParam();
  platform::Rng rng(n * 100 + b);
  CooMatrix coo(n, n);
  for (Index r = 0; r < n; ++r) {
    for (Index c = 0; c < n; ++c) {
      if (rng.next_bool(density)) coo.add(r, c, rng.uniform(-1.0f, 1.0f));
    }
  }
  const auto csr = CsrMatrix::from_coo(coo);
  const auto ell = EllMatrix::from_csr(csr);
  ASSERT_TRUE(ell.is_valid());
  DenseMatrix y(static_cast<std::size_t>(n), static_cast<std::size_t>(b));
  for (std::size_t i = 0; i < y.rows() * y.cols(); ++i) {
    y.data()[i] = rng.uniform(-1.0f, 1.0f);
  }
  DenseMatrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(b));
  DenseMatrix c2(static_cast<std::size_t>(n), static_cast<std::size_t>(b));
  spmm_gather(csr, y, a);
  spmm_ell(ell, y, c2);
  EXPECT_LE(DenseMatrix::max_abs_diff(a, c2), 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EllEquivalence,
    ::testing::Combine(::testing::Values(8, 33, 128),
                       ::testing::Values(1, 16),
                       ::testing::Values(0.02, 0.2, 0.7)));

}  // namespace
}  // namespace snicit::sparse
