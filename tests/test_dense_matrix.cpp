#include "sparse/dense_matrix.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace snicit::sparse {
namespace {

TEST(DenseMatrix, ConstructionAndShape) {
  DenseMatrix m(3, 5, 1.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  EXPECT_FALSE(m.empty());
  for (std::size_t j = 0; j < 5; ++j) {
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_FLOAT_EQ(m.at(r, j), 1.5f);
    }
  }
}

TEST(DenseMatrix, DefaultIsEmpty) {
  DenseMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(DenseMatrix, ColumnsAreContiguousColumnMajor) {
  DenseMatrix m(4, 3);
  m.at(2, 1) = 7.0f;
  // Column pointer arithmetic must match at().
  EXPECT_FLOAT_EQ(m.col(1)[2], 7.0f);
  EXPECT_EQ(m.col(1), m.data() + 4);
  EXPECT_EQ(m.col(2), m.data() + 8);
}

TEST(DenseMatrix, ColSpanCoversColumn) {
  DenseMatrix m(4, 2);
  auto span = m.col_span(1);
  EXPECT_EQ(span.size(), 4u);
  span[3] = 9.0f;
  EXPECT_FLOAT_EQ(m.at(3, 1), 9.0f);
}

TEST(DenseMatrix, ResetZeroFills) {
  DenseMatrix m(2, 2, 5.0f);
  m.reset(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.count_nonzeros(), 0u);
}

TEST(DenseMatrix, ResetNoFillPreservesContentsAtSameShape) {
  DenseMatrix m(2, 3, 4.0f);
  m.reset(2, 3, ZeroFill::kNo);
  // Same footprint, no fill: the storage (and its contents) stay put.
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 4.0f);
  // Explicit zero fill is the old reset behaviour.
  m.reset(2, 3, ZeroFill::kYes);
  EXPECT_EQ(m.count_nonzeros(), 0u);
}

TEST(DenseMatrix, ResetNeverShrinksCapacity) {
  DenseMatrix m;
  m.reset(16, 16, ZeroFill::kYes);
  const std::size_t cap = m.capacity();
  EXPECT_GE(cap, 16u * 16u);
  // Shrinking the shape keeps the storage: the workspace reuse contract.
  m.reset(2, 2, ZeroFill::kNo);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.capacity(), cap);
  // Growing back within capacity is allocation-free (capacity unchanged).
  m.reset(16, 16, ZeroFill::kNo);
  EXPECT_EQ(m.capacity(), cap);
  // Growing beyond it grows the capacity.
  m.reset(32, 32, ZeroFill::kNo);
  EXPECT_GE(m.capacity(), 32u * 32u);
}

TEST(DenseMatrix, CountNonzerosWithTolerance) {
  DenseMatrix m(2, 2);
  m.at(0, 0) = 0.5f;
  m.at(1, 0) = -0.01f;
  m.at(0, 1) = 0.0f;
  m.at(1, 1) = 2.0f;
  EXPECT_EQ(m.count_nonzeros(), 3u);
  EXPECT_EQ(m.count_nonzeros(0.1f), 2u);
}

TEST(DenseMatrix, ColumnNonzeros) {
  DenseMatrix m(3, 2);
  m.at(0, 0) = 1.0f;
  m.at(2, 0) = -1.0f;
  EXPECT_EQ(m.column_nonzeros(0), 2u);
  EXPECT_EQ(m.column_nonzeros(1), 0u);
}

TEST(DenseMatrix, MaxAbsDiff) {
  DenseMatrix a(2, 2);
  DenseMatrix b(2, 2);
  a.at(1, 1) = 3.0f;
  b.at(1, 1) = 1.0f;
  b.at(0, 0) = -0.5f;
  EXPECT_FLOAT_EQ(DenseMatrix::max_abs_diff(a, b), 2.0f);
  EXPECT_FLOAT_EQ(DenseMatrix::max_abs_diff(a, a), 0.0f);
}

TEST(DenseMatrix, MaxAbsDiffIsInfiniteOnNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  DenseMatrix a(2, 2);
  DenseMatrix b(2, 2);
  a.at(0, 1) = nan;
  EXPECT_EQ(DenseMatrix::max_abs_diff(a, b),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(DenseMatrix::max_abs_diff(b, a),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(DenseMatrix::max_abs_diff(a, a),
            std::numeric_limits<float>::infinity());
}

TEST(DenseMatrix, FillOverwritesEverything) {
  DenseMatrix m(3, 3, 2.0f);
  m.fill(0.0f);
  EXPECT_EQ(m.count_nonzeros(), 0u);
}

}  // namespace
}  // namespace snicit::sparse
