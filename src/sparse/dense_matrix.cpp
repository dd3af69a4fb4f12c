#include "sparse/dense_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "platform/common.hpp"

namespace snicit::sparse {

DenseMatrix DenseMatrix::columns(std::size_t begin, std::size_t end) const {
  SNICIT_CHECK(begin <= end && end <= cols_, "column slice out of range");
  DenseMatrix out(rows_, end - begin);
  std::copy_n(col(begin), rows_ * (end - begin), out.data());
  return out;
}

std::size_t DenseMatrix::count_nonzeros(float tol) const {
  std::size_t n = 0;
  for (float v : data_) {
    if (std::fabs(v) > tol) ++n;
  }
  return n;
}

std::size_t DenseMatrix::column_nonzeros(std::size_t j, float tol) const {
  const float* c = col(j);
  std::size_t n = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (std::fabs(c[r]) > tol) ++n;
  }
  return n;
}

float DenseMatrix::max_abs_diff(const DenseMatrix& a, const DenseMatrix& b) {
  SNICIT_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               "shape mismatch in max_abs_diff");
  float m = 0.0f;
  const std::size_t n = a.rows() * a.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const float x = a.data()[i];
    const float y = b.data()[i];
    // std::max(m, NaN) keeps m, which would hide the NaN.
    if (std::isnan(x) || std::isnan(y)) {
      return std::numeric_limits<float>::infinity();
    }
    m = std::max(m, std::fabs(x - y));
  }
  return m;
}

}  // namespace snicit::sparse
