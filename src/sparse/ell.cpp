#include "sparse/ell.hpp"

#include <algorithm>

#include "platform/common.hpp"
#include "platform/thread_pool.hpp"

namespace snicit::sparse {

EllMatrix EllMatrix::from_csr(const CsrMatrix& csr) {
  EllMatrix m;
  m.rows_ = csr.rows();
  m.cols_ = csr.cols();
  m.nnz_ = csr.nnz();
  Offset width = 0;
  for (Index r = 0; r < csr.rows(); ++r) {
    width = std::max<Offset>(width, csr.row_ptr()[r + 1] - csr.row_ptr()[r]);
  }
  m.width_ = static_cast<Index>(width);
  const std::size_t slots =
      static_cast<std::size_t>(m.rows_) * static_cast<std::size_t>(m.width_);
  m.col_idx_.assign(slots, kPad);
  m.values_.assign(slots, 0.0f);
  for (Index r = 0; r < csr.rows(); ++r) {
    const auto cols = csr.row_cols(r);
    const auto vals = csr.row_vals(r);
    const std::size_t base = static_cast<std::size_t>(r) * m.width_;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      m.col_idx_[base + k] = cols[k];
      m.values_[base + k] = vals[k];
    }
  }
  return m;
}

EllMatrix EllMatrix::from_coo(const CooMatrix& coo) {
  return from_csr(CsrMatrix::from_coo(coo));
}

double EllMatrix::padding_ratio() const {
  const std::size_t slots = col_idx_.size();
  if (slots == 0) return 0.0;
  return 1.0 - static_cast<double>(nnz_) / static_cast<double>(slots);
}

bool EllMatrix::is_valid() const {
  if (col_idx_.size() != values_.size()) return false;
  if (col_idx_.size() !=
      static_cast<std::size_t>(rows_) * static_cast<std::size_t>(width_)) {
    return false;
  }
  Offset real = 0;
  for (std::size_t i = 0; i < col_idx_.size(); ++i) {
    const Index c = col_idx_[i];
    if (c == kPad) {
      if (values_[i] != 0.0f) return false;  // padding must carry 0
      continue;
    }
    if (c < 0 || c >= cols_) return false;
    ++real;
  }
  return real == nnz_;
}

namespace {

void ell_column(const EllMatrix& w, const float* SNICIT_RESTRICT y_col,
                float* SNICIT_RESTRICT out_col) {
  const Index* SNICIT_RESTRICT ci = w.col_idx().data();
  const float* SNICIT_RESTRICT vs = w.values().data();
  const Index rows = w.rows();
  const Index width = w.width();
  for (Index i = 0; i < rows; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * width;
    float acc = 0.0f;
    for (Index k = 0; k < width; ++k) {
      // Padding slots carry value 0, so clamping their index to 0 keeps
      // the loop branch-free without affecting the sum.
      const Index c = std::max<Index>(ci[base + k], 0);
      acc += vs[base + k] * y_col[c];
    }
    out_col[i] = acc;
  }
}

}  // namespace

void spmm_ell(const EllMatrix& w, const DenseMatrix& y, DenseMatrix& out) {
  SNICIT_CHECK(static_cast<std::size_t>(w.cols()) == y.rows(),
               "ELL spMM inner dimension mismatch");
  SNICIT_CHECK(static_cast<std::size_t>(w.rows()) == out.rows() &&
                   y.cols() == out.cols(),
               "ELL spMM output shape mismatch");
  platform::parallel_for_ranges(0, y.cols(), [&](std::size_t lo,
                                                 std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      ell_column(w, y.col(j), out.col(j));
    }
  });
}

}  // namespace snicit::sparse
