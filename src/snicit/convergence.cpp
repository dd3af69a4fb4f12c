#include "snicit/convergence.hpp"

#include <algorithm>
#include <cmath>

namespace snicit::core {

ConvergenceDetector::ConvergenceDetector(float eta) : eta_(eta) {}

void ConvergenceDetector::reset() {
  hits_ = 0;
  last_distance_ = 1.0;
}

bool ConvergenceDetector::observe(const DenseMatrix& y) {
  if (y.rows() == 0 || y.cols() < 2) return false;

  const std::size_t cols = std::min(kConvergenceProbeColumns, y.cols());
  const std::size_t col_stride = y.cols() / cols;
  const std::size_t rows = std::min(kConvergenceProbeRows, y.rows());
  const std::size_t row_stride = y.rows() / rows;

  // Mean nearest-neighbour distance over the probe columns: for each
  // probe, the smallest fraction of probed rows that differ by more than
  // eta from any other probe column.
  double total = 0.0;
  for (std::size_t a = 0; a < cols; ++a) {
    const float* ca = y.col(a * col_stride);
    double best = 1.0;
    for (std::size_t b = 0; b < cols; ++b) {
      if (a == b) continue;
      const float* cb = y.col(b * col_stride);
      std::size_t differing = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t row = r * row_stride;
        if (std::fabs(ca[row] - cb[row]) > eta_) ++differing;
      }
      best = std::min(best, static_cast<double>(differing) /
                                static_cast<double>(rows));
      if (best == 0.0) break;
    }
    total += best;
  }
  last_distance_ = total / static_cast<double>(cols);

  if (last_distance_ <= kConvergenceLevel) {
    ++hits_;
  } else {
    hits_ = 0;
  }
  return converged();
}

}  // namespace snicit::core
