// ELLPACK sparse format: a dense (rows x max_row_nnz) grid of column
// indices and values. For SDGC networks every neuron has exactly 32
// in-edges, so ELL wastes no padding and gives perfectly regular,
// branch-free inner loops — the layout several Graph Challenge champions
// run their kernels on.
#pragma once

#include <span>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense_matrix.hpp"

namespace snicit::sparse {

/// Engines run their scalar gather arm on ELL when at most this share of
/// the grid is padding: (near-)uniform fan-in, as on the fixed-32-fan-in
/// SDGC nets, the champions' preferred layout.
inline constexpr double kMaxEllPadding = 0.10;

class EllMatrix {
 public:
  EllMatrix() = default;

  static EllMatrix from_csr(const CsrMatrix& csr);
  static EllMatrix from_coo(const CooMatrix& coo);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  /// Entries per row including padding.
  Index width() const { return width_; }
  /// Real nonzeros (excluding padding).
  Offset nnz() const { return nnz_; }

  /// Row-major slabs: entry (r, k) at r*width + k. Padded entries carry
  /// column index kPad and value 0.
  const std::vector<Index>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  std::span<const Index> row_cols(Index r) const {
    return {col_idx_.data() + static_cast<std::size_t>(r) * width_,
            static_cast<std::size_t>(width_)};
  }
  std::span<const float> row_vals(Index r) const {
    return {values_.data() + static_cast<std::size_t>(r) * width_,
            static_cast<std::size_t>(width_)};
  }

  /// Fraction of grid slots that are padding (0 for fixed-fan-in nets).
  double padding_ratio() const;

  bool is_valid() const;

  static constexpr Index kPad = -1;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  Index width_ = 0;
  Offset nnz_ = 0;
  std::vector<Index> col_idx_;  // rows * width
  std::vector<float> values_;   // rows * width
};

/// out = W * y (gather over the regular ELL grid); out fully overwritten.
void spmm_ell(const EllMatrix& w, const DenseMatrix& y, DenseMatrix& out);

}  // namespace snicit::sparse
