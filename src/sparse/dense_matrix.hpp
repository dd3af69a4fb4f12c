// Column-major dense matrix of floats.
//
// Activations in this library are stored as N x B matrices with one
// *contiguous column per input sample*, matching the paper's column-centric
// kernels (conversion, residue update, recovery all walk whole columns).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace snicit::sparse {

/// Fill policy for DenseMatrix::reset. kNo skips the zero-fill for hot
/// loops where the caller provably writes every element before reading
/// it back (fused spMM stores, whole-column copies); until then the
/// contents are unspecified.
enum class ZeroFill { kYes, kNo };

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float* col(std::size_t j) { return data_.data() + j * rows_; }
  const float* col(std::size_t j) const { return data_.data() + j * rows_; }

  std::span<float> col_span(std::size_t j) { return {col(j), rows_}; }
  std::span<const float> col_span(std::size_t j) const {
    return {col(j), rows_};
  }

  float& at(std::size_t r, std::size_t c) { return data_[c * rows_ + r]; }
  float at(std::size_t r, std::size_t c) const { return data_[c * rows_ + r]; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Resizes without preserving contents (values are zero-filled).
  void reset(std::size_t rows, std::size_t cols) {
    reset(rows, cols, ZeroFill::kYes);
  }

  /// Capacity-preserving resize: never shrinks the underlying storage, so
  /// a workspace matrix cycled through varying shapes stops allocating
  /// once it has seen its largest. ZeroFill::kNo leaves the contents
  /// unspecified.
  void reset(std::size_t rows, std::size_t cols, ZeroFill fill) {
    rows_ = rows;
    cols_ = cols;
    if (fill == ZeroFill::kYes) {
      data_.assign(rows * cols, 0.0f);
    } else {
      data_.resize(rows * cols);
    }
  }

  /// Elements the underlying storage can hold without reallocating.
  std::size_t capacity() const { return data_.capacity(); }

  /// Copy of columns [begin, end) as a new rows() x (end - begin) matrix
  /// (one contiguous memcpy — columns are the storage unit).
  DenseMatrix columns(std::size_t begin, std::size_t end) const;

  /// Number of entries with |x| > tol.
  std::size_t count_nonzeros(float tol = 0.0f) const;

  /// Number of entries in column j with |x| > tol.
  std::size_t column_nonzeros(std::size_t j, float tol = 0.0f) const;

  /// Largest |a - b| over all entries; matrices must have equal shape.
  /// +infinity when either matrix holds a NaN, so a `<= tol` check never
  /// passes a NaN output.
  static float max_abs_diff(const DenseMatrix& a, const DenseMatrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

}  // namespace snicit::sparse
