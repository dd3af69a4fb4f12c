// Final results recovery (§3.4, Eq. 6): translate the compressed batch
// back to the dense representation by adding each residue column to its
// centroid.
#pragma once

#include "snicit/convert.hpp"

namespace snicit::core {

/// Returns Y(l): centroid columns verbatim, every other column as
/// residue + centroid.
DenseMatrix recover_results(const CompressedBatch& batch);

/// Same, into a caller-owned matrix (typically the run result's output
/// buffer): `y` is reshaped capacity-preserving and fully overwritten.
void recover_into(const CompressedBatch& batch, DenseMatrix& y);

/// Recovers only the leading `cols` columns into `y` (n x cols): a
/// cached-centroid batch carries its centroids after the caller's columns.
void recover_into(const CompressedBatch& batch, std::size_t cols,
                  DenseMatrix& y);

}  // namespace snicit::core
