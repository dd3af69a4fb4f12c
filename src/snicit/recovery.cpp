#include "snicit/recovery.hpp"

#include <algorithm>

#include "platform/common.hpp"
#include "platform/trace.hpp"
#include "platform/thread_pool.hpp"

namespace snicit::core {

DenseMatrix recover_results(const CompressedBatch& batch) {
  DenseMatrix y;
  recover_into(batch, y);
  return y;
}

void recover_into(const CompressedBatch& batch, DenseMatrix& y) {
  recover_into(batch, batch.yhat.cols(), y);
}

void recover_into(const CompressedBatch& batch, std::size_t cols,
                  DenseMatrix& y) {
  SNICIT_TRACE_SPAN("recover_results", "snicit");
  SNICIT_CHECK(cols <= batch.yhat.cols(),
               "recovering more columns than the batch holds");
  const std::size_t n = batch.yhat.rows();
  // Every column is written below (centroids copied, residues summed).
  y.reset(n, cols, sparse::ZeroFill::kNo);
  platform::parallel_for_ranges(0, cols, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      const float* SNICIT_RESTRICT res = batch.yhat.col(j);
      float* SNICIT_RESTRICT dst = y.col(j);
      if (batch.mapper[j] == -1) {
        std::copy_n(res, n, dst);
        continue;
      }
      const float* SNICIT_RESTRICT cent =
          batch.yhat.col(static_cast<std::size_t>(batch.mapper[j]));
      for (std::size_t r = 0; r < n; ++r) {
        dst[r] = res[r] + cent[r];
      }
    }
  });
}

}  // namespace snicit::core
