#include "snicit/postconv.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "platform/common.hpp"
#include "platform/thread_pool.hpp"
#include "platform/trace.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_policy.hpp"

namespace snicit::core {

namespace {

inline float clip(float x, float ymax) {
  return std::min(std::max(x, 0.0f), ymax);
}

/// The Eq. (5)/Algorithm 3 update: one block per non-empty column.
/// Residue updates read the spMM result of their centroid column;
/// centroids are always non-empty, so their scratch column is valid in the
/// same pass. Returns how many residue entries the prune threshold zeroed
/// (nonzero values within threshold).
std::size_t update_centroids_and_residues(std::span<const float> bias,
                                          float ymax, float prune_threshold,
                                          CompressedBatch& batch,
                                          const DenseMatrix& scratch,
                                          bool* diverged) {
  const std::size_t n = batch.yhat.rows();
  std::atomic<std::size_t> pruned_total{0};
  std::atomic<bool> bad_any{false};
  platform::parallel_for_ranges(
      0, batch.ne_idx.size(), [&](std::size_t lo, std::size_t hi) {
        std::size_t pruned = 0;
        bool bad = false;
        for (std::size_t k = lo; k < hi; ++k) {
          const auto r = static_cast<std::size_t>(batch.ne_idx[k]);
          const float* SNICIT_RESTRICT mult = scratch.col(r);
          float* SNICIT_RESTRICT dst = batch.yhat.col(r);
          if (batch.mapper[r] == -1) {
            // Centroid: plain feed-forward (first case of Eq. (5)).
            for (std::size_t j = 0; j < n; ++j) {
              dst[j] = clip(mult[j] + bias[j], ymax);
              // clip() maps every finite/inf input into [0, ymax] but
              // passes NaN through, so one comparison flags corruption.
              bad |= !(dst[j] <= ymax);
            }
            batch.ne_rec[r] = 1;
            continue;
          }
          // Residue: second case of Eq. (5), then near-zero pruning.
          const float* SNICIT_RESTRICT cent =
              scratch.col(static_cast<std::size_t>(batch.mapper[r]));
          bool non_empty = false;
          for (std::size_t j = 0; j < n; ++j) {
            const float with_res = clip(cent[j] + mult[j] + bias[j], ymax);
            const float without = clip(cent[j] + bias[j], ymax);
            float v = with_res - without;
            // Both terms are clipped to [0, ymax], so |v| <= ymax in exact
            // arithmetic; NaN fails the comparison. Reuses the fabs the
            // prune test needs anyway, so the guard costs one compare.
            const float av = std::fabs(v);
            bad |= !(av <= ymax);
            if (av <= prune_threshold) {
              pruned += (v != 0.0f);  // a genuine value fell to the prune
              v = 0.0f;
            }
            dst[j] = v;
            non_empty |= (v != 0.0f);
          }
          batch.ne_rec[r] = non_empty ? 1 : 0;
        }
        if (pruned != 0) {
          pruned_total.fetch_add(pruned, std::memory_order_relaxed);
        }
        if (bad) bad_any.store(true, std::memory_order_relaxed);
      });
  if (diverged != nullptr) {
    *diverged = bad_any.load(std::memory_order_relaxed);
  }
  return pruned_total.load(std::memory_order_relaxed);
}

void check_shapes(std::span<const float> bias, const CompressedBatch& batch,
                  const DenseMatrix& scratch) {
  SNICIT_CHECK(bias.size() == batch.yhat.rows(), "bias size mismatch");
  SNICIT_CHECK(scratch.rows() == batch.yhat.rows() &&
                   scratch.cols() == batch.yhat.cols(),
               "scratch buffer shape mismatch");
}

}  // namespace

std::size_t post_convergence_layer(const CsrMatrix& w,
                                   const CscMatrix* w_csc,
                                   std::span<const float> bias, float ymax,
                                   float prune_threshold,
                                   CompressedBatch& batch,
                                   DenseMatrix& scratch,
                                   const sparse::SpmmPolicy& policy,
                                   bool* diverged) {
  check_shapes(bias, batch, scratch);
  SNICIT_TRACE_SPAN("postconv_layer", "snicit");
  // Residue density drives the scatter-vs-gather arms; probe a prefix of
  // the non-empty columns (they are the only ones multiplied).
  const std::size_t probe_n =
      std::min<std::size_t>(batch.ne_idx.size(), 16);
  const double density = sparse::estimate_column_density(
      batch.yhat, std::span<const sparse::Index>(batch.ne_idx.data(),
                                                 probe_n));
  // Load-reduced spMM (§3.3.1): multiply only non-empty columns. Empty
  // residue columns stay empty under Eq. (5) — σ(c+0+b) − σ(c+b) = 0 — so
  // skipping them is exact, not an approximation.
  sparse::spmm_dispatch_cols(w, w_csc, batch.yhat, batch.ne_idx, scratch,
                             density, policy);
  return update_centroids_and_residues(bias, ymax, prune_threshold, batch,
                                       scratch, diverged);
}

}  // namespace snicit::core
