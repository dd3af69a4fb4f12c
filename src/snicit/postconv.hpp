// Post-convergence update (§3.3): one load-reduced spMM followed by the
// centroid/residue update kernel (Algorithm 3) per layer, keeping the
// batch in its compressed representation.
#pragma once

#include <span>

#include "dnn/sparse_dnn.hpp"
#include "snicit/convert.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmm_policy.hpp"

namespace snicit::core {

using sparse::CscMatrix;
using sparse::CsrMatrix;

/// Advances `batch` from Ŷ(i) to Ŷ(i+1) through weight `w` / bias / clip.
///
/// `scratch` is the spMM output buffer (neurons x batch, reused across
/// layers); only the non-empty columns listed in batch.ne_idx are
/// multiplied (load-reduced spMM, §3.3.1), then Eq. (5) updates centroids
/// and residues in place and refreshes batch.ne_rec. batch.ne_idx is NOT
/// rebuilt here — the engine refreshes it on its own cadence (§3.3.2).
///
/// Returns the number of residue entries this layer whose updated value
/// was nonzero but within the prune threshold and therefore zeroed —
/// the per-layer "residues pruned" workload counter (necessarily 0 when
/// prune_threshold is 0, since only already-zero values satisfy |v| <= 0).
///
/// The load-reduced spMM runs whatever kernel the cost model (or a forced
/// policy.variant) picks from the measured residue density. The scatter
/// arms also skip zero *entries* inside residue columns — the
/// configuration the paper runs, where the off-the-shelf champion kernels
/// exploit activation sparsity. `w_csc` may be null when no CSC mirror
/// exists (excludes the scatter arms).
///
/// When `diverged` is non-null it is set to true if any updated centroid
/// or residue value is NaN or outside its clipped bound (|v| <= ymax) —
/// the SNICIT divergence guard's per-layer signal, computed by reusing the
/// fabs/compare the update already performs (near-zero clean-path cost).
std::size_t post_convergence_layer(const CsrMatrix& w,
                                   const CscMatrix* w_csc,
                                   std::span<const float> bias, float ymax,
                                   float prune_threshold,
                                   CompressedBatch& batch,
                                   DenseMatrix& scratch,
                                   const sparse::SpmmPolicy& policy,
                                   bool* diverged = nullptr);

}  // namespace snicit::core
