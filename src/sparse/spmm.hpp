// The spMM kernel family: sparse weight (N_out x N_in) times dense,
// column-major activation batch (N_in x B).
//
// The family spans the optimisation space XY-2021 explores on GPU, five
// arms in all (sparse/spmm_policy.hpp names them):
//   * gather   — CSR, per output column, per output row (dense-input case)
//   * scatter  — CSC, skips zero input activations entirely (the
//                activation-sparsity trick; wins when Y is sparse)
//   * gather_simd / scatter_simd — register-blocked forms that stream each
//                weight row (column) once per group of 8 batch columns
//                with a `#pragma omp simd` lane loop (enabled by the
//                SNICIT_SIMD build toggle; without it the same code
//                compiles to portable scalar and stays correct)
//   * gather_threaded — the blocked gather split over *output rows*, for
//                batches with too few column groups to fill the pool
// Every arm runs over the whole batch or over a column subset — SNICIT's
// load-reduced spMM, §3.3.1 — and each blocked arm accumulates every
// output element in the exact nnz order of its family's scalar arm, so
// results are equal element for element (test_spmm_equivalence locks
// this down).
//
// The arms are reached only through the spmm_dispatch* entry points of
// sparse/spmm_policy.hpp: a forced SpmmPolicy pins one arm, the default
// lets the cost model choose. Those entry points also carry the SDGC
// epilogue min(max(acc + bias, 0), ymax), either fused (applied to each
// output column while it is still cache-hot from the core's stores) or
// split (the apply_bias_activation pass below, after the multiply; the
// paper's post-convergence kernels also split multiply and
// bias/activation, §3.3.1 adjustment (2)). The epilogue touches each
// element only *after* its accumulation chain finishes, so both modes
// give the same bits.
//
// This header keeps the hook-free scalar gather (the exact reference the
// fault drills compare against) and the split epilogue pass.
#pragma once

#include <cstddef>
#include <span>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense_matrix.hpp"

namespace snicit::sparse {

/// Bias + clipped-ReLU epilogue the dispatch applies:
/// out = min(max(acc + b, 0), ymax), with b either per output row
/// (`bias[row]`, size must equal the weight's rows) or the scalar
/// `scalar_bias` when `bias` is empty (the SDGC benchmark nets).
struct BiasAct {
  std::span<const float> bias{};
  float scalar_bias = 0.0f;
  float ymax = 0.0f;
};

/// out = W * y for every column of y. out is fully overwritten. The
/// scalar gather arm with no dispatch around it: no arm selection and no
/// fault-injection site, so reference_forward stays exact while drills
/// are armed.
void spmm_gather(const CsrMatrix& w, const DenseMatrix& y, DenseMatrix& out);

/// True when the library was compiled with SNICIT_SIMD (the blocked arms
/// carry vectorization pragmas). Every arm exists either way.
bool simd_compiled();

/// In place over every column: y = epi(y), i.e. clamp(y + b, 0, ymax) —
/// the SDGC activation σ(x) = min(max(x, 0), ymax) with per-row or scalar
/// bias.
void apply_bias_activation(DenseMatrix& y, const BiasAct& epi);

/// Columns the baseline engines' per-layer density estimate probes: a
/// fixed prefix, unbiased because inputs are shuffled.
inline constexpr std::size_t kDensityProbeColumns = 16;

/// Fraction of nonzero entries in the listed columns (density estimator
/// used by the XY-2021-style cost model). Samples at most `max_rows` rows
/// per column for large matrices.
double estimate_column_density(const DenseMatrix& y,
                               std::span<const Index> columns,
                               std::size_t max_rows = 1024);

}  // namespace snicit::sparse
