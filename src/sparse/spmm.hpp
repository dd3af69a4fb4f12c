// The spMM kernel family: sparse weight (N_out x N_in) times dense,
// column-major activation batch (N_in x B).
//
// The scalar strategies span the optimisation space XY-2021 explores on GPU:
//   * gather   — CSR, per output column, per output row (dense-input case)
//   * scatter  — CSC, skips zero input activations entirely (the
//                activation-sparsity trick; wins when Y is sparse)
//   * gather over a column subset — SNICIT's load-reduced spMM, §3.3.1
//
// On top of those sits the optimized tier (the `_simd` / `_threaded`
// variants): register-blocked kernels that stream each weight row once per
// group of 8 batch columns with a `#pragma omp simd` lane loop (enabled by
// the SNICIT_SIMD build toggle; without it the same code compiles to
// portable scalar and stays correct), plus row-parallel drivers that split
// *output rows* across the thread pool for workloads with too few batch
// columns to fill it. Every optimized variant accumulates each output
// element in the exact nnz order of its scalar counterpart, so results are
// equal element-for-element — the property the differential equivalence
// suite (test_spmm_equivalence) locks down.
//
// The plain kernels compute *multiplication only*, with bias and
// activation as a separate pass (the paper's post-convergence kernels
// also split multiply and bias/activation, §3.3.1 adjustment (2)). Each
// kernel additionally has a `_fused` form that applies the SDGC epilogue
// min(max(acc + bias, 0), ymax) to each output column while it is still
// cache-hot from the core's stores, eliminating the second
// read-modify-write pass over the (by then cold) output. Because the
// epilogue touches each element only *after* its accumulation chain
// finishes, a fused kernel is bit-identical to its split counterpart
// followed by apply_bias_activation — the equivalence suite locks this
// down cell by cell.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense_matrix.hpp"

namespace snicit::sparse {

/// Bias + clipped-ReLU epilogue the fused kernels apply:
/// out = min(max(acc + b, 0), ymax), with b either per output row
/// (`bias[row]`, size must equal the weight's rows) or the scalar
/// `scalar_bias` when `bias` is empty (the SDGC benchmark nets).
struct BiasAct {
  std::span<const float> bias{};
  float scalar_bias = 0.0f;
  float ymax = 0.0f;
};

/// out = W * y for every column of y. out is fully overwritten.
void spmm_gather(const CsrMatrix& w, const DenseMatrix& y, DenseMatrix& out);

/// Gather kernel restricted to the listed batch columns; all other columns
/// of `out` are left untouched (callers own their contents).
void spmm_gather_cols(const CsrMatrix& w, const DenseMatrix& y,
                      std::span<const Index> columns, DenseMatrix& out);

/// Scatter kernel over CSC weights: per batch column, only nonzero input
/// activations contribute, so cost scales with activation density.
void spmm_scatter(const CscMatrix& w, const DenseMatrix& y, DenseMatrix& out);

/// Scatter kernel restricted to the listed batch columns.
void spmm_scatter_cols(const CscMatrix& w, const DenseMatrix& y,
                       std::span<const Index> columns, DenseMatrix& out);

// --- Optimized kernel tier -------------------------------------------------

/// True when the library was compiled with SNICIT_SIMD (the blocked kernels
/// carry vectorization pragmas). The variants below exist either way.
bool simd_compiled();

/// Register-blocked gather: each weight row is streamed once per group of
/// 8 batch columns, lanes accumulate independently (same nnz order as
/// spmm_gather per element). Parallel over column groups.
void spmm_gather_simd(const CsrMatrix& w, const DenseMatrix& y,
                      DenseMatrix& out);

/// Blocked gather over a column subset; untouched columns are not written.
void spmm_gather_cols_simd(const CsrMatrix& w, const DenseMatrix& y,
                           std::span<const Index> columns, DenseMatrix& out);

/// Row-parallel blocked gather: output rows are split across the thread
/// pool, each range processing every column group. Wins over the
/// column-parallel variants when the (possibly load-reduced) batch has
/// fewer column groups than the pool has threads.
void spmm_gather_threaded(const CsrMatrix& w, const DenseMatrix& y,
                          DenseMatrix& out);

/// Row-parallel blocked gather over a column subset — the load-reduced
/// spMM front end used by snicit::postconv when few columns stay active.
void spmm_gather_cols_threaded(const CsrMatrix& w, const DenseMatrix& y,
                               std::span<const Index> columns,
                               DenseMatrix& out);

/// Register-blocked scatter: input rows whose activation is zero in every
/// lane of the group are skipped; nonzero groups scatter to 8 output
/// columns per weight-column traversal. Per-element accumulation order
/// matches spmm_scatter (zero lanes contribute exact zeros).
void spmm_scatter_simd(const CscMatrix& w, const DenseMatrix& y,
                       DenseMatrix& out);

/// Blocked scatter over a column subset.
void spmm_scatter_cols_simd(const CscMatrix& w, const DenseMatrix& y,
                            std::span<const Index> columns, DenseMatrix& out);

// --- Fused-epilogue tier ---------------------------------------------------
//
// Each form below runs the kernel of the same name and applies `epi` on
// the accumulator before the single store (for the scatter family, which
// accumulates in place / in its transpose panel, the epilogue rides the
// final write-out of each column instead). Results are bit-identical to
// the split kernel followed by apply_bias_activation on the same columns.

void spmm_gather_fused(const CsrMatrix& w, const DenseMatrix& y,
                       DenseMatrix& out, const BiasAct& epi);

void spmm_gather_cols_fused(const CsrMatrix& w, const DenseMatrix& y,
                            std::span<const Index> columns, DenseMatrix& out,
                            const BiasAct& epi);

void spmm_scatter_fused(const CscMatrix& w, const DenseMatrix& y,
                        DenseMatrix& out, const BiasAct& epi);

void spmm_scatter_cols_fused(const CscMatrix& w, const DenseMatrix& y,
                             std::span<const Index> columns, DenseMatrix& out,
                             const BiasAct& epi);

void spmm_gather_simd_fused(const CsrMatrix& w, const DenseMatrix& y,
                            DenseMatrix& out, const BiasAct& epi);

void spmm_gather_cols_simd_fused(const CsrMatrix& w, const DenseMatrix& y,
                                 std::span<const Index> columns,
                                 DenseMatrix& out, const BiasAct& epi);

void spmm_gather_threaded_fused(const CsrMatrix& w, const DenseMatrix& y,
                                DenseMatrix& out, const BiasAct& epi);

void spmm_gather_cols_threaded_fused(const CsrMatrix& w, const DenseMatrix& y,
                                     std::span<const Index> columns,
                                     DenseMatrix& out, const BiasAct& epi);

void spmm_scatter_simd_fused(const CscMatrix& w, const DenseMatrix& y,
                             DenseMatrix& out, const BiasAct& epi);

void spmm_scatter_cols_simd_fused(const CscMatrix& w, const DenseMatrix& y,
                                  std::span<const Index> columns,
                                  DenseMatrix& out, const BiasAct& epi);

/// In place: y = clamp(y + bias, 0, ymax), the SDGC activation
/// σ(x) = min(max(x, 0), ymax) with per-row bias.
void apply_bias_activation(DenseMatrix& y, std::span<const float> bias,
                           float ymax);

/// Same with a single scalar bias for every neuron (SDGC benchmarks).
void apply_bias_activation(DenseMatrix& y, float bias, float ymax);

/// The epilogue restricted to the listed columns — the split counterpart
/// of the `_cols_fused` kernels (other columns are left untouched).
void apply_bias_activation_cols(DenseMatrix& y, std::span<const Index> columns,
                                const BiasAct& epi);

/// Fraction of nonzero entries in the listed columns (density estimator
/// used by the XY-2021-style cost model). Samples at most `max_rows` rows
/// per column for large matrices.
double estimate_column_density(const DenseMatrix& y,
                               std::span<const Index> columns,
                               std::size_t max_rows = 1024);

}  // namespace snicit::sparse
