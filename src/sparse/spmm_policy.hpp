// Cost-model kernel selection for the spMM family — the library-level
// generalisation of XY-2021's optimisation-space search.
//
// XY-2021 predicts the best kernel per layer from a measured activation
// density; baselines/autotune measures instead of predicting. Both engines
// previously hard-coded a two-or-three-arm space. This header owns the
// *full* space — scalar gather, register-blocked SIMD gather, row-parallel
// threaded gather, scatter, blocked scatter — plus the analytic cost model
// that picks among them from the facts every engine already has on hand:
// measured activation density, weight nnz/row, batch width, and
// thread-pool size. `SpmmPolicy` is the only input to that choice: its
// `variant` pins one arm for the whole run (the regression suites sweep
// every arm this way) or leaves it to the model.
//
// The four spmm_dispatch* entry points below are the only way to run an
// arm: a policy with a forced `variant` pins one (tests, benches and the
// autotuner sweep the family this way), kAuto lets the model pick. The
// policy also carries an *epilogue* dimension: the entry points that take
// a bias+activation epilogue (spmm_dispatch_fused /
// spmm_dispatch_cols_fused) apply it inside the arm by default, or as the
// classic split multiply + apply_bias_activation when SpmmEpilogue::kSplit
// is forced — the A/B lever the golden digests and perf gates sweep. A
// forcing spec is "VARIANT[+EPILOGUE]" (e.g. "gather_simd+split") or a
// bare epilogue name ("fused"/"split"), as snicit_cli's --spmm flag takes
// it.
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense_matrix.hpp"
#include "sparse/spmm.hpp"  // BiasAct

namespace snicit::sparse {

enum class SpmmVariant : int {
  kAuto = -1,          // let the cost model decide per call
  kGatherScalar = 0,   // CSR gather, column-parallel (the scalar reference)
  kGatherSimd = 1,     // register-blocked gather, column-group-parallel
  kGatherThreaded = 2, // register-blocked gather, row-range-parallel
  kScatter = 3,        // CSC scatter, skips zero activations per column
  kScatterSimd = 4,    // register-blocked scatter, group-level zero skip
};

/// Number of concrete (non-auto) variants.
inline constexpr int kNumSpmmVariants = 5;

/// Stable lowercase name ("gather_simd", ...), used by flags and JSON.
const char* to_string(SpmmVariant v);

/// Inverse of to_string; also accepts "auto". Returns nullopt on junk.
std::optional<SpmmVariant> parse_spmm_variant(std::string_view name);

/// How the fused dispatch entry points run their bias+activation epilogue:
/// inside the kernel store (kFused, the default) or as the classic second
/// pass (kSplit). Results are bit-identical either way.
enum class SpmmEpilogue : int {
  kFused = 0,
  kSplit = 1,
};

/// Stable lowercase name ("fused" / "split"), used by flags and JSON.
const char* to_string(SpmmEpilogue e);

/// Inverse of to_string(SpmmEpilogue). Returns nullopt on junk.
std::optional<SpmmEpilogue> parse_spmm_epilogue(std::string_view name);

struct SpmmPolicy {
  /// kAuto defers to the cost model; anything else forces that kernel.
  SpmmVariant variant = SpmmVariant::kAuto;
  /// Epilogue mode for the fused dispatch entry points. kFused applies
  /// bias + clipped ReLU at the kernel store; kSplit keeps the separate
  /// apply_bias_activation pass (same bits, one extra sweep over Y).
  SpmmEpilogue epilogue = SpmmEpilogue::kFused;
};

/// Applies a forcing spec to `policy`: "VARIANT", "VARIANT+EPILOGUE", or a
/// bare epilogue name ("fused"/"split"). Returns false (policy untouched)
/// when the spec parses as neither.
bool apply_spmm_spec(std::string_view spec, SpmmPolicy& policy);

/// The facts the cost model consumes, all O(1) to produce at a call site.
struct SpmmProblem {
  std::size_t rows = 0;        // weight rows (output dimension)
  std::size_t nnz = 0;         // weight nonzeros
  std::size_t batch_cols = 0;  // columns actually multiplied (load-reduced)
  double density = 1.0;        // estimated activation density in [0, 1]
  bool has_csc = true;         // scatter arms selectable?
  bool has_epilogue = false;   // a bias+activation epilogue rides this call
};

/// Extra cost of carrying the epilogue under the policy's mode, in the
/// same per-(nnz x column) units as spmm_variant_cost: ~free when fused
/// (it rides a store the kernel already performs), one more
/// read-modify-write pass over the output column (rows/nnz units) when
/// split. Zero when the problem carries no epilogue.
double spmm_epilogue_cost(const SpmmProblem& p, const SpmmPolicy& policy);

/// Relative cost of running `v` on `p` (scalar gather == 1.0 per
/// nnz x column; lower is better). Parallel arms are priced at the global
/// pool size, or at one thread inside a platform::ScopedSerialRegion.
/// Exposed for tests and the bench grid.
double spmm_variant_cost(SpmmVariant v, const SpmmProblem& p,
                         const SpmmPolicy& policy);

/// The selector: the forced variant when policy.variant != kAuto (always —
/// a forced arm is never second-guessed), otherwise the cheapest arm under
/// spmm_variant_cost. Never returns a scatter arm when !p.has_csc.
SpmmVariant select_spmm_variant(const SpmmProblem& p,
                                const SpmmPolicy& policy);

/// Selects and runs in one step: out = W * y over all batch columns.
/// `w_csc` may be null when no CSC mirror exists (scatter arms are then
/// excluded from auto selection; forcing one is a hard error). `density`
/// is the caller's activation-density estimate (estimate_column_density).
/// Returns the variant that actually ran. The `spmm_nan` fault site fires
/// here (one NaN at out(0, 0)); the column-subset forms fire `nan_tile`
/// on their first listed column instead.
SpmmVariant spmm_dispatch(const CsrMatrix& w, const CscMatrix* w_csc,
                          const DenseMatrix& y, DenseMatrix& out,
                          double density, const SpmmPolicy& policy = {});

/// Column-subset dispatch (SNICIT's load-reduced spMM, partition engines):
/// only the listed columns of `out` are written, the rest keep their
/// contents.
SpmmVariant spmm_dispatch_cols(const CsrMatrix& w, const CscMatrix* w_csc,
                               const DenseMatrix& y,
                               std::span<const Index> columns,
                               DenseMatrix& out, double density,
                               const SpmmPolicy& policy = {});

/// Dispatch carrying the bias+activation epilogue: the selected arm sweeps
/// each output column with `epi` while it is cache-hot (policy.epilogue ==
/// kFused, the default), or runs plain and is followed by the
/// apply_bias_activation pass over the same columns (kSplit). Both modes
/// produce bit-identical output; the fused mode saves the second pass.
SpmmVariant spmm_dispatch_fused(const CsrMatrix& w, const CscMatrix* w_csc,
                                const DenseMatrix& y, DenseMatrix& out,
                                double density, const BiasAct& epi,
                                const SpmmPolicy& policy = {});

/// Column-subset dispatch with the epilogue (load-reduced front end).
SpmmVariant spmm_dispatch_cols_fused(const CsrMatrix& w,
                                     const CscMatrix* w_csc,
                                     const DenseMatrix& y,
                                     std::span<const Index> columns,
                                     DenseMatrix& out, double density,
                                     const BiasAct& epi,
                                     const SpmmPolicy& policy = {});

}  // namespace snicit::sparse
