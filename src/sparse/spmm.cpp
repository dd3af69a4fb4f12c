#include "sparse/spmm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "platform/common.hpp"
#include "platform/thread_pool.hpp"

// SNICIT_SIMD (set by the CMake toggle of the same name) turns the lane
// loops of the blocked kernels into `#pragma omp simd` regions. The pragma
// never licenses reassociation across a single lane's accumulator chain —
// vectorization happens *across* lanes — so the blocked kernels stay
// element-for-element equal to their scalar counterparts either way.
#if defined(SNICIT_SIMD)
#define SNICIT_SIMD_LOOP _Pragma("omp simd")
#else
#define SNICIT_SIMD_LOOP
#endif

namespace snicit::sparse {

namespace {

void check_shapes(Index w_rows, Index w_cols, const DenseMatrix& y,
                  const DenseMatrix& out) {
  SNICIT_CHECK(static_cast<std::size_t>(w_cols) == y.rows(),
               "spMM inner dimension mismatch");
  SNICIT_CHECK(static_cast<std::size_t>(w_rows) == out.rows() &&
                   y.cols() == out.cols(),
               "spMM output shape mismatch");
}

// --- Fused epilogues --------------------------------------------------------
//
// The kernel cores themselves are epilogue-free — fused and plain entry
// points share the exact same core instantiations. The fused forms run
// epi_sweep over each finished output column segment while it is still
// cache-hot (that locality is the fusion win; the saved second pass over
// a cold matrix is the other half). NoEpi is the identity;
// RowBiasEpi / ScalarBiasEpi are the SDGC bias + clipped ReLU. The sweep
// touches every element only after its accumulation chain is complete, so
// a fused run is bit-identical to the plain kernel followed by
// apply_bias_activation.

struct NoEpi {
  float operator()(float v, Index) const { return v; }
};

// Two branch-free instantiations instead of one functor with a per-row
// `bias != nullptr` test: the per-element branch is invariant, but inside
// the epilogue loops it blocks if-conversion and with it vectorization —
// measured at up to ~25% of whole-kernel time on dense batches. Choosing
// the functor once per call (with_epi below) keeps every epilogue loop a
// straight add/min/max chain the compiler turns into vector ops.

struct RowBiasEpi {
  const float* SNICIT_RESTRICT bias;
  float ymax;
  float operator()(float v, Index row) const {
    return std::min(std::max(v + bias[row], 0.0f), ymax);
  }
};

struct ScalarBiasEpi {
  float bias;
  float ymax;
  float operator()(float v, Index) const {
    return std::min(std::max(v + bias, 0.0f), ymax);
  }
};

/// Applies the epilogue to out[r0, r1) of one contiguous column. Every
/// kernel core funnels its epilogue through this sweep rather than the
/// store itself: the stores of a core are scattered (lane loops, strided
/// panel write-outs), so an epi call per store is scalar work, while this loop is a
/// straight add/min/max chain over contiguous floats the compiler
/// vectorizes — measured, the per-store form lost up to ~25% of kernel
/// time versus the split pass it was meant to beat. The sweep runs right
/// after the core finishes the column segment, so the data is cache-hot
/// (the actual fusion win) and each element still sees its epilogue after
/// its full accumulation chain — bit-identical to the split form.
template <typename Epi>
inline void epi_sweep(float* SNICIT_RESTRICT c, Index r0, Index r1,
                      Epi epi) {
  if constexpr (!std::is_same_v<Epi, NoEpi>) {
    for (Index r = r0; r < r1; ++r) {
      c[r] = epi(c[r], r);
    }
  }
}

/// Invokes `fn` with the branch-free epilogue functor matching `epi`.
template <typename Fn>
void with_epi(const BiasAct& epi, Index rows, Fn&& fn) {
  if (!epi.bias.empty()) {
    SNICIT_CHECK(epi.bias.size() == static_cast<std::size_t>(rows),
                 "fused epilogue bias size mismatch");
    fn(RowBiasEpi{epi.bias.data(), epi.ymax});
  } else {
    fn(ScalarBiasEpi{epi.scalar_bias, epi.ymax});
  }
}

/// One output column of the gather kernel: out_col[i] = W.row(i) . y_col.
/// Deliberately NOT templated on the epilogue: the fused entry points call
/// this exact instantiation and run epi_sweep on the finished column, so
/// the core's machine code is byte-for-byte the plain kernel's (an Epi
/// template parameter here measurably perturbed GCC's codegen for the
/// accumulation loop even though the functor was only used after it).
void gather_column(const CsrMatrix& w, const float* SNICIT_RESTRICT y_col,
                   float* SNICIT_RESTRICT out_col) {
  const Offset* SNICIT_RESTRICT rp = w.row_ptr().data();
  const Index* SNICIT_RESTRICT ci = w.col_idx().data();
  const float* SNICIT_RESTRICT vs = w.values().data();
  const Index rows = w.rows();
  for (Index i = 0; i < rows; ++i) {
    float acc = 0.0f;
    for (Offset k = rp[i]; k < rp[i + 1]; ++k) {
      acc += vs[k] * y_col[ci[k]];
    }
    out_col[i] = acc;
  }
}

/// One output column of the scatter kernel: only nonzero inputs contribute.
/// The scatter accumulates *in place* in the output column; the fused
/// epilogue rides a caller-side epi_sweep over the (cache-hot) column.
/// Untemplated for the same core-parity reason as gather_column.
void scatter_column(const CscMatrix& w, const float* SNICIT_RESTRICT y_col,
                    float* SNICIT_RESTRICT out_col) {
  const std::size_t rows = static_cast<std::size_t>(w.rows());
  std::memset(out_col, 0, sizeof(float) * rows);
  const Offset* SNICIT_RESTRICT cp = w.col_ptr().data();
  const Index* SNICIT_RESTRICT ri = w.row_idx().data();
  const float* SNICIT_RESTRICT vs = w.values().data();
  const Index in_dim = w.cols();
  for (Index k = 0; k < in_dim; ++k) {
    const float x = y_col[k];
    if (x == 0.0f) continue;
    for (Offset p = cp[k]; p < cp[k + 1]; ++p) {
      out_col[ri[p]] += vs[p] * x;
    }
  }
}

// --- Blocked kernel cores ---------------------------------------------------
//
// The register-blocked tier processes batch columns in groups of
// kLaneBlock: each weight row (gather) or weight column (scatter) is
// streamed from memory once per *group* instead of once per column, and
// the per-lane accumulate is a fixed-trip-count loop the compiler can keep
// in registers and vectorize. Groups narrower than kLaneBlock (batch tail,
// small subsets) fall through 4/2/1-wide instantiations of the same core.

constexpr std::size_t kLaneBlock = 8;

/// Grows `scratch` to hold `n` floats and returns its base rounded up to a
/// 64-byte boundary. The blocked cores hit the panel with a B-wide vector
/// access per nnz; off a plain malloc'd base (16-byte aligned at best)
/// every one of those straddles a cache line. Because each template
/// instantiation owns its own thread_local scratch, whether a given
/// kernel's panel happened to land aligned was per-process allocation
/// luck — measured as a bimodal ~20% swing on the whole blocked kernel,
/// flipping fused-vs-plain comparisons run to run. Rounding up makes every
/// panel deterministically cache-line aligned.
inline float* aligned_panel(std::vector<float>& scratch, std::size_t n) {
  constexpr std::size_t kPad = 64 / sizeof(float);
  scratch.resize(n + kPad - 1);
  const auto addr = reinterpret_cast<std::uintptr_t>(scratch.data());
  const auto aligned = (addr + 63) & ~static_cast<std::uintptr_t>(63);
  return reinterpret_cast<float*>(aligned);
}

/// Gather over rows [r0, r1) for B column lanes. Lane b accumulates
/// out_cols[b][i] over the row's nnz in ascending-k order — the exact
/// float sequence of gather_column.
///
/// `y_panel` holds the group's activations transposed row-major
/// (y_panel[c * B + b] == y_cols[b][c]): in the column-major matrix the B
/// lanes of input row c sit whole columns apart, so the lane loop would be
/// B scattered loads per nnz; in the panel they are contiguous and the
/// loop is one B-wide vector FMA.
template <int B>
void gather_rows_block(const CsrMatrix& w, Index r0, Index r1,
                       const float* SNICIT_RESTRICT y_panel,
                       float* const* SNICIT_RESTRICT out_cols) {
  const Offset* SNICIT_RESTRICT rp = w.row_ptr().data();
  const Index* SNICIT_RESTRICT ci = w.col_idx().data();
  const float* SNICIT_RESTRICT vs = w.values().data();
  for (Index i = r0; i < r1; ++i) {
    float acc[B] = {};
    for (Offset k = rp[i]; k < rp[i + 1]; ++k) {
      const float wv = vs[k];
      const float* SNICIT_RESTRICT yr =
          y_panel + static_cast<std::size_t>(ci[k]) * static_cast<std::size_t>(B);
      SNICIT_SIMD_LOOP
      for (int b = 0; b < B; ++b) acc[b] += wv * yr[b];
    }
    for (int b = 0; b < B; ++b) out_cols[b][i] = acc[b];
  }
}

/// Runs the widest gather cores that fit `width` lanes over rows [r0, r1).
/// `cols == nullptr` means the identity column list (j0, j0+1, ...).
/// Each sub-block transposes its lanes into a per-thread panel first; with
/// fan-in f every panel element is reused ~f times by the core, so the one
/// strided pass pays for itself whenever r1 - r0 covers a decent share of
/// the rows (the row-parallel driver uses a coarse grain for this reason).
template <typename Epi>
void gather_group(const CsrMatrix& w, const DenseMatrix& y, const Index* cols,
                  std::size_t j0, std::size_t width, Index r0, Index r1,
                  DenseMatrix& out, Epi epi) {
  const float* yc[kLaneBlock];
  float* oc[kLaneBlock];
  for (std::size_t b = 0; b < width; ++b) {
    const std::size_t j =
        cols != nullptr ? static_cast<std::size_t>(cols[j0 + b]) : j0 + b;
    yc[b] = y.col(j);
    oc[b] = out.col(j);
  }
  static thread_local std::vector<float> scratch;
  float* panel = aligned_panel(scratch, y.rows() * kLaneBlock);
  const std::size_t in_dim = y.rows();
  std::size_t done = 0;
  while (done < width) {
    const std::size_t left = width - done;
    const std::size_t B = left >= 8 ? 8 : left >= 4 ? 4 : left >= 2 ? 2 : 1;
    for (std::size_t c = 0; c < in_dim; ++c) {
      for (std::size_t b = 0; b < B; ++b) {
        panel[c * B + b] = yc[done + b][c];
      }
    }
    switch (B) {
      case 8: gather_rows_block<8>(w, r0, r1, panel, oc + done); break;
      case 4: gather_rows_block<4>(w, r0, r1, panel, oc + done); break;
      case 2: gather_rows_block<2>(w, r0, r1, panel, oc + done); break;
      default: gather_rows_block<1>(w, r0, r1, panel, oc + done); break;
    }
    // Cache-hot epilogue over the rows this block just wrote.
    for (std::size_t b = 0; b < B; ++b) {
      epi_sweep(oc[done + b], r0, r1, epi);
    }
    done += B;
  }
}

/// Column-group-parallel driver shared by spmm_gather_simd and its
/// column-subset form.
template <typename Epi>
void gather_blocked(const CsrMatrix& w, const DenseMatrix& y,
                    const Index* cols, std::size_t n, DenseMatrix& out,
                    Epi epi) {
  const std::size_t groups = (n + kLaneBlock - 1) / kLaneBlock;
  platform::parallel_for(0, groups, [&](std::size_t g) {
    const std::size_t j0 = g * kLaneBlock;
    gather_group(w, y, cols, j0, std::min(kLaneBlock, n - j0), 0, w.rows(),
                 out, epi);
  });
}

/// Row-range-parallel driver: splits output rows across the pool; every
/// range walks all column groups.
template <typename Epi>
void gather_row_parallel(const CsrMatrix& w, const DenseMatrix& y,
                         const Index* cols, std::size_t n, DenseMatrix& out,
                         Epi epi) {
  platform::parallel_for_ranges(
      0, static_cast<std::size_t>(w.rows()),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j0 = 0; j0 < n; j0 += kLaneBlock) {
          gather_group(w, y, cols, j0, std::min(kLaneBlock, n - j0),
                       static_cast<Index>(lo), static_cast<Index>(hi), out,
                       epi);
        }
      },
      // Coarse grain: each range re-transposes the y panel, so row chunks
      // must be large enough to amortise that pass.
      /*grain=*/256);
}

/// Scatter for B column lanes. An input row is skipped only when *every*
/// lane is zero; a zero lane inside a live group contributes wv * 0.0f,
/// which leaves its accumulator numerically unchanged, so each lane still
/// matches scatter_column element-for-element (finite weights assumed,
/// as everywhere in the library).
///
/// Accumulation runs in a caller-provided row-major panel `buf` of
/// rows x B floats: the column-major output would put the B lanes of one
/// output row whole columns (kilobytes) apart, turning the per-nnz update
/// into B scattered read-modify-writes; in the panel they are contiguous,
/// so the lane loop is one B-wide vector FMA. The panel is transposed into
/// the real output columns once at the end; the fused epilogue is a
/// caller-side sweep over those columns (core untemplated — see
/// gather_column).
template <int B>
void scatter_rows_block(const CscMatrix& w,
                        const float* const* SNICIT_RESTRICT y_cols,
                        float* const* SNICIT_RESTRICT out_cols,
                        float* SNICIT_RESTRICT buf) {
  const std::size_t rows = static_cast<std::size_t>(w.rows());
  std::memset(buf, 0, sizeof(float) * rows * static_cast<std::size_t>(B));
  const Offset* SNICIT_RESTRICT cp = w.col_ptr().data();
  const Index* SNICIT_RESTRICT ri = w.row_idx().data();
  const float* SNICIT_RESTRICT vs = w.values().data();
  const Index in_dim = w.cols();
  for (Index k = 0; k < in_dim; ++k) {
    float x[B];
    bool any = false;
    for (int b = 0; b < B; ++b) {
      x[b] = y_cols[b][k];
      any |= (x[b] != 0.0f);
    }
    if (!any) continue;
    for (Offset p = cp[k]; p < cp[k + 1]; ++p) {
      const float wv = vs[p];
      float* SNICIT_RESTRICT row =
          buf + static_cast<std::size_t>(ri[p]) * static_cast<std::size_t>(B);
      SNICIT_SIMD_LOOP
      for (int b = 0; b < B; ++b) row[b] += wv * x[b];
    }
  }
  for (int b = 0; b < B; ++b) {
    float* SNICIT_RESTRICT oc = out_cols[b];
    for (std::size_t r = 0; r < rows; ++r) {
      oc[r] =
          buf[r * static_cast<std::size_t>(B) + static_cast<std::size_t>(b)];
    }
  }
}

template <typename Epi>
void scatter_group(const CscMatrix& w, const DenseMatrix& y,
                   const Index* cols, std::size_t j0, std::size_t width,
                   DenseMatrix& out, Epi epi) {
  const float* yc[kLaneBlock];
  float* oc[kLaneBlock];
  for (std::size_t b = 0; b < width; ++b) {
    const std::size_t j =
        cols != nullptr ? static_cast<std::size_t>(cols[j0 + b]) : j0 + b;
    yc[b] = y.col(j);
    oc[b] = out.col(j);
  }
  // Per-thread accumulation panel; aligned_panel only grows the backing
  // vector, so steady-state calls reuse the same allocation.
  static thread_local std::vector<float> scratch;
  float* buf = aligned_panel(
      scratch, static_cast<std::size_t>(w.rows()) * kLaneBlock);
  const Index rows = w.rows();
  std::size_t done = 0;
  while (done < width) {
    const std::size_t left = width - done;
    const std::size_t B = left >= 8 ? 8 : left >= 4 ? 4 : left >= 2 ? 2 : 1;
    switch (B) {
      case 8: scatter_rows_block<8>(w, yc + done, oc + done, buf); break;
      case 4: scatter_rows_block<4>(w, yc + done, oc + done, buf); break;
      case 2: scatter_rows_block<2>(w, yc + done, oc + done, buf); break;
      default: scatter_rows_block<1>(w, yc + done, oc + done, buf); break;
    }
    // Cache-hot epilogue over the columns this block just wrote.
    for (std::size_t b = 0; b < B; ++b) {
      epi_sweep(oc[done + b], 0, rows, epi);
    }
    done += B;
  }
}

template <typename Epi>
void scatter_blocked(const CscMatrix& w, const DenseMatrix& y,
                     const Index* cols, std::size_t n, DenseMatrix& out,
                     Epi epi) {
  const std::size_t groups = (n + kLaneBlock - 1) / kLaneBlock;
  platform::parallel_for(0, groups, [&](std::size_t g) {
    const std::size_t j0 = g * kLaneBlock;
    scatter_group(w, y, cols, j0, std::min(kLaneBlock, n - j0), out, epi);
  });
}

}  // namespace

bool simd_compiled() {
#if defined(SNICIT_SIMD)
  return true;
#else
  return false;
#endif
}

void spmm_gather(const CsrMatrix& w, const DenseMatrix& y, DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  platform::parallel_for_ranges(0, y.cols(), [&](std::size_t lo,
                                                 std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      gather_column(w, y.col(j), out.col(j));
    }
  });
}

void spmm_gather_cols(const CsrMatrix& w, const DenseMatrix& y,
                      std::span<const Index> columns, DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  platform::parallel_for_ranges(0, columns.size(), [&](std::size_t lo,
                                                       std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const auto j = static_cast<std::size_t>(columns[k]);
      gather_column(w, y.col(j), out.col(j));
    }
  });
}

void spmm_scatter(const CscMatrix& w, const DenseMatrix& y, DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  platform::parallel_for_ranges(0, y.cols(), [&](std::size_t lo,
                                                 std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      scatter_column(w, y.col(j), out.col(j));
    }
  });
}

void spmm_scatter_cols(const CscMatrix& w, const DenseMatrix& y,
                       std::span<const Index> columns, DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  platform::parallel_for_ranges(0, columns.size(), [&](std::size_t lo,
                                                       std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      const auto j = static_cast<std::size_t>(columns[k]);
      scatter_column(w, y.col(j), out.col(j));
    }
  });
}

void spmm_gather_simd(const CsrMatrix& w, const DenseMatrix& y,
                      DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  gather_blocked(w, y, nullptr, y.cols(), out, NoEpi{});
}

void spmm_gather_cols_simd(const CsrMatrix& w, const DenseMatrix& y,
                           std::span<const Index> columns, DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  gather_blocked(w, y, columns.data(), columns.size(), out, NoEpi{});
}

void spmm_gather_threaded(const CsrMatrix& w, const DenseMatrix& y,
                          DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  gather_row_parallel(w, y, nullptr, y.cols(), out, NoEpi{});
}

void spmm_gather_cols_threaded(const CsrMatrix& w, const DenseMatrix& y,
                               std::span<const Index> columns,
                               DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  gather_row_parallel(w, y, columns.data(), columns.size(), out, NoEpi{});
}

void spmm_scatter_simd(const CscMatrix& w, const DenseMatrix& y,
                       DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  scatter_blocked(w, y, nullptr, y.cols(), out, NoEpi{});
}

void spmm_scatter_cols_simd(const CscMatrix& w, const DenseMatrix& y,
                            std::span<const Index> columns,
                            DenseMatrix& out) {
  check_shapes(w.rows(), w.cols(), y, out);
  scatter_blocked(w, y, columns.data(), columns.size(), out, NoEpi{});
}

void spmm_gather_fused(const CsrMatrix& w, const DenseMatrix& y,
                       DenseMatrix& out, const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(), [&](auto e) {
    platform::parallel_for_ranges(0, y.cols(), [&](std::size_t lo,
                                                   std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) {
        gather_column(w, y.col(j), out.col(j));
        epi_sweep(out.col(j), 0, w.rows(), e);
      }
    });
  });
}

void spmm_gather_cols_fused(const CsrMatrix& w, const DenseMatrix& y,
                            std::span<const Index> columns, DenseMatrix& out,
                            const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(), [&](auto e) {
    platform::parallel_for_ranges(0, columns.size(), [&](std::size_t lo,
                                                         std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        const auto j = static_cast<std::size_t>(columns[k]);
        gather_column(w, y.col(j), out.col(j));
        epi_sweep(out.col(j), 0, w.rows(), e);
      }
    });
  });
}

void spmm_scatter_fused(const CscMatrix& w, const DenseMatrix& y,
                        DenseMatrix& out, const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(), [&](auto e) {
    platform::parallel_for_ranges(0, y.cols(), [&](std::size_t lo,
                                                   std::size_t hi) {
      for (std::size_t j = lo; j < hi; ++j) {
        scatter_column(w, y.col(j), out.col(j));
        epi_sweep(out.col(j), 0, w.rows(), e);
      }
    });
  });
}

void spmm_scatter_cols_fused(const CscMatrix& w, const DenseMatrix& y,
                             std::span<const Index> columns, DenseMatrix& out,
                             const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(), [&](auto e) {
    platform::parallel_for_ranges(0, columns.size(), [&](std::size_t lo,
                                                         std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        const auto j = static_cast<std::size_t>(columns[k]);
        scatter_column(w, y.col(j), out.col(j));
        epi_sweep(out.col(j), 0, w.rows(), e);
      }
    });
  });
}

void spmm_gather_simd_fused(const CsrMatrix& w, const DenseMatrix& y,
                            DenseMatrix& out, const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(),
           [&](auto e) { gather_blocked(w, y, nullptr, y.cols(), out, e); });
}

void spmm_gather_cols_simd_fused(const CsrMatrix& w, const DenseMatrix& y,
                                 std::span<const Index> columns,
                                 DenseMatrix& out, const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(), [&](auto e) {
    gather_blocked(w, y, columns.data(), columns.size(), out, e);
  });
}

void spmm_gather_threaded_fused(const CsrMatrix& w, const DenseMatrix& y,
                                DenseMatrix& out, const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(), [&](auto e) {
    gather_row_parallel(w, y, nullptr, y.cols(), out, e);
  });
}

void spmm_gather_cols_threaded_fused(const CsrMatrix& w, const DenseMatrix& y,
                                     std::span<const Index> columns,
                                     DenseMatrix& out, const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(), [&](auto e) {
    gather_row_parallel(w, y, columns.data(), columns.size(), out, e);
  });
}

void spmm_scatter_simd_fused(const CscMatrix& w, const DenseMatrix& y,
                             DenseMatrix& out, const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(), [&](auto e) {
    scatter_blocked(w, y, nullptr, y.cols(), out, e);
  });
}

void spmm_scatter_cols_simd_fused(const CscMatrix& w, const DenseMatrix& y,
                                  std::span<const Index> columns,
                                  DenseMatrix& out, const BiasAct& epi) {
  check_shapes(w.rows(), w.cols(), y, out);
  with_epi(epi, w.rows(), [&](auto e) {
    scatter_blocked(w, y, columns.data(), columns.size(), out, e);
  });
}

void apply_bias_activation(DenseMatrix& y, std::span<const float> bias,
                           float ymax) {
  SNICIT_CHECK(bias.size() == y.rows(), "bias size mismatch");
  platform::parallel_for_ranges(0, y.cols(), [&](std::size_t lo,
                                                 std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      float* SNICIT_RESTRICT c = y.col(j);
      for (std::size_t r = 0; r < y.rows(); ++r) {
        c[r] = std::min(std::max(c[r] + bias[r], 0.0f), ymax);
      }
    }
  });
}

void apply_bias_activation(DenseMatrix& y, float bias, float ymax) {
  platform::parallel_for_ranges(0, y.cols(), [&](std::size_t lo,
                                                 std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      float* SNICIT_RESTRICT c = y.col(j);
      for (std::size_t r = 0; r < y.rows(); ++r) {
        c[r] = std::min(std::max(c[r] + bias, 0.0f), ymax);
      }
    }
  });
}

void apply_bias_activation_cols(DenseMatrix& y, std::span<const Index> columns,
                                const BiasAct& epi) {
  with_epi(epi, static_cast<Index>(y.rows()), [&](auto e) {
    platform::parallel_for_ranges(0, columns.size(), [&](std::size_t lo,
                                                         std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) {
        float* SNICIT_RESTRICT c =
            y.col(static_cast<std::size_t>(columns[k]));
        for (std::size_t r = 0; r < y.rows(); ++r) {
          c[r] = e(c[r], static_cast<Index>(r));
        }
      }
    });
  });
}

double estimate_column_density(const DenseMatrix& y,
                               std::span<const Index> columns,
                               std::size_t max_rows) {
  if (columns.empty() || y.rows() == 0) return 0.0;
  const std::size_t stride =
      std::max<std::size_t>(1, y.rows() / std::max<std::size_t>(1, max_rows));
  std::size_t seen = 0;
  std::size_t nonzero = 0;
  for (Index jc : columns) {
    const float* c = y.col(static_cast<std::size_t>(jc));
    for (std::size_t r = 0; r < y.rows(); r += stride) {
      ++seen;
      if (c[r] != 0.0f) ++nonzero;
    }
  }
  return seen == 0 ? 0.0 : static_cast<double>(nonzero) / seen;
}

}  // namespace snicit::sparse
