#include "sparse/spmm_policy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "platform/thread_pool.hpp"

namespace snicit::sparse {

const char* to_string(SpmmVariant v) {
  switch (v) {
    case SpmmVariant::kAuto: return "auto";
    case SpmmVariant::kGatherScalar: return "gather";
    case SpmmVariant::kGatherSimd: return "gather_simd";
    case SpmmVariant::kGatherThreaded: return "gather_threaded";
    case SpmmVariant::kScatter: return "scatter";
    case SpmmVariant::kScatterSimd: return "scatter_simd";
  }
  return "unknown";
}

std::optional<SpmmVariant> parse_spmm_variant(std::string_view name) {
  for (int i = -1; i < kNumSpmmVariants; ++i) {
    const auto v = static_cast<SpmmVariant>(i);
    if (name == to_string(v)) return v;
  }
  return std::nullopt;
}

const char* to_string(SpmmEpilogue e) {
  switch (e) {
    case SpmmEpilogue::kFused: return "fused";
    case SpmmEpilogue::kSplit: return "split";
  }
  return "unknown";
}

std::optional<SpmmEpilogue> parse_spmm_epilogue(std::string_view name) {
  if (name == "fused") return SpmmEpilogue::kFused;
  if (name == "split") return SpmmEpilogue::kSplit;
  return std::nullopt;
}

bool apply_spmm_spec(std::string_view spec, SpmmPolicy& policy) {
  std::string_view variant_part = spec;
  std::string_view epilogue_part;
  if (const auto plus = spec.find('+'); plus != std::string_view::npos) {
    variant_part = spec.substr(0, plus);
    epilogue_part = spec.substr(plus + 1);
    if (epilogue_part.empty()) return false;
  }
  // Bare epilogue name: force the mode, leave the variant alone.
  if (epilogue_part.empty()) {
    if (const auto e = parse_spmm_epilogue(variant_part)) {
      policy.epilogue = *e;
      return true;
    }
  }
  const auto v = parse_spmm_variant(variant_part);
  if (!v) return false;
  SpmmEpilogue epi = policy.epilogue;
  if (!epilogue_part.empty()) {
    const auto e = parse_spmm_epilogue(epilogue_part);
    if (!e) return false;
    epi = *e;
  }
  policy.variant = *v;
  policy.epilogue = epi;
  return true;
}

namespace {

/// Fixed per-(nnz x column) overhead of the scatter arms relative to
/// gather: branch/zero-test cost on top of the accumulator zeroing the
/// model derives from rows/nnz.
constexpr double kScatterSetupCost = 0.15;
/// Below this many active columns the blocked arms stop paying for
/// themselves (lane underfill) and the model treats them as scalar.
constexpr std::size_t kMinColsForBlocking = 4;
/// The row-parallel arm needs at least this many output rows before
/// splitting rows across the pool beats column parallelism.
constexpr std::size_t kRowParallelMinRows = 256;

/// Lanes a blocked kernel actually fills for this batch width.
std::size_t lane_width(std::size_t batch_cols) {
  return std::min<std::size_t>(8, std::max<std::size_t>(1, batch_cols));
}

/// Weight-stream amortisation of a bw-lane blocked kernel: the row
/// pointers/indices/values are read once per group instead of once per
/// column and the lane loop runs as one bw-wide vector FMA against the
/// transposed activation panel, leaving a small per-lane floor. The curve
/// is fitted to the bench_spmm_kernels grid (8 lanes measure ~0.12-0.23x
/// scalar gather on the SDGC-shaped workloads).
double amortised(std::size_t bw) {
  return 0.12 + 0.88 / static_cast<double>(bw);
}

std::size_t pool_size() {
  if (platform::in_serial_region()) return 1;
  return platform::ThreadPool::global().size();
}

}  // namespace

double spmm_epilogue_cost(const SpmmProblem& p, const SpmmPolicy& policy) {
  if (!p.has_epilogue || p.batch_cols == 0) return 0.0;
  if (policy.epilogue == SpmmEpilogue::kFused) return 0.0;
  // Split: one more read-modify-write sweep over the output column —
  // rows elements against nnz units of gather work, floored so the term
  // never vanishes entirely on very dense weights.
  return std::max(0.01, static_cast<double>(p.rows) /
                            static_cast<double>(
                                std::max<std::size_t>(1, p.nnz)));
}

namespace {

double variant_cost_base(SpmmVariant v, const SpmmProblem& p) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (p.batch_cols == 0) return 0.0;
  const std::size_t pool = pool_size();
  const std::size_t bw = lane_width(p.batch_cols);
  const bool blockable = p.batch_cols >= kMinColsForBlocking;
  // Parallel slots each driver can actually occupy.
  const auto slots = [&](std::size_t work_items) {
    return static_cast<double>(
        std::min<std::size_t>(pool, std::max<std::size_t>(1, work_items)));
  };
  const std::size_t groups = (p.batch_cols + 7) / 8;
  // Scatter zeroes its output column before accumulating: rows writes per
  // column, i.e. rows/nnz per unit of gather work, plus the constant
  // zero-test overhead.
  const double scatter_setup =
      kScatterSetupCost +
      static_cast<double>(p.rows) /
          static_cast<double>(std::max<std::size_t>(1, p.nnz));
  switch (v) {
    case SpmmVariant::kGatherScalar:
      return 1.0 / slots(p.batch_cols);
    case SpmmVariant::kGatherSimd:
      return (blockable ? amortised(bw) : 1.0) / slots(groups);
    case SpmmVariant::kGatherThreaded: {
      // Row split keeps every thread busy regardless of batch width, but
      // re-reads the column-group pointers per row range; only worth it
      // for tall-enough weights.
      if (p.rows < kRowParallelMinRows && pool > 1) return kInf;
      return (blockable ? amortised(bw) : 1.0) / static_cast<double>(pool) +
             0.02;
    }
    case SpmmVariant::kScatter:
      if (!p.has_csc) return kInf;
      return (p.density + scatter_setup) / slots(p.batch_cols);
    case SpmmVariant::kScatterSimd: {
      if (!p.has_csc || !blockable) return kInf;
      // Group-level zero skip: an input row is processed when *any* of the
      // bw lanes is nonzero. The setup (accumulator memset + panel
      // transpose-out) scales per lane-column just like scalar scatter's,
      // so it is not amortised by the group.
      const double group_density =
          1.0 - std::pow(1.0 - std::clamp(p.density, 0.0, 1.0),
                         static_cast<double>(bw));
      return (group_density * amortised(bw) + scatter_setup) / slots(groups);
    }
    case SpmmVariant::kAuto: break;
  }
  return kInf;
}

}  // namespace

double spmm_variant_cost(SpmmVariant v, const SpmmProblem& p,
                         const SpmmPolicy& policy) {
  // The epilogue term is uniform across variants (every arm stores the
  // same number of output elements), so it shifts the whole cost surface
  // without disturbing which arm wins — but keeps the reported costs
  // honest for the bench grid and lets callers compare fused vs split.
  return variant_cost_base(v, p) + spmm_epilogue_cost(p, policy);
}

SpmmVariant select_spmm_variant(const SpmmProblem& p,
                                const SpmmPolicy& policy) {
  if (policy.variant != SpmmVariant::kAuto) return policy.variant;
  SpmmVariant best = SpmmVariant::kGatherScalar;
  double best_cost = spmm_variant_cost(best, p, policy);
  for (int i = 1; i < kNumSpmmVariants; ++i) {
    const auto v = static_cast<SpmmVariant>(i);
    const double cost = spmm_variant_cost(v, p, policy);
    if (cost < best_cost) {
      best = v;
      best_cost = cost;
    }
  }
  return best;
}

}  // namespace snicit::sparse
