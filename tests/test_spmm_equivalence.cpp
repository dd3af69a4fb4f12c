// Differential kernel-equivalence suite for the spMM family.
//
// Every arm runs through the spmm_dispatch* entry points with a forced
// SpmmPolicy — the only way into the kernels. The scalar arms (gather,
// scatter) are the reference semantics; every blocked arm (register-
// blocked SIMD, row-parallel threaded) must match its family's scalar arm
// on randomized weights and activations covering the shapes the engines
// actually produce: empty weight rows, dense rows, single-column batches,
// batch widths that are not a multiple of the 8-lane block.
//
// Within a kernel family the accumulation order per output element is
// identical by construction, so the comparison is bitwise (memcmp — a
// -0.0f/NaN slip would fail loudly). Across families (gather vs scatter)
// the reduction order may differ, so those comparisons are bounded-error
// instead. The policy layer (cost model, selector, spec parsing,
// dispatch) is covered at the bottom.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "platform/rng.hpp"
#include "platform/thread_pool.hpp"
#include "sparse/coo.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_policy.hpp"

namespace snicit::sparse {
namespace {

/// Random CSR with deliberately lumpy structure: ~1/8 of rows empty,
/// ~1/8 fully dense, the rest at the requested density.
CsrMatrix random_weights(Index rows, Index cols, double density,
                         std::uint64_t seed) {
  platform::Rng rng(seed);
  CooMatrix coo(rows, cols);
  for (Index r = 0; r < rows; ++r) {
    const auto shape = rng.next_below(8);
    if (shape == 0) continue;  // empty row
    const double row_density = shape == 1 ? 1.0 : density;
    for (Index c = 0; c < cols; ++c) {
      if (rng.next_bool(row_density)) {
        coo.add(r, c, rng.uniform(-1.5f, 1.5f));
      }
    }
  }
  return CsrMatrix::from_coo(coo);
}

DenseMatrix random_activations(std::size_t rows, std::size_t cols,
                               double density, std::uint64_t seed) {
  platform::Rng rng(seed);
  DenseMatrix y(rows, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t r = 0; r < rows; ++r) {
      if (rng.next_bool(density)) {
        y.at(r, j) = rng.uniform(0.0f, 2.0f);
      }
    }
  }
  return y;
}

bool bit_equal(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * a.rows() * a.cols()) == 0;
}

void expect_close(const DenseMatrix& ref, const DenseMatrix& got,
                  const char* what) {
  ASSERT_EQ(ref.rows(), got.rows());
  ASSERT_EQ(ref.cols(), got.cols());
  for (std::size_t i = 0; i < ref.rows() * ref.cols(); ++i) {
    const float r = ref.data()[i];
    const float g = got.data()[i];
    ASSERT_NEAR(r, g, 1e-4f * std::max(1.0f, std::abs(r)))
        << what << " at flat index " << i;
  }
}

constexpr SpmmVariant kGatherFamily[] = {SpmmVariant::kGatherScalar,
                                         SpmmVariant::kGatherSimd,
                                         SpmmVariant::kGatherThreaded};
constexpr SpmmVariant kScatterFamily[] = {SpmmVariant::kScatter,
                                          SpmmVariant::kScatterSimd};

/// The scalar arm whose accumulation order arm `v` reproduces.
SpmmVariant family_scalar(SpmmVariant v) {
  return v == SpmmVariant::kScatter || v == SpmmVariant::kScatterSimd
             ? SpmmVariant::kScatter
             : SpmmVariant::kGatherScalar;
}

/// Runs arm `v` through the dispatch with a forced policy: over every
/// column, or only `subset` when it is non-null; plain, or with `epi` in
/// `mode`. The output starts at `fill`, so a subset run's untouched
/// columns and a full run's overwrite both show.
DenseMatrix run_arm(SpmmVariant v, const CsrMatrix& w, const CscMatrix& w_csc,
                    const DenseMatrix& y,
                    const std::vector<Index>* subset = nullptr,
                    const BiasAct* epi = nullptr,
                    SpmmEpilogue mode = SpmmEpilogue::kFused,
                    float fill = 0.0f) {
  DenseMatrix out(static_cast<std::size_t>(w.rows()), y.cols(), fill);
  const SpmmPolicy policy{v, mode};
  const double density = 0.5;  // a forced arm never reads it
  if (subset == nullptr && epi == nullptr) {
    spmm_dispatch(w, &w_csc, y, out, density, policy);
  } else if (subset == nullptr) {
    spmm_dispatch_fused(w, &w_csc, y, out, density, *epi, policy);
  } else if (epi == nullptr) {
    spmm_dispatch_cols(w, &w_csc, y, *subset, out, density, policy);
  } else {
    spmm_dispatch_cols_fused(w, &w_csc, y, *subset, out, density, *epi,
                             policy);
  }
  return out;
}

/// Random ascending strict subset of [0, batch), never empty (engines
/// always pass ascending lists).
std::vector<Index> random_subset(platform::Rng& rng, std::size_t batch) {
  std::vector<Index> subset;
  for (std::size_t j = 0; j < batch; ++j) {
    if (rng.next_bool(0.6)) subset.push_back(static_cast<Index>(j));
  }
  if (subset.empty()) subset.push_back(0);
  return subset;
}

// Batch widths straddling the 8-lane block: below, at, just above, and a
// multi-group non-multiple.
const std::size_t kBatches[] = {1, 2, 3, 5, 7, 8, 9, 16, 20};

class KernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalence, GatherFamilyBitExact) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  platform::Rng rng(seed * 7919 + 1);
  const Index rows = static_cast<Index>(16 + rng.next_below(100));
  const Index cols = static_cast<Index>(16 + rng.next_below(100));
  const auto w = random_weights(rows, cols, 0.2, seed);
  const auto w_csc = CscMatrix::from_csr(w);
  for (std::size_t batch : kBatches) {
    const auto y = random_activations(static_cast<std::size_t>(cols), batch,
                                      0.6, seed + batch);
    // The hook-free public kernel is the scalar gather arm.
    DenseMatrix ref(static_cast<std::size_t>(rows), batch);
    spmm_gather(w, y, ref);
    for (const auto v : kGatherFamily) {
      EXPECT_TRUE(bit_equal(ref, run_arm(v, w, w_csc, y)))
          << to_string(v) << " batch " << batch;
    }
  }
}

TEST_P(KernelEquivalence, ScatterFamilyBitExact) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  platform::Rng rng(seed * 104729 + 3);
  const Index rows = static_cast<Index>(16 + rng.next_below(100));
  const Index cols = static_cast<Index>(16 + rng.next_below(100));
  const auto w = random_weights(rows, cols, 0.2, seed + 1000);
  const auto w_csc = CscMatrix::from_csr(w);
  for (std::size_t batch : kBatches) {
    // Sparse activations so the zero-skip paths (full-skip in scalar,
    // group-skip + neutral zero lanes in blocked) actually diverge.
    const auto y = random_activations(static_cast<std::size_t>(cols), batch,
                                      0.25, seed + 31 * batch);
    const auto ref = run_arm(SpmmVariant::kScatter, w, w_csc, y);
    EXPECT_TRUE(bit_equal(ref, run_arm(SpmmVariant::kScatterSimd, w, w_csc,
                                       y)))
        << "scatter_simd batch " << batch;
  }
}

TEST_P(KernelEquivalence, ColumnSubsetVariantsBitExact) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  platform::Rng rng(seed * 65537 + 7);
  const Index rows = static_cast<Index>(16 + rng.next_below(80));
  const Index cols = static_cast<Index>(16 + rng.next_below(80));
  const auto w = random_weights(rows, cols, 0.25, seed + 2000);
  const auto w_csc = CscMatrix::from_csr(w);
  const std::size_t batch = 2 + rng.next_below(24);
  const auto y = random_activations(static_cast<std::size_t>(cols), batch,
                                    0.4, seed + 5);
  const auto subset = random_subset(rng, batch);
  // 0.5f sentinel: columns outside the subset stay untouched by every arm.
  for (int i = 0; i < kNumSpmmVariants; ++i) {
    const auto v = static_cast<SpmmVariant>(i);
    const auto ref = run_arm(family_scalar(v), w, w_csc, y, &subset, nullptr,
                             SpmmEpilogue::kFused, 0.5f);
    EXPECT_TRUE(bit_equal(ref, run_arm(v, w, w_csc, y, &subset, nullptr,
                                       SpmmEpilogue::kFused, 0.5f)))
        << to_string(v);
  }
}

TEST_P(KernelEquivalence, CrossFamilyBoundedError) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const Index rows = 64;
  const Index cols = 96;
  const auto w = random_weights(rows, cols, 0.3, seed + 3000);
  const auto w_csc = CscMatrix::from_csr(w);
  const auto y = random_activations(96, 13, 0.5, seed + 9);
  DenseMatrix ref(64, 13);
  spmm_gather(w, y, ref);
  for (const auto v : kScatterFamily) {
    expect_close(ref, run_arm(v, w, w_csc, y), to_string(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalence, ::testing::Range(1, 13));

TEST(KernelEquivalenceEdge, AllEmptyWeightRows) {
  CooMatrix coo(8, 8);  // no entries at all
  const auto w = CsrMatrix::from_coo(coo);
  const auto w_csc = CscMatrix::from_csr(w);
  const auto y = random_activations(8, 9, 0.9, 11);
  // Different prefills: full-batch arms overwrite every output element.
  for (int i = 0; i < kNumSpmmVariants; ++i) {
    const auto v = static_cast<SpmmVariant>(i);
    const auto ref = run_arm(family_scalar(v), w, w_csc, y, nullptr,
                             nullptr, SpmmEpilogue::kFused, 3.0f);
    const auto out = run_arm(v, w, w_csc, y, nullptr, nullptr,
                             SpmmEpilogue::kFused, 7.0f);
    EXPECT_TRUE(bit_equal(ref, out)) << to_string(v);
    EXPECT_EQ(out.count_nonzeros(), 0u) << to_string(v);
  }
}

TEST(KernelEquivalenceEdge, AllZeroActivations) {
  const auto w = random_weights(32, 32, 0.5, 17);
  const auto w_csc = CscMatrix::from_csr(w);
  DenseMatrix y(32, 12);  // all zeros: scatter group-skip fires everywhere
  for (int i = 0; i < kNumSpmmVariants; ++i) {
    const auto v = static_cast<SpmmVariant>(i);
    const auto ref = run_arm(family_scalar(v), w, w_csc, y, nullptr,
                             nullptr, SpmmEpilogue::kFused, 1.0f);
    EXPECT_TRUE(bit_equal(ref, run_arm(v, w, w_csc, y, nullptr, nullptr,
                                       SpmmEpilogue::kFused, 2.0f)))
        << to_string(v);
  }
}

// --- Fused epilogue --------------------------------------------------------
//
// Contract under test: every arm with its epilogue fused is *bit-identical*
// to the same arm with the split epilogue, and both to the plain arm
// followed by apply_bias_activation on the same columns — same
// accumulation order, epilogue applied per element after its chain
// completes. Signs, clipping at 0 and at ymax, per-row and scalar bias
// all ride along.

std::vector<float> random_bias(std::size_t rows, std::uint64_t seed) {
  platform::Rng rng(seed);
  std::vector<float> b(rows);
  for (auto& v : b) v = rng.uniform(-0.4f, 0.4f);
  return b;
}

/// Fused and split runs of every arm (full batch, or `subset`) against
/// the plain run of the same arm followed by the public epilogue pass.
void expect_fused_equals_split(const CsrMatrix& w, const CscMatrix& w_csc,
                               const DenseMatrix& y, const BiasAct& epi,
                               const std::vector<Index>* subset,
                               const std::string& what) {
  // 0.5f sentinel: columns outside a subset stay untouched in every mode
  // (and therefore still compare bit-equal).
  for (int i = 0; i < kNumSpmmVariants; ++i) {
    const auto v = static_cast<SpmmVariant>(i);
    const auto fused =
        run_arm(v, w, w_csc, y, subset, &epi, SpmmEpilogue::kFused, 0.5f);
    const auto split =
        run_arm(v, w, w_csc, y, subset, &epi, SpmmEpilogue::kSplit, 0.5f);
    EXPECT_TRUE(bit_equal(split, fused)) << to_string(v) << " " << what;
    if (subset == nullptr) {
      auto manual = run_arm(v, w, w_csc, y);
      apply_bias_activation(manual, epi);
      EXPECT_TRUE(bit_equal(manual, split)) << to_string(v) << " " << what;
    }
  }
}

TEST_P(KernelEquivalence, FusedFullMatrixBitIdenticalToSplit) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  platform::Rng rng(seed * 31337 + 5);
  const Index rows = static_cast<Index>(16 + rng.next_below(80));
  const Index cols = static_cast<Index>(16 + rng.next_below(80));
  const float ymax = 1.0f;  // low enough that both clip edges fire
  const auto bias = random_bias(static_cast<std::size_t>(rows), seed + 77);
  const BiasAct epi{bias, 0.0f, ymax};
  for (double density : {0.1, 0.6}) {
    const auto w = random_weights(rows, cols, density, seed + 4000);
    const auto w_csc = CscMatrix::from_csr(w);
    for (std::size_t batch : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                              std::size_t{9}, std::size_t{16}}) {
      const auto y = random_activations(static_cast<std::size_t>(cols), batch,
                                        density, seed + batch);
      expect_fused_equals_split(w, w_csc, y, epi, nullptr,
                                "batch " + std::to_string(batch));
    }
  }
}

TEST_P(KernelEquivalence, FusedScalarBiasBitIdenticalToSplit) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const auto w = random_weights(48, 64, 0.3, seed + 5000);
  const auto w_csc = CscMatrix::from_csr(w);
  const auto y = random_activations(64, 9, 0.5, seed + 13);
  const BiasAct epi{{}, -0.2f, 1.5f};  // empty bias selects the scalar arm
  expect_fused_equals_split(w, w_csc, y, epi, nullptr, "scalar bias");
}

TEST_P(KernelEquivalence, FusedColumnSubsetBitIdenticalToSplit) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  platform::Rng rng(seed * 2741 + 11);
  const Index rows = static_cast<Index>(16 + rng.next_below(64));
  const Index cols = static_cast<Index>(16 + rng.next_below(64));
  const auto w = random_weights(rows, cols, 0.3, seed + 6000);
  const auto w_csc = CscMatrix::from_csr(w);
  const std::size_t batch = 3 + rng.next_below(20);
  const auto y = random_activations(static_cast<std::size_t>(cols), batch,
                                    0.4, seed + 17);
  const auto subset = random_subset(rng, batch);
  const auto bias = random_bias(static_cast<std::size_t>(rows), seed + 19);
  const BiasAct epi{bias, 0.0f, 1.0f};
  expect_fused_equals_split(w, w_csc, y, epi, &subset, "subset");
}

// --- Policy layer ----------------------------------------------------------

TEST(SpmmPolicy, VariantNamesRoundTrip) {
  for (int i = -1; i < kNumSpmmVariants; ++i) {
    const auto v = static_cast<SpmmVariant>(i);
    const auto parsed = parse_spmm_variant(to_string(v));
    ASSERT_TRUE(parsed.has_value()) << to_string(v);
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(parse_spmm_variant("").has_value());
  EXPECT_FALSE(parse_spmm_variant("avx512").has_value());
}

TEST(SpmmPolicy, SimdCompiledMatchesBuildFlag) {
#if defined(SNICIT_SIMD)
  EXPECT_TRUE(simd_compiled());
#else
  EXPECT_FALSE(simd_compiled());
#endif
}

TEST(SpmmPolicy, ForcedVariantAlwaysSelected) {
  SpmmProblem p;
  p.rows = 8;
  p.nnz = 16;
  p.batch_cols = 2;
  p.density = 1.0;
  p.has_csc = false;  // even then: forcing is never second-guessed
  SpmmPolicy policy;
  for (int i = 0; i < kNumSpmmVariants; ++i) {
    policy.variant = static_cast<SpmmVariant>(i);
    EXPECT_EQ(select_spmm_variant(p, policy), policy.variant);
  }
}

TEST(SpmmPolicy, AutoNeverPicksScatterWithoutCsc) {
  SpmmPolicy policy;
  SpmmProblem p;
  p.rows = 1024;
  p.nnz = 32 * 1024;
  p.batch_cols = 64;
  p.has_csc = false;
  for (double density : {0.001, 0.05, 0.5, 1.0}) {
    p.density = density;
    const auto v = select_spmm_variant(p, policy);
    EXPECT_NE(v, SpmmVariant::kScatter) << density;
    EXPECT_NE(v, SpmmVariant::kScatterSimd) << density;
  }
}

TEST(SpmmPolicy, CostModelPrefersBlockedGatherOnWideDenseBatches) {
  // The clauses compare lane amortisation at equal parallelism: at pool 1
  // every arm gets one slot, so the pool size of the host (which splits
  // scalar gather over its columns but blocked gather over its groups)
  // does not enter the comparison.
  platform::ScopedSerialRegion serial;
  SpmmProblem p;
  p.rows = 1024;
  p.nnz = 32 * 1024;
  p.batch_cols = 64;
  p.density = 1.0;
  p.has_csc = true;
  SpmmPolicy policy;
  EXPECT_LT(spmm_variant_cost(SpmmVariant::kGatherSimd, p, policy),
            spmm_variant_cost(SpmmVariant::kGatherScalar, p, policy));
  EXPECT_LT(spmm_variant_cost(SpmmVariant::kGatherSimd, p, policy),
            spmm_variant_cost(SpmmVariant::kScatterSimd, p, policy));
  // Narrow batches cannot fill the lanes: blocked pricing falls back to
  // scalar and auto selection stays with a scalar-cost arm.
  p.batch_cols = 2;
  EXPECT_DOUBLE_EQ(spmm_variant_cost(SpmmVariant::kGatherSimd, p, policy),
                   spmm_variant_cost(SpmmVariant::kGatherScalar, p, policy));
}

TEST(SpmmPolicy, SpecParsingCoversVariantEpilogueAndCombined) {
  SpmmPolicy p;
  ASSERT_EQ(p.epilogue, SpmmEpilogue::kFused);  // fused is the default

  // VARIANT+EPILOGUE sets both.
  EXPECT_TRUE(apply_spmm_spec("gather_simd+split", p));
  EXPECT_EQ(p.variant, SpmmVariant::kGatherSimd);
  EXPECT_EQ(p.epilogue, SpmmEpilogue::kSplit);

  // Bare epilogue flips the mode, leaves the variant alone.
  EXPECT_TRUE(apply_spmm_spec("fused", p));
  EXPECT_EQ(p.variant, SpmmVariant::kGatherSimd);
  EXPECT_EQ(p.epilogue, SpmmEpilogue::kFused);

  // Bare variant keeps whatever epilogue was in force.
  EXPECT_TRUE(apply_spmm_spec("split", p));
  EXPECT_TRUE(apply_spmm_spec("scatter", p));
  EXPECT_EQ(p.variant, SpmmVariant::kScatter);
  EXPECT_EQ(p.epilogue, SpmmEpilogue::kSplit);

  // Junk, bare or in either half, rejects without touching the policy.
  const SpmmPolicy before = p;
  EXPECT_FALSE(apply_spmm_spec("not-a-kernel", p));
  EXPECT_FALSE(apply_spmm_spec("gather+turbo", p));
  EXPECT_FALSE(apply_spmm_spec("warp+fused", p));
  EXPECT_FALSE(apply_spmm_spec("gather+", p));
  EXPECT_FALSE(apply_spmm_spec("", p));
  EXPECT_EQ(p.variant, before.variant);
  EXPECT_EQ(p.epilogue, before.epilogue);
}

TEST(SpmmPolicy, EpilogueCostFreeWhenFusedUniformWhenSplit) {
  SpmmProblem p;
  p.rows = 1024;
  p.nnz = 32 * 1024;
  p.batch_cols = 64;
  p.density = 0.5;
  p.has_csc = true;
  SpmmPolicy policy;

  // No epilogue on the call: no term, either mode.
  p.has_epilogue = false;
  EXPECT_DOUBLE_EQ(spmm_epilogue_cost(p, policy), 0.0);

  // Fused epilogue rides the store for free.
  p.has_epilogue = true;
  policy.epilogue = SpmmEpilogue::kFused;
  EXPECT_DOUBLE_EQ(spmm_epilogue_cost(p, policy), 0.0);

  // Split pays the second sweep — and pays it identically whatever
  // variant is under consideration, so the cost-model argmin (the
  // variant choice) is epilogue-invariant.
  policy.epilogue = SpmmEpilogue::kSplit;
  const double split_cost = spmm_epilogue_cost(p, policy);
  EXPECT_GT(split_cost, 0.0);
  SpmmPolicy fused_policy;
  for (int i = 0; i < kNumSpmmVariants; ++i) {
    const auto v = static_cast<SpmmVariant>(i);
    EXPECT_DOUBLE_EQ(spmm_variant_cost(v, p, policy) - split_cost,
                     spmm_variant_cost(v, p, fused_policy))
        << to_string(v);
  }
}

TEST(SpmmDispatch, FusedEntryPointBitIdenticalAcrossModes) {
  const auto w = random_weights(48, 64, 0.3, 47);
  const auto w_csc = CscMatrix::from_csr(w);
  const auto y = random_activations(64, 11, 0.5, 53);
  std::vector<float> bias(48);
  for (std::size_t r = 0; r < 48; ++r) {
    bias[r] = 0.1f * static_cast<float>(r % 7) - 0.3f;
  }
  const BiasAct epi{bias, 0.0f, 1.0f};
  // Manual split reference.
  DenseMatrix ref(48, 11);
  spmm_gather(w, y, ref);
  apply_bias_activation(ref, epi);

  for (int i = 0; i < kNumSpmmVariants; ++i) {
    SpmmPolicy policy;
    policy.variant = static_cast<SpmmVariant>(i);
    policy.epilogue = SpmmEpilogue::kFused;
    DenseMatrix fused(48, 11);
    const auto ran_f =
        spmm_dispatch_fused(w, &w_csc, y, fused, 0.5, epi, policy);
    EXPECT_EQ(ran_f, policy.variant);
    policy.epilogue = SpmmEpilogue::kSplit;
    DenseMatrix split(48, 11);
    const auto ran_s =
        spmm_dispatch_fused(w, &w_csc, y, split, 0.5, epi, policy);
    EXPECT_EQ(ran_s, policy.variant);
    // The two modes of the same variant are bit-identical; both track
    // the scalar reference to cross-family tolerance.
    EXPECT_TRUE(bit_equal(fused, split)) << to_string(policy.variant);
    expect_close(ref, fused, to_string(policy.variant));
  }
}

TEST(SpmmDispatch, FusedColumnSubsetBitIdenticalAcrossModes) {
  const auto w = random_weights(40, 56, 0.3, 59);
  const auto w_csc = CscMatrix::from_csr(w);
  const auto y = random_activations(56, 14, 0.5, 61);
  const std::vector<Index> subset = {1, 2, 5, 6, 10, 13};
  std::vector<float> bias(40, 0.05f);
  const BiasAct epi{bias, 0.0f, 2.0f};
  for (int i = 0; i < kNumSpmmVariants; ++i) {
    SpmmPolicy policy;
    policy.variant = static_cast<SpmmVariant>(i);
    policy.epilogue = SpmmEpilogue::kFused;
    DenseMatrix fused(40, 14, 0.5f);
    spmm_dispatch_cols_fused(w, &w_csc, y, subset, fused, 0.5, epi, policy);
    policy.epilogue = SpmmEpilogue::kSplit;
    DenseMatrix split(40, 14, 0.5f);
    spmm_dispatch_cols_fused(w, &w_csc, y, subset, split, 0.5, epi, policy);
    EXPECT_TRUE(bit_equal(fused, split)) << to_string(policy.variant);
    // Columns outside the subset keep their sentinel in both modes.
    EXPECT_FLOAT_EQ(fused.at(0, 0), 0.5f);
    EXPECT_FLOAT_EQ(split.at(0, 0), 0.5f);
  }
}

TEST(SpmmDispatch, EveryForcedVariantMatchesReference) {
  const auto w = random_weights(48, 64, 0.3, 23);
  const auto w_csc = CscMatrix::from_csr(w);
  const auto y = random_activations(64, 11, 0.5, 29);
  DenseMatrix ref(48, 11);
  spmm_gather(w, y, ref);
  SpmmPolicy policy;
  for (int i = 0; i < kNumSpmmVariants; ++i) {
    policy.variant = static_cast<SpmmVariant>(i);
    DenseMatrix out(48, 11);
    const auto ran = spmm_dispatch(w, &w_csc, y, out, 0.5, policy);
    EXPECT_EQ(ran, policy.variant);
    expect_close(ref, out, to_string(policy.variant));
  }
  // Auto dispatch must also match, whatever it picks.
  policy.variant = SpmmVariant::kAuto;
  DenseMatrix out(48, 11);
  const auto ran = spmm_dispatch(w, &w_csc, y, out, 0.5, policy);
  EXPECT_NE(ran, SpmmVariant::kAuto);
  expect_close(ref, out, "auto dispatch");
}

TEST(SpmmDispatch, ColumnSubsetForcedVariantsMatchReference) {
  const auto w = random_weights(40, 56, 0.3, 31);
  const auto w_csc = CscMatrix::from_csr(w);
  const auto y = random_activations(56, 14, 0.5, 37);
  const std::vector<Index> subset = {0, 2, 3, 7, 8, 9, 13};
  DenseMatrix ref(40, 14);
  spmm_gather(w, y, ref);
  SpmmPolicy policy;
  for (int i = 0; i < kNumSpmmVariants; ++i) {
    policy.variant = static_cast<SpmmVariant>(i);
    DenseMatrix out(40, 14);
    const auto ran =
        spmm_dispatch_cols(w, &w_csc, y, subset, out, 0.5, policy);
    EXPECT_EQ(ran, policy.variant);
    for (Index jc : subset) {
      for (std::size_t r = 0; r < 40; ++r) {
        const float e = ref.at(r, static_cast<std::size_t>(jc));
        const float g = out.at(r, static_cast<std::size_t>(jc));
        ASSERT_NEAR(e, g, 1e-4f * std::max(1.0f, std::abs(e)))
            << to_string(policy.variant);
      }
    }
  }
}

TEST(SpmmDispatch, SerialRegionStillDispatchesCorrectly) {
  // Inside a serial region the model prices everything at one slot; the
  // dispatch must still run and match (this is the 1-thread leg of the
  // 1-vs-N determinism guarantee; kernels are order-deterministic, so the
  // outputs are bitwise identical across pool sizes).
  const auto w = random_weights(32, 48, 0.4, 41);
  const auto w_csc = CscMatrix::from_csr(w);
  const auto y = random_activations(48, 16, 0.7, 43);
  DenseMatrix pooled(32, 16);
  spmm_dispatch(w, &w_csc, y, pooled, 0.7, SpmmPolicy{});
  platform::ScopedSerialRegion serial;
  DenseMatrix inline_out(32, 16);
  spmm_dispatch(w, &w_csc, y, inline_out, 0.7, SpmmPolicy{});
  // Variant choice may differ between the two regimes; results may not.
  expect_close(pooled, inline_out, "serial vs pooled dispatch");
}

}  // namespace
}  // namespace snicit::sparse
