// Parameterised property suites over the SNICIT invariants:
//   P1  recover(convert(Y)) == Y (up to float addition)
//   P2  SNICIT(no pruning) ~= reference, for any (t, s, n, kernel)
//   P3  compressed nnz <= dense nnz after conversion on clustered batches
//   P4  ne_idx is always sorted, unique, and consistent with ne_rec
//   P5  centroid count is in [1, s]
#include <gtest/gtest.h>

#include <set>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/rng.hpp"
#include "radixnet/radixnet.hpp"
#include "snicit/convert.hpp"
#include "snicit/engine.hpp"
#include "snicit/recovery.hpp"
#include "snicit/sample_prune.hpp"
#include "snicit/sampling.hpp"

namespace snicit::core {
namespace {

class ConvertRecoverProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConvertRecoverProperty, RoundTripWithinFloatTolerance) {
  const int seed = GetParam();
  platform::Rng rng(static_cast<std::uint64_t>(seed));
  const std::size_t n = 16 + rng.next_below(64);
  const std::size_t b = 4 + rng.next_below(60);
  DenseMatrix y(n, b);
  for (std::size_t i = 0; i < n * b; ++i) {
    y.data()[i] = rng.uniform(0.0f, 32.0f);
  }
  // Random centroid subset (always includes column 0).
  std::vector<sparse::Index> centroids = {0};
  for (std::size_t j = 1; j < b; ++j) {
    if (rng.next_bool(0.2)) centroids.push_back(static_cast<sparse::Index>(j));
  }
  const auto batch = convert_to_compressed(y, centroids, 0.0f);
  const auto recovered = recover_results(batch);
  // (a - b) + b can round, but stays within one ulp of the magnitudes here.
  EXPECT_LE(DenseMatrix::max_abs_diff(recovered, y), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvertRecoverProperty,
                         ::testing::Range(1, 17));

struct EngineParamCase {
  int threshold;
  int sample_size;
  int downsample;
  sparse::SpmmVariant kernel;
};

class SnicitEquivalenceProperty
    : public ::testing::TestWithParam<EngineParamCase> {};

TEST_P(SnicitEquivalenceProperty, MatchesReferenceCategories) {
  const auto param = GetParam();
  radixnet::RadixNetOptions opt;
  opt.neurons = 128;
  opt.layers = 14;
  opt.fanin = 16;
  opt.seed = 31;
  const auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = 128;
  in_opt.batch = 40;
  in_opt.classes = 5;
  in_opt.seed = 32;
  const auto input = data::make_sdgc_input(in_opt).features;
  const auto golden = dnn::reference_forward(net, input);

  SnicitParams params;
  params.threshold_layer = param.threshold;
  params.sample_size = param.sample_size;
  params.downsample_dim = param.downsample;
  params.spmm.variant = param.kernel;
  SnicitEngine engine(params);
  const auto result = engine.run(net, input);

  EXPECT_LE(DenseMatrix::max_abs_diff(result.output, golden), 5e-3f);
  EXPECT_DOUBLE_EQ(
      dnn::category_match_rate(dnn::sdgc_categories(result.output, 1e-3f),
                               dnn::sdgc_categories(golden, 1e-3f)),
      1.0);
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, SnicitEquivalenceProperty,
    ::testing::Values(
        EngineParamCase{2, 8, 0, sparse::SpmmVariant::kScatter},
        EngineParamCase{6, 16, 0, sparse::SpmmVariant::kScatter},
        EngineParamCase{6, 16, 8, sparse::SpmmVariant::kScatter},
        EngineParamCase{6, 40, 16, sparse::SpmmVariant::kGatherScalar},
        EngineParamCase{10, 16, 0, sparse::SpmmVariant::kGatherSimd},
        EngineParamCase{13, 8, 8, sparse::SpmmVariant::kScatter},
        EngineParamCase{14, 8, 0, sparse::SpmmVariant::kScatter}));

class CompressionProperty : public ::testing::TestWithParam<int> {};

TEST_P(CompressionProperty, ConversionNeverInflatesClusteredBatches) {
  const int seed = GetParam();
  // Clustered batch: k prototypes, members differ in few entries.
  platform::Rng rng(static_cast<std::uint64_t>(seed) * 7 + 1);
  const std::size_t n = 80;
  const std::size_t b = 50;
  const std::size_t k = 1 + rng.next_below(6);
  DenseMatrix proto(n, k);
  for (std::size_t i = 0; i < n * k; ++i) {
    proto.data()[i] = rng.uniform(0.0f, 32.0f);
  }
  DenseMatrix y(n, b);
  for (std::size_t j = 0; j < b; ++j) {
    const std::size_t c = j % k;
    std::copy_n(proto.col(c), n, y.col(j));
    for (std::size_t r = 0; r < n; ++r) {
      if (rng.next_bool(0.03)) y.at(r, j) += 1.0f;
    }
  }
  // First k columns cover all classes (round-robin), so use them as
  // centroids.
  std::vector<sparse::Index> centroids;
  for (std::size_t c = 0; c < k; ++c) {
    centroids.push_back(static_cast<sparse::Index>(c));
  }
  const auto batch = convert_to_compressed(y, centroids, 0.0f);
  EXPECT_LE(batch.yhat.count_nonzeros(), y.count_nonzeros());

  // P4: ne_idx sorted, unique, consistent with ne_rec.
  std::set<sparse::Index> seen;
  for (std::size_t i = 0; i < batch.ne_idx.size(); ++i) {
    if (i > 0) EXPECT_LT(batch.ne_idx[i - 1], batch.ne_idx[i]);
    seen.insert(batch.ne_idx[i]);
    EXPECT_EQ(batch.ne_rec[static_cast<std::size_t>(batch.ne_idx[i])], 1);
  }
  for (std::size_t j = 0; j < b; ++j) {
    if (batch.ne_rec[j] != 0) {
      const bool listed = seen.count(static_cast<sparse::Index>(j)) > 0;
      EXPECT_TRUE(listed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionProperty,
                         ::testing::Range(1, 13));

class CentroidCountProperty : public ::testing::TestWithParam<int> {};

TEST_P(CentroidCountProperty, BoundedBySampleSize) {
  const int s = GetParam();
  platform::Rng rng(static_cast<std::uint64_t>(s));
  DenseMatrix y(64, 100);
  for (std::size_t i = 0; i < 64 * 100; ++i) {
    y.data()[i] = rng.uniform(0.0f, 32.0f);
  }
  const auto f = build_sample_matrix(y, s, 16);
  const auto centroids = prune_samples(f, 0.03f, 0.03f);
  EXPECT_GE(centroids.size(), 1u);
  EXPECT_LE(centroids.size(), static_cast<std::size_t>(s));
  for (auto c : centroids) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, s);
  }
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, CentroidCountProperty,
                         ::testing::Values(1, 2, 8, 32, 64, 100));

}  // namespace
}  // namespace snicit::core
