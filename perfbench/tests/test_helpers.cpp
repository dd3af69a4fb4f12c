// Unit tests of the benchmark's own rules: tail percentile choice,
// quantiles, Poisson schedules, latency from due time, output digests,
// seeded orders and span self time.
#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(TailPercentile, PicksHighestLevelWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 0.0);
  EXPECT_EQ(tail_percentile(19), 0.0);   // median leaves 9.5 beyond
  EXPECT_EQ(tail_percentile(20), 0.5);
  EXPECT_EQ(tail_percentile(99), 0.5);   // p90 would leave 9.9
  EXPECT_EQ(tail_percentile(100), 0.9);  // exactly 10 beyond p90
  EXPECT_EQ(tail_percentile(999), 0.9);
  EXPECT_EQ(tail_percentile(1000), 0.99);
  EXPECT_EQ(tail_percentile(9999), 0.99);
  EXPECT_EQ(tail_percentile(10000), 0.999);
  EXPECT_EQ(tail_percentile(200, 20), 0.9);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0);
  EXPECT_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0);
  EXPECT_EQ(quantile({1.0, 2.0}, 7.0), 2.0);  // q clamps to [0, 1]
}

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedDiffers) {
  const auto a = poisson_schedule(2000.0, 1000.0, 7);
  const auto b = poisson_schedule(2000.0, 1000.0, 7);
  const auto c = poisson_schedule(2000.0, 1000.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonSchedule, IncreasingWithinTheStepAtTheOfferedRate) {
  const auto due = poisson_schedule(4000.0, 2000.0, 11);
  ASSERT_FALSE(due.empty());
  EXPECT_GT(due.front(), 0.0);
  EXPECT_LT(due.back(), 2000.0);
  for (std::size_t i = 1; i < due.size(); ++i) EXPECT_GT(due[i], due[i - 1]);
  // 8000 expected arrivals; Poisson sd is ~89.
  EXPECT_NEAR(static_cast<double>(due.size()), 8000.0, 400.0);
  EXPECT_TRUE(poisson_schedule(0.0, 1000.0, 1).empty());
  EXPECT_TRUE(poisson_schedule(1000.0, 0.0, 1).empty());
}

TEST(LatencyFromDue, AddsGeneratorLatenessToServedLatency) {
  EXPECT_DOUBLE_EQ(latency_from_due_ms(10.0, 12.5, 3.0), 5.5);
  EXPECT_DOUBLE_EQ(latency_from_due_ms(10.0, 10.0, 3.0), 3.0);
  // A submit that blocked behind a full queue still counts from due.
  EXPECT_DOUBLE_EQ(latency_from_due_ms(0.0, 40.0, 1.0), 41.0);
}

TEST(Digest, MatchesFnv1aAndSeesEveryBit) {
  // FNV-1a 64 of "a" is the published test vector.
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
  DenseMatrix m(3, 2, 0.0f);
  m.at(1, 1) = 1.5f;
  const std::uint64_t d = digest(m);
  EXPECT_EQ(digest(m), d);
  DenseMatrix flipped = m;
  flipped.at(2, 0) = -0.0f;  // same value, different bits
  EXPECT_NE(digest(flipped), d);
  EXPECT_FALSE(bit_equal(flipped, m));
  EXPECT_NE(digest(DenseMatrix(2, 3, 0.0f)), digest(DenseMatrix(3, 2, 0.0f)));
  EXPECT_TRUE(bit_equal(m, m));
  EXPECT_FALSE(bit_equal(m, DenseMatrix(2, 3, 0.0f)));
}

TEST(DeriveSeed, StreamsAreDistinctAndStable) {
  EXPECT_EQ(derive_seed(1, 2), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 2), derive_seed(1, 3));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 2));
}

TEST(SeededPermutation, SameSeedSameOrderAndEveryIndexOnce) {
  const auto a = seeded_permutation(100, 5);
  EXPECT_EQ(a, seeded_permutation(100, 5));
  EXPECT_NE(a, seeded_permutation(100, 6));
  auto sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_TRUE(seeded_permutation(0, 1).empty());
}

TEST(SpanRecorder, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder rec;
  const int root = rec.add("batch", 0.0, 10000.0, -1, 1);
  rec.add("a", 1000.0, 4000.0, root, 1);
  rec.add("b", 3000.0, 5000.0, root, 1);     // overlaps a
  rec.add("c", 9000.0, 12000.0, root, 1);    // runs past the parent
  const auto self = rec.self_ms_by_name();
  EXPECT_DOUBLE_EQ(self.at("batch"), 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self.at("a"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("c"), 3.0);
}

}  // namespace
}  // namespace perfbench
