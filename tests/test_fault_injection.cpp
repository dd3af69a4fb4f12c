// Fault-injection suite: determinism and parsing of the FaultRegistry,
// and fault drills through the resilient serving pipeline — a
// worker_throw drill must lose zero batches and stay bit-identical to
// the fault-free run, a producer queue_stall must be output-invisible,
// and an attempts-exhausting drill must land in StreamResult::failures
// without aborting the stream. All drills run under a fixed seed, so
// every assertion is deterministic.
#include "platform/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/error.hpp"
#include "radixnet/radixnet.hpp"
#include "snicit/engine.hpp"
#include "snicit/parallel_stream.hpp"

namespace snicit::platform::fault {
namespace {

/// Every test disarms the process-wide registry on the way out so suites
/// sharing the binary never see stale fault configs.
class FaultRegistryTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::global().clear(); }
};

TEST(ErrorCodePrinter, GtestPrintsTheStableName) {
  // Failed EXPECT_EQs on codes (as below) print names, not enum bytes.
  EXPECT_EQ(::testing::PrintToString(ErrorCode::kBadModelFile),
            "bad_model_file");
  EXPECT_EQ(::testing::PrintToString(ErrorCode::kBadInput), "bad_input");
}

TEST_F(FaultRegistryTest, DisarmedByDefaultAndAfterClear) {
  auto& reg = FaultRegistry::global();
  reg.clear();
  EXPECT_FALSE(reg.armed());
  EXPECT_FALSE(should_fire("worker_throw", 0));
  ASSERT_TRUE(reg.configure("worker_throw:1.0", 1).ok());
  EXPECT_TRUE(reg.armed());
  reg.clear();
  EXPECT_FALSE(reg.armed());
  EXPECT_EQ(reg.spec(), "");
}

TEST_F(FaultRegistryTest, MalformedSpecsAreTypedErrorsAndLeaveStateAlone) {
  auto& reg = FaultRegistry::global();
  ASSERT_TRUE(reg.configure("worker_throw:0.25", 7).ok());
  const std::string before = reg.spec();

  const std::vector<std::string> bad = {
      "no_such_site:0.5",        // unknown site: a typo must not arm nothing
      "worker_throw",            // missing probability
      "worker_throw:nope",       // unparseable probability
      "worker_throw:1.5",        // probability outside [0, 1]
      "worker_throw:-0.1",
      "worker_throw:0.1,worker_throw:0.2",  // duplicate site
      "worker_throw:0.1:xyz",    // unparseable param
  };
  for (const auto& spec : bad) {
    const auto result = reg.configure(spec, 7);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.code(), ErrorCode::kBadInput) << spec;
    EXPECT_EQ(reg.spec(), before) << spec;  // registry unchanged
  }
}

TEST_F(FaultRegistryTest, SpecRoundTripsAndParamIsExposed) {
  auto& reg = FaultRegistry::global();
  ASSERT_TRUE(reg.configure("queue_stall:0.5:12.5,worker_throw:0.25", 3).ok());
  EXPECT_DOUBLE_EQ(reg.param("queue_stall", 5.0), 12.5);
  EXPECT_DOUBLE_EQ(reg.param("worker_throw", 5.0), 5.0);  // unset: fallback
  const std::string spec = reg.spec();
  EXPECT_NE(spec.find("queue_stall:0.5:12.5"), std::string::npos);
  EXPECT_NE(spec.find("worker_throw:0.25"), std::string::npos);
}

TEST_F(FaultRegistryTest, KeyedTrialsAreAPureFunctionOfSeedSiteKey) {
  auto& reg = FaultRegistry::global();
  ASSERT_TRUE(reg.configure("worker_throw:0.2", 42).ok());
  std::vector<bool> first;
  for (std::uint64_t k = 0; k < 512; ++k) {
    first.push_back(reg.should_fire("worker_throw", k));
  }
  // Re-arming with the same seed reproduces the exact decision sequence,
  // regardless of everything that fired in between.
  ASSERT_TRUE(reg.configure("worker_throw:0.2,nan_tile:0.5", 42).ok());
  for (std::uint64_t k = 0; k < 512; ++k) {
    EXPECT_EQ(reg.should_fire("worker_throw", k), first[k]) << k;
  }
  // A different seed gives a different (but still deterministic) set.
  ASSERT_TRUE(reg.configure("worker_throw:0.2", 43).ok());
  std::size_t diffs = 0;
  for (std::uint64_t k = 0; k < 512; ++k) {
    diffs += reg.should_fire("worker_throw", k) != first[k];
  }
  EXPECT_GT(diffs, 0u);
}

TEST_F(FaultRegistryTest, FiringRateTracksProbability) {
  auto& reg = FaultRegistry::global();
  ASSERT_TRUE(reg.configure("worker_throw:0.0,nan_tile:1.0", 9).ok());
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_FALSE(reg.should_fire("worker_throw", k));
    EXPECT_TRUE(reg.should_fire("nan_tile", k));
  }
  EXPECT_EQ(reg.fired("worker_throw"), 0u);
  EXPECT_EQ(reg.fired("nan_tile"), 200u);
  EXPECT_EQ(reg.trials("worker_throw"), 200u);

  ASSERT_TRUE(reg.configure("worker_throw:0.5", 11).ok());
  std::size_t fired = 0;
  constexpr std::uint64_t kTrials = 10000;
  for (std::uint64_t k = 0; k < kTrials; ++k) {
    fired += reg.should_fire("worker_throw", k);
  }
  // The keyed hash is uniform: 0.5 +/- a generous tolerance.
  EXPECT_GT(fired, kTrials / 2 - 500);
  EXPECT_LT(fired, kTrials / 2 + 500);
}

TEST_F(FaultRegistryTest, SequenceKeyedTrialsAdvance) {
  auto& reg = FaultRegistry::global();
  ASSERT_TRUE(reg.configure("convert_nan:1.0", 5).ok());
  EXPECT_TRUE(reg.should_fire("convert_nan"));
  EXPECT_TRUE(reg.should_fire("convert_nan"));
  EXPECT_EQ(reg.trials("convert_nan"), 2u);
}

// --- Serving drills -------------------------------------------------------

struct Workload {
  dnn::SparseDnn net;
  dnn::DenseMatrix input;
};

Workload make_workload(std::size_t batch) {
  radixnet::RadixNetOptions opt;
  opt.neurons = 64;
  opt.layers = 12;
  opt.fanin = 8;
  opt.seed = 5;
  auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = 64;
  in_opt.batch = batch;
  in_opt.seed = 6;
  auto input = data::make_sdgc_input(in_opt).features;
  return {std::move(net), std::move(input)};
}

core::SnicitParams snicit_params() {
  core::SnicitParams p;
  p.threshold_layer = 4;
  p.sample_size = 16;
  p.downsample_dim = 0;
  return p;
}

TEST_F(FaultRegistryTest, WorkerThrowDrillLosesNothingAndStaysBitIdentical) {
  // The acceptance drill: a 512-sample stream under worker_throw:0.05
  // completes with zero lost batches and outputs bit-identical to the
  // fault-free run — retries land the faulted batches on fresh engines.
  auto wl = make_workload(512);
  core::ParallelStreamOptions opt;
  opt.batch_size = 16;  // 32 batches
  opt.workers = 4;
  opt.retry_backoff_ms = 0.0;  // keep the drill fast

  core::SnicitEngine clean_engine(snicit_params());
  const auto clean =
      core::ParallelStreamExecutor(opt).run(clean_engine, wl.net, wl.input);
  ASSERT_TRUE(clean.complete());
  EXPECT_EQ(clean.retries, 0u);

  ASSERT_TRUE(
      FaultRegistry::global().configure("worker_throw:0.05", 42).ok());
  core::SnicitEngine drilled_engine(snicit_params());
  const auto drilled =
      core::ParallelStreamExecutor(opt).run(drilled_engine, wl.net, wl.input);

  EXPECT_EQ(drilled.lost_batches(), 0u);
  EXPECT_TRUE(drilled.complete());
  EXPECT_GT(drilled.retries, 0u);  // seed 42 fires on this stream
  EXPECT_FLOAT_EQ(
      dnn::DenseMatrix::max_abs_diff(drilled.outputs, clean.outputs), 0.0f);
  EXPECT_GT(FaultRegistry::global().fired("worker_throw"), 0u);
}

TEST_F(FaultRegistryTest, WorkerThrowDrillIsReproducibleUnderOneSeed) {
  auto wl = make_workload(128);
  core::ParallelStreamOptions opt;
  opt.batch_size = 8;
  opt.workers = 3;
  opt.retry_backoff_ms = 0.0;

  std::size_t retries[2];
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(
        FaultRegistry::global().configure("worker_throw:0.2", 7).ok());
    core::SnicitEngine engine(snicit_params());
    const auto result =
        core::ParallelStreamExecutor(opt).run(engine, wl.net, wl.input);
    EXPECT_TRUE(result.complete());
    retries[round] = result.retries;
  }
  // Same seed, same stream -> the same batches fault on every run.
  EXPECT_EQ(retries[0], retries[1]);
  EXPECT_GT(retries[0], 0u);
}

TEST_F(FaultRegistryTest, QueueStallDrillIsOutputInvisible) {
  auto wl = make_workload(96);
  core::ParallelStreamOptions opt;
  opt.batch_size = 12;
  opt.workers = 3;

  core::SnicitEngine clean_engine(snicit_params());
  const auto clean =
      core::ParallelStreamExecutor(opt).run(clean_engine, wl.net, wl.input);

  ASSERT_TRUE(
      FaultRegistry::global().configure("queue_stall:1.0:1", 13).ok());
  core::SnicitEngine stalled_engine(snicit_params());
  const auto stalled = core::ParallelStreamExecutor(opt).run(
      stalled_engine, wl.net, wl.input);

  EXPECT_TRUE(stalled.complete());
  EXPECT_FLOAT_EQ(
      dnn::DenseMatrix::max_abs_diff(stalled.outputs, clean.outputs), 0.0f);
  EXPECT_GT(FaultRegistry::global().fired("queue_stall"), 0u);
}

TEST_F(FaultRegistryTest, CertainFaultExhaustsRetriesIntoFailureLedger) {
  // worker_throw:1.0 fires on every attempt of every batch: each batch
  // burns its full retry budget and is recorded, the stream still drains
  // cleanly, and failed batches keep zeroed output columns.
  auto wl = make_workload(64);
  ASSERT_TRUE(
      FaultRegistry::global().configure("worker_throw:1.0", 21).ok());
  core::ParallelStreamOptions opt;
  opt.batch_size = 16;  // 4 batches
  opt.workers = 2;
  opt.max_attempts = 2;
  opt.retry_backoff_ms = 0.0;
  core::SnicitEngine engine(snicit_params());
  const auto result =
      core::ParallelStreamExecutor(opt).run(engine, wl.net, wl.input);

  EXPECT_EQ(result.batches, 4u);
  EXPECT_EQ(result.lost_batches(), 4u);
  EXPECT_FALSE(result.complete());
  for (const auto& failure : result.failures) {
    EXPECT_EQ(failure.code, ErrorCode::kWorkerFault);
    EXPECT_EQ(failure.attempts, 2u);
    EXPECT_NE(failure.message.find("worker_throw"), std::string::npos);
  }
  for (std::size_t j = 0; j < result.outputs.cols(); ++j) {
    for (std::size_t r = 0; r < result.outputs.rows(); ++r) {
      EXPECT_EQ(result.outputs.at(r, j), 0.0f);
    }
  }
}

}  // namespace
}  // namespace snicit::platform::fault
