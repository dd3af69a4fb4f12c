// Determinism/property suite for the request-level serving front end:
// whatever the arrival order, batch timeout, worker count, or packer,
// every accepted request gets exactly one result, and each result is
// bit-identical to the serial reference on the same sample. The SNICIT
// engine's outputs are batch-composition dependent (centroid choice
// couples columns), so its contract is checked per *formed* batch: each
// engine batch the batcher assembled, replayed serially through
// stream_inference, must reproduce the served outputs bit-exactly —
// the deterministic reassembly contract inherited from the parallel
// stream executor. Fault drills (worker_throw) must preserve both.
#include "serve/dynamic_batcher.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/error.hpp"
#include "platform/fault_injection.hpp"
#include "platform/rng.hpp"
#include "platform/timer.hpp"
#include "radixnet/radixnet.hpp"
#include "serve/request_queue.hpp"
#include "snicit/engine.hpp"
#include "snicit/stream.hpp"

namespace snicit::serve {
namespace {

using platform::ErrorCode;

struct Workload {
  dnn::SparseDnn net;
  dnn::DenseMatrix input;
};

Workload make_workload(std::size_t samples, std::uint64_t seed = 3,
                       sparse::Index neurons = 96, int layers = 10) {
  radixnet::RadixNetOptions opt;
  opt.neurons = neurons;
  opt.layers = layers;
  opt.fanin = 8;
  opt.seed = seed;
  auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = static_cast<std::size_t>(neurons);
  in_opt.batch = samples;
  in_opt.seed = seed + 1;
  auto input = data::make_sdgc_input(in_opt).features;
  return {std::move(net), std::move(input)};
}

std::vector<float> column_of(const dnn::DenseMatrix& m, std::size_t j) {
  return {m.col(j), m.col(j) + m.rows()};
}

bool bit_identical(const std::vector<float>& a, const float* b,
                   std::size_t n) {
  return a.size() == n &&
         std::memcmp(a.data(), b, n * sizeof(float)) == 0;
}

/// Arrival orders fuzzed over: identity, reversed, and seeded shuffles.
std::vector<std::size_t> arrival_order(std::size_t n, int variant) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (variant == 1) std::reverse(order.begin(), order.end());
  if (variant >= 2) {
    platform::Rng rng(0xa11e5 + static_cast<std::uint64_t>(variant));
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
  }
  return order;
}

/// Serves the workload's columns in `order` and returns the finished
/// report. Request id i is the i-th *submission*, i.e. column order[i].
ServeReport serve_columns(dnn::InferenceEngine& engine,
                          const Workload& wl,
                          const std::vector<std::size_t>& order,
                          const ServeOptions& options,
                          double deadline_ms = 0.0) {
  DynamicBatcher batcher(engine, wl.net, options);
  for (const std::size_t j : order) {
    const auto id = batcher.submit(column_of(wl.input, j), deadline_ms);
    EXPECT_TRUE(id.ok());
  }
  return batcher.finish();
}

// --- Column-independent engine: per-request bit-identity to the serial
// reference across the whole fuzz grid -------------------------------

class BatcherDeterminism
    : public ::testing::TestWithParam<
          std::tuple<int, int, std::string, double>> {};

TEST_P(BatcherDeterminism, BitIdenticalToSerialReference) {
  const int order_variant = std::get<0>(GetParam());
  const auto workers = static_cast<std::size_t>(std::get<1>(GetParam()));
  const std::string packer = std::get<2>(GetParam());
  const double timeout_ms = std::get<3>(GetParam());

  const std::size_t samples = 57;  // 57 % 16 == 9: a partial tail batch
  auto wl = make_workload(samples);
  wl.net.ensure_csc();

  // Serial oracle: one stream_inference pass over the columns in their
  // original order. The reference engine treats columns independently,
  // so per-column outputs are comparable whatever batch they rode in.
  dnn::ReferenceEngine serial_engine;
  const auto serial =
      core::stream_inference(serial_engine, wl.net, wl.input, {});

  const auto order = arrival_order(samples, order_variant);
  ServeOptions opt;
  opt.max_batch = 16;
  opt.batch_timeout_ms = timeout_ms;
  opt.packer = packer;
  opt.workers = workers;
  opt.queue_capacity = 8;  // exercise submit-side backpressure too
  dnn::ReferenceEngine engine;
  const auto report = serve_columns(engine, wl, order, opt);

  // No request dropped or duplicated: exactly one result per accepted
  // submit, ids dense from 0.
  ASSERT_EQ(report.requests, samples);
  ASSERT_EQ(report.results.size(), samples);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.failed_requests, 0u);
  EXPECT_EQ(report.timed_out_requests, 0u);
  std::size_t logged = 0;
  for (const auto& record : report.batch_log) {
    logged += record.request_ids.size();
    EXPECT_LE(record.request_ids.size(), opt.max_batch);
  }
  EXPECT_EQ(logged, samples);

  for (std::size_t i = 0; i < samples; ++i) {
    const auto& result = report.results[i];
    ASSERT_EQ(result.id, i);
    ASSERT_TRUE(result.ok()) << result.message;
    // Submission i carried column order[i].
    EXPECT_TRUE(bit_identical(result.output, serial.outputs.col(order[i]),
                              serial.outputs.rows()))
        << "request " << i << " (column " << order[i]
        << ") diverged from the serial reference";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, BatcherDeterminism,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),   // arrival orders
                       ::testing::Values(1, 3),         // worker counts
                       ::testing::Values(std::string("fifo"),
                                         std::string("similarity")),
                       ::testing::Values(0.0, 0.5)));   // batch timeouts

// --- SNICIT engine: deterministic reassembly per formed batch --------

TEST(BatcherSnicit, FormedBatchesReplayBitIdentically) {
  const std::size_t samples = 48;
  auto wl = make_workload(samples, /*seed=*/5);
  wl.net.ensure_csc();

  core::SnicitParams params;
  params.threshold_layer = 4;
  ServeOptions opt;
  opt.max_batch = 16;
  opt.packer = "similarity";
  opt.workers = 3;
  core::SnicitEngine engine(params);
  const auto report =
      serve_columns(engine, wl, arrival_order(samples, 2), opt);
  ASSERT_EQ(report.results.size(), samples);
  ASSERT_TRUE(report.complete());

  // Request id i is the i-th submission = column arrival_order[i].
  const auto order = arrival_order(samples, 2);
  for (const auto& record : report.batch_log) {
    dnn::DenseMatrix batch(wl.input.rows(), record.request_ids.size());
    for (std::size_t p = 0; p < record.request_ids.size(); ++p) {
      const std::size_t column = order[record.request_ids[p]];
      std::copy_n(wl.input.col(column), wl.input.rows(), batch.col(p));
    }
    // Serial replay of exactly this batch: stream_inference with a batch
    // size covering it runs the engine once on the same columns.
    core::SnicitEngine replay_engine(params);
    core::StreamOptions sopt;
    sopt.batch_size = record.request_ids.size();
    const auto replay =
        core::stream_inference(replay_engine, wl.net, batch, sopt);
    for (std::size_t p = 0; p < record.request_ids.size(); ++p) {
      const auto& result = report.results[record.request_ids[p]];
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(bit_identical(result.output, replay.outputs.col(p),
                                replay.outputs.rows()))
          << "request " << result.id << " in batch " << record.batch;
    }
  }
}

// --- Fault drill: worker_throw retries must not cost exactness -------

TEST(BatcherFaults, WorkerThrowRetriesStayBitIdentical) {
  auto& faults = platform::fault::FaultRegistry::global();
  ASSERT_TRUE(faults.configure("worker_throw:0.3", 7).ok());

  const std::size_t samples = 64;
  auto wl = make_workload(samples, /*seed=*/9);
  wl.net.ensure_csc();
  dnn::ReferenceEngine serial_engine;
  const auto serial =
      core::stream_inference(serial_engine, wl.net, wl.input, {});

  ServeOptions opt;
  opt.max_batch = 8;
  opt.packer = "fifo";
  opt.workers = 3;
  opt.max_attempts = 6;
  opt.retry_backoff_ms = 0.0;
  dnn::ReferenceEngine engine;
  const auto report =
      serve_columns(engine, wl, arrival_order(samples, 0), opt);
  faults.clear();

  ASSERT_EQ(report.results.size(), samples);
  EXPECT_TRUE(report.complete())
      << report.failed_requests << " failed / "
      << report.timed_out_requests << " timed out";
  EXPECT_GT(report.retries, 0u) << "drill armed but nothing retried";
  for (std::size_t i = 0; i < samples; ++i) {
    ASSERT_TRUE(report.results[i].ok()) << report.results[i].message;
    EXPECT_TRUE(bit_identical(report.results[i].output,
                              serial.outputs.col(i),
                              serial.outputs.rows()));
  }
}

TEST(BatcherFaults, ExhaustedRetriesFailOnlyTheirOwnRequests) {
  auto& faults = platform::fault::FaultRegistry::global();
  // Certain fault + one attempt: every pooled batch is lost, but the
  // server survives and every request gets a typed terminal result.
  ASSERT_TRUE(faults.configure("worker_throw:1.0", 7).ok());

  const std::size_t samples = 40;
  auto wl = make_workload(samples, /*seed=*/13);
  wl.net.ensure_csc();
  ServeOptions opt;
  opt.max_batch = 8;
  opt.workers = 3;
  opt.max_attempts = 1;
  opt.retry_backoff_ms = 0.0;
  dnn::ReferenceEngine engine;
  const auto report =
      serve_columns(engine, wl, arrival_order(samples, 0), opt);
  faults.clear();

  ASSERT_EQ(report.results.size(), samples);
  EXPECT_FALSE(report.complete());
  std::size_t failed = 0;
  for (const auto& result : report.results) {
    if (!result.ok()) {
      EXPECT_EQ(result.code, ErrorCode::kWorkerFault);
      EXPECT_TRUE(result.output.empty());
      failed += 1;
    }
  }
  EXPECT_EQ(failed, report.failed_requests);
  EXPECT_GT(failed, 0u);
}

// --- Deadlines, lifecycle, and input validation ----------------------

TEST(BatcherDeadlines, ExpiredBudgetTimesOutInsteadOfServing) {
  auto wl = make_workload(4);
  wl.net.ensure_csc();
  dnn::ReferenceEngine engine;
  ServeOptions opt;
  opt.max_batch = 4;
  opt.batch_timeout_ms = 20.0;
  DynamicBatcher batcher(engine, wl.net, opt);
  // A deadline of 100ns is always expired by the time the server thread
  // wakes and stamps the queue wait.
  const auto id = batcher.submit(column_of(wl.input, 0), /*deadline_ms=*/1e-4);
  ASSERT_TRUE(id.ok());
  const auto report = batcher.finish();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].code, ErrorCode::kTimeout);
  EXPECT_EQ(report.timed_out_requests, 1u);
  EXPECT_FALSE(report.complete());
}

TEST(BatcherDeadlines, DeadlineExpiredExactlyAtSubmitIsTypedTimeout) {
  // Boundary regression: a deadline that has already expired by the time
  // the submit call returns (the smallest positive budget — any nonzero
  // queue age beats it) must produce the typed kTimeout result. It must
  // never ride an engine batch, and collecting it must not hang the
  // round's fill-wait loop on a zero-slack request.
  auto wl = make_workload(4);
  wl.net.ensure_csc();
  dnn::ReferenceEngine engine;
  ServeOptions opt;
  opt.max_batch = 4;
  DynamicBatcher batcher(engine, wl.net, opt, ManualDrive{});
  const auto id = batcher.submit(
      column_of(wl.input, 0),
      /*deadline_ms=*/std::numeric_limits<double>::min());
  ASSERT_TRUE(id.ok());
  // Manual drive with a generous fill window: the expired request must
  // come back immediately (zero slack caps the wait), as a result.
  EXPECT_TRUE(batcher.drive(/*wait_ms=*/50.0));
  EXPECT_EQ(batcher.completed(), 1u);
  const auto report = batcher.finish();
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].code, ErrorCode::kTimeout);
  EXPECT_TRUE(report.results[0].output.empty())
      << "expired request was served an engine slot";
  EXPECT_EQ(report.timed_out_requests, 1u);
  EXPECT_EQ(report.batches, 0u) << "expired request formed an engine batch";
}

TEST(BatcherLifecycle, SubmitAfterFinishIsQueueClosed) {
  auto wl = make_workload(4);
  wl.net.ensure_csc();
  dnn::ReferenceEngine engine;
  DynamicBatcher batcher(engine, wl.net, {});
  ASSERT_TRUE(batcher.submit(column_of(wl.input, 0)).ok());
  const auto report = batcher.finish();
  EXPECT_EQ(report.requests, 1u);
  const auto late = batcher.submit(column_of(wl.input, 1));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), ErrorCode::kQueueClosed);
  // finish() is idempotent: the second call returns an empty report.
  EXPECT_EQ(batcher.finish().requests, 0u);
}

TEST(BatcherLifecycle, WrongFeatureLengthIsBadInput) {
  auto wl = make_workload(4);
  wl.net.ensure_csc();
  dnn::ReferenceEngine engine;
  DynamicBatcher batcher(engine, wl.net, {});
  const auto bad = batcher.submit(std::vector<float>(3, 1.0f));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kBadInput);
  EXPECT_EQ(batcher.finish().requests, 0u);
}

TEST(BatcherLifecycle, UnknownPackerIsBadInput) {
  auto wl = make_workload(4);
  dnn::ReferenceEngine engine;
  ServeOptions opt;
  opt.packer = "clairvoyant";
  EXPECT_THROW(DynamicBatcher(engine, wl.net, opt),
               platform::ErrorException);
}

// --- RequestQueue: deadline-aware collect and idempotent close -------

TEST(RequestQueue, CollectHonoursLimitAndArrivalOrder) {
  RequestQueue queue(16);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.submit(std::vector<float>(1, float(i))).ok());
  }
  const auto first = queue.collect(3, 0.0);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].id, 0u);
  EXPECT_EQ(first[2].id, 2u);
  const auto rest = queue.collect(8, 0.0);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].id, 3u);
  EXPECT_EQ(queue.issued(), 5u);
}

TEST(RequestQueue, CloseIsIdempotentAndDrains) {
  RequestQueue queue(4);
  ASSERT_TRUE(queue.submit(std::vector<float>(1, 1.0f)).ok());
  queue.close();
  queue.close();  // double close must be harmless
  EXPECT_TRUE(queue.closed());
  const auto rejected = queue.submit(std::vector<float>(1, 2.0f));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), ErrorCode::kQueueClosed);
  EXPECT_EQ(queue.collect(4, 0.0).size(), 1u);  // drains the accepted one
  EXPECT_TRUE(queue.collect(4, 0.0).empty());   // exhausted forever
}

TEST(RequestQueue, ZeroSlackRequestDoesNotStallCollect) {
  // Boundary: a request whose deadline expired the instant it was
  // submitted has zero slack, which must cap the fill-wait at nothing —
  // collect returns it promptly for its typed timeout instead of
  // sleeping out the whole fill window (or hanging on a wait_until of
  // the past).
  RequestQueue queue(4);
  ASSERT_TRUE(queue
                  .submit(std::vector<float>(1, 1.0f),
                          std::numeric_limits<double>::min())
                  .ok());
  const platform::Stopwatch clock;
  const auto collected = queue.collect(4, /*wait_ms=*/250.0);
  EXPECT_LT(clock.elapsed_ms(), 200.0) << "zero-slack fill-wait stalled";
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].id, 0u);
}

}  // namespace
}  // namespace snicit::serve
