// Workspace arena semantics plus the PR's headline claim: after warm-up
// the engine hot paths stop touching the heap. The claim is checked two
// ways — directly, by overriding the global allocator in this TU and
// counting operator new calls during a steady-state run_into, and
// through the workspace's own accounting (`steady_state_allocs`), which
// must stay zero across warm DynamicBatcher rounds.
//
// snig2020 is deliberately absent from the zero-alloc sweep: its
// per-run TaskGraph rebuild is the documented exception (see
// baselines/snig2020.cpp).
#include "platform/workspace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "baselines/bf2019.hpp"
#include "baselines/serial.hpp"
#include "baselines/xy2021.hpp"
#include "data/synthetic.hpp"
#include "dnn/engine.hpp"
#include "platform/metrics.hpp"
#include "platform/thread_pool.hpp"
#include "radixnet/radixnet.hpp"
#include "serve/dynamic_batcher.hpp"
#include "snicit/engine.hpp"
#include "snicit/warm_cache.hpp"

// ---------------------------------------------------------------------
// Global allocation counter. Every operator new in the test binary bumps
// the counter; tests snapshot it around the region under scrutiny. The
// hooks themselves never allocate (malloc/aligned_alloc only) — which is
// also why the matching deletes legitimately call free(), despite what
// GCC's -Wmismatched-new-delete heuristic concludes at inlined call
// sites.
// ---------------------------------------------------------------------
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_alloc_count{0};

std::size_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new(std::size_t size, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded ? rounded : a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace snicit {
namespace {

using platform::Workspace;
using sparse::ZeroFill;

// ------------------------- Workspace unit tests ----------------------

TEST(Workspace, MatSlotGrowsOnceAndReusesCapacity) {
  Workspace ws;
  auto& m = ws.mat(Workspace::kPing, 8, 8, ZeroFill::kYes);
  EXPECT_EQ(m.rows(), 8u);
  EXPECT_EQ(m.cols(), 8u);
  const std::size_t bytes = ws.bytes_reserved();
  EXPECT_GE(bytes, 8u * 8u * sizeof(float));

  // Smaller (and equal) reshapes reuse the storage: no new bytes.
  ws.mat(Workspace::kPing, 4, 4, ZeroFill::kNo);
  ws.mat(Workspace::kPing, 8, 8, ZeroFill::kNo);
  EXPECT_EQ(ws.bytes_reserved(), bytes);

  // Growth is accounted.
  ws.mat(Workspace::kPing, 16, 16, ZeroFill::kNo);
  EXPECT_GT(ws.bytes_reserved(), bytes);
}

TEST(Workspace, ZeroFillSemantics) {
  Workspace ws;
  auto& m = ws.mat(Workspace::kScratch, 4, 4, ZeroFill::kYes);
  for (std::size_t i = 0; i < 16; ++i) m.data()[i] = 1.0f;
  // kNo at the same shape leaves the contents alone.
  ws.mat(Workspace::kScratch, 4, 4, ZeroFill::kNo);
  EXPECT_EQ(m.data()[0], 1.0f);
  EXPECT_EQ(m.data()[15], 1.0f);
  // kYes zeroes.
  ws.mat(Workspace::kScratch, 4, 4, ZeroFill::kYes);
  EXPECT_EQ(m.data()[0], 0.0f);
  EXPECT_EQ(m.data()[15], 0.0f);
}

TEST(Workspace, SteadyStateAllocsCountGrowthAfterWarm) {
  const std::size_t global_before = Workspace::global_steady_state_allocs();
  Workspace ws;
  ws.mat(Workspace::kPing, 32, 32, ZeroFill::kNo);
  ws.vec(Workspace::kColumns, 32);
  EXPECT_EQ(ws.steady_state_allocs(), 0u);

  ws.mark_warm();
  EXPECT_TRUE(ws.warm());

  // Within-capacity reuse after warm-up is free.
  ws.mat(Workspace::kPing, 16, 16, ZeroFill::kNo);
  ws.vec(Workspace::kColumns, 8);
  EXPECT_EQ(ws.steady_state_allocs(), 0u);

  // Growth after warm-up is the smell this PR hunts: counted, locally
  // and globally.
  ws.mat(Workspace::kPing, 64, 64, ZeroFill::kNo);
  EXPECT_EQ(ws.steady_state_allocs(), 1u);
  EXPECT_EQ(Workspace::global_steady_state_allocs(), global_before + 1);
}

TEST(Workspace, CopyIsColdMoveTransfersAccounting) {
  Workspace ws;
  ws.mat(Workspace::kPing, 8, 8, ZeroFill::kNo);
  ws.mark_warm();
  const std::size_t bytes = ws.bytes_reserved();
  ASSERT_GT(bytes, 0u);

  // Engine clones copy the workspace cold: nothing carried over.
  Workspace copy(ws);
  EXPECT_EQ(copy.bytes_reserved(), 0u);
  EXPECT_FALSE(copy.warm());
  EXPECT_EQ(copy.mat(Workspace::kPing).rows(), 0u);

  Workspace moved(std::move(ws));
  EXPECT_EQ(moved.bytes_reserved(), bytes);
  EXPECT_TRUE(moved.warm());
  EXPECT_EQ(ws.bytes_reserved(), 0u);  // NOLINT: post-move inspection
}

TEST(Workspace, GlobalBytesReleasedOnDestruction) {
  const std::size_t before = Workspace::global_bytes_reserved();
  {
    Workspace ws;
    ws.mat(Workspace::kPong, 64, 64, ZeroFill::kNo);
    EXPECT_GE(Workspace::global_bytes_reserved(),
              before + 64u * 64u * sizeof(float));
  }
  EXPECT_EQ(Workspace::global_bytes_reserved(), before);
}

TEST(Workspace, TypedStatePersistsAcrossAccesses) {
  Workspace ws;
  auto& v = ws.state<std::vector<int>>();
  v.assign({1, 2, 3});
  auto& again = ws.state<std::vector<int>>();
  EXPECT_EQ(&v, &again);
  EXPECT_EQ(again.size(), 3u);
}

TEST(Workspace, PublishMetricsExportsGauges) {
  Workspace ws;
  ws.mat(Workspace::kPing, 16, 16, ZeroFill::kNo);
  platform::metrics::set_enabled(true);
  Workspace::publish_metrics();
  platform::metrics::set_enabled(false);
  const auto gauges =
      platform::metrics::MetricsRegistry::global().gauge_values();
  ASSERT_TRUE(gauges.count("workspace.bytes_reserved"));
  ASSERT_TRUE(gauges.count("workspace.steady_state_allocs"));
  EXPECT_GE(gauges.at("workspace.bytes_reserved"),
            static_cast<double>(16u * 16u * sizeof(float)));
}

// --------------------- zero-alloc engine hot paths -------------------

struct TestNet {
  dnn::SparseDnn net;
  dnn::DenseMatrix input;
};

TestNet make_test_net(int layers = 12, std::uint64_t seed = 2,
                      sparse::Index neurons = 128, std::size_t batch = 32) {
  radixnet::RadixNetOptions opt;
  opt.neurons = neurons;
  opt.layers = layers;
  opt.fanin = 16;
  opt.seed = seed;
  auto net = radixnet::make_radixnet(opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = static_cast<std::size_t>(neurons);
  in_opt.batch = batch;
  in_opt.classes = 6;
  in_opt.seed = seed + 100;
  auto input = data::make_sdgc_input(in_opt).features;
  return {std::move(net), std::move(input)};
}

// Runs the engine twice to warm every buffer (workspace slots, interned
// diagnostics, thread-local kernel scratch — the serial region keeps all
// of it on this thread), then counts operator new calls during a third,
// steady-state run. The contract under test: exactly zero.
std::size_t steady_state_allocs_of(dnn::InferenceEngine& engine,
                                   const TestNet& tn) {
  platform::ScopedSerialRegion serial;
  platform::Workspace ws;
  dnn::RunResult result;
  engine.run_into(tn.net, tn.input, ws, result);
  engine.run_into(tn.net, tn.input, ws, result);
  const std::size_t before = alloc_count();
  engine.run_into(tn.net, tn.input, ws, result);
  return alloc_count() - before;
}

TEST(ZeroAllocSteadyState, SerialEngine) {
  const auto tn = make_test_net();
  baselines::SerialEngine engine;
  EXPECT_EQ(steady_state_allocs_of(engine, tn), 0u);
}

TEST(ZeroAllocSteadyState, Bf2019Engine) {
  const auto tn = make_test_net();
  baselines::Bf2019Engine engine(4);
  EXPECT_EQ(steady_state_allocs_of(engine, tn), 0u);
}

TEST(ZeroAllocSteadyState, Xy2021Engine) {
  const auto tn = make_test_net();
  baselines::Xy2021Engine engine;
  EXPECT_EQ(steady_state_allocs_of(engine, tn), 0u);
}

TEST(ZeroAllocSteadyState, SnicitEngine) {
  const auto tn = make_test_net();
  core::SnicitParams params;
  params.threshold_layer = 6;
  params.sample_size = 16;
  params.downsample_dim = 0;
  params.prune_threshold = 0.0f;
  core::SnicitEngine engine(params);
  EXPECT_EQ(steady_state_allocs_of(engine, tn), 0u);
}

// The warm-up runs are the cold batch (which fills the centroid cache)
// and a first cached conversion (which widens the batch by k columns);
// the measured run serves from the cache.
TEST(ZeroAllocSteadyState, WarmSnicitEngine) {
  const auto tn = make_test_net();
  core::SnicitParams params;
  params.threshold_layer = 6;
  params.sample_size = 16;
  params.downsample_dim = 0;
  params.prune_threshold = 0.0f;
  core::WarmSnicitEngine engine(params);
  EXPECT_EQ(steady_state_allocs_of(engine, tn), 0u);
  EXPECT_TRUE(engine.warmed());
}

// ------------------- warm DynamicBatcher rounds ----------------------

// Three identical warm-up rounds through a manual-drive batcher, then a
// measured fourth: the workspaces behind the serving lanes must report
// zero steady-state growth once warm.
TEST(ZeroAllocSteadyState, DynamicBatcherWarmRounds) {
  const auto tn = make_test_net(10, 3, 96, 1);
  baselines::SerialEngine engine;

  serve::ServeOptions opts;
  opts.max_batch = 8;
  opts.batch_timeout_ms = 0.0;
  opts.packer = "fifo";
  opts.workers = 1;
  serve::DynamicBatcher batcher(engine, tn.net, opts, serve::ManualDrive{});

  const std::size_t rows = tn.input.rows();
  auto run_round = [&] {
    for (std::size_t s = 0; s < 8; ++s) {
      std::vector<float> features(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        features[r] = tn.input.col(0)[r] + static_cast<float>(s) * 0.01f;
      }
      ASSERT_TRUE(batcher.submit(std::move(features)).ok());
    }
    ASSERT_TRUE(batcher.drive(0.0));
  };

  run_round();
  run_round();
  run_round();

  const std::size_t warm_allocs = Workspace::global_steady_state_allocs();
  run_round();
  EXPECT_EQ(Workspace::global_steady_state_allocs(), warm_allocs)
      << "serving lane workspaces grew after three warm rounds";

  const auto report = batcher.finish();
  EXPECT_EQ(report.results.size(), 32u);
}

}  // namespace
}  // namespace snicit
