// Cross-model determinism suite for the multi-model router: however the
// tenants' request streams interleave, whatever the shared worker count
// or packer, every tenant's results are exactly what single-model serving
// would have produced — per-request bit-identity to a serial single-model
// oracle for column-independent engines, per-formed-batch serial replay
// for SNICIT (whose outputs are batch-composition dependent). Tenants are
// isolated: one tenant's faulting engine, expiring deadlines, or burst
// cannot lose, corrupt, or fail another tenant's requests. Hot swap
// rebinds a lane between rounds with the generation counter as the
// witness; remove drains the lane cleanly.
#include "serve/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/serial.hpp"
#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "platform/error.hpp"
#include "platform/fault_injection.hpp"
#include "platform/rng.hpp"
#include "radixnet/radixnet.hpp"
#include "serve/load_replay.hpp"
#include "serve/load_script.hpp"
#include "snicit/engine.hpp"
#include "snicit/stream.hpp"

namespace snicit::serve {
namespace {

using platform::ErrorCode;

constexpr sparse::Index kNeurons = 96;
constexpr int kLayers = 8;

std::string tenant_id(std::size_t m) {
  return "tenant" + std::to_string(m);
}

ModelSpec tenant_spec(std::size_t m, const std::string& engine) {
  ModelSpec spec;
  spec.id = tenant_id(m);
  spec.engine = engine;
  spec.neurons = kNeurons;
  spec.layers = kLayers;
  spec.fanin = 8;
  spec.seed = 3 + 11 * m;   // genuinely different weights per tenant
  spec.threshold = 4;       // mid-net conversion for the SNICIT tenants
  return spec;
}

dnn::DenseMatrix tenant_input(std::size_t m, std::size_t requests) {
  data::SdgcInputOptions opt;
  opt.neurons = static_cast<std::size_t>(kNeurons);
  opt.batch = requests;
  opt.seed = 101 + 7 * m;
  return data::make_sdgc_input(opt).features;
}

std::vector<float> column_of(const dnn::DenseMatrix& m, std::size_t j) {
  return {m.col(j), m.col(j) + m.rows()};
}

bool bit_identical(const std::vector<float>& a, const float* b,
                   std::size_t n) {
  return a.size() == n && std::memcmp(a.data(), b, n * sizeof(float)) == 0;
}

/// Merged submission timeline: (tenant, column) pairs. Variant 0 strictly
/// round-robins the tenants, 1 submits tenant blocks back to back (the
/// burst shape), >= 2 are seeded shuffles of the merged stream.
std::vector<std::pair<std::size_t, std::size_t>> interleave(
    std::size_t tenants, std::size_t requests, int variant) {
  std::vector<std::pair<std::size_t, std::size_t>> merged;
  merged.reserve(tenants * requests);
  if (variant == 1) {
    for (std::size_t m = 0; m < tenants; ++m) {
      for (std::size_t j = 0; j < requests; ++j) merged.push_back({m, j});
    }
  } else {
    for (std::size_t j = 0; j < requests; ++j) {
      for (std::size_t m = 0; m < tenants; ++m) merged.push_back({m, j});
    }
  }
  if (variant >= 2) {
    platform::Rng rng(0x70e7 + static_cast<std::uint64_t>(variant));
    for (std::size_t i = merged.size(); i > 1; --i) {
      std::swap(merged[i - 1], merged[rng.next_below(i)]);
    }
  }
  return merged;
}

/// Submits the merged timeline and returns, per tenant, the column each
/// of its requests carried (index = the lane-local request id).
std::vector<std::vector<std::size_t>> submit_interleaved(
    Router& router, const std::vector<dnn::DenseMatrix>& inputs,
    const std::vector<std::pair<std::size_t, std::size_t>>& merged,
    double deadline_ms = 0.0) {
  std::vector<std::vector<std::size_t>> columns(inputs.size());
  for (const auto& [m, j] : merged) {
    const auto id =
        router.submit(tenant_id(m), column_of(inputs[m], j), deadline_ms);
    EXPECT_TRUE(id.ok()) << id.error().message;
    if (id.ok()) {
      EXPECT_EQ(id.value(), columns[m].size());  // lane-local dense ids
      columns[m].push_back(j);
    }
  }
  return columns;
}

// --- Column-independent engines: per-request bit-identity to the
// serial single-model oracle across the interleave x workers x packer
// grid ----------------------------------------------------------------

class RouterDeterminism
    : public ::testing::TestWithParam<std::tuple<int, int, std::string>> {
};

TEST_P(RouterDeterminism, EveryTenantMatchesItsSingleModelOracle) {
  const int interleave_variant = std::get<0>(GetParam());
  const auto workers = static_cast<std::size_t>(std::get<1>(GetParam()));
  const std::string packer = std::get<2>(GetParam());
  constexpr std::size_t kTenants = 3;
  constexpr std::size_t kRequests = 21;  // partial tail batches

  ModelRegistry registry;
  std::vector<dnn::DenseMatrix> inputs;
  std::vector<dnn::DenseMatrix> oracles;
  for (std::size_t m = 0; m < kTenants; ++m) {
    ASSERT_TRUE(registry.add(tenant_spec(m, "reference")).ok());
    inputs.push_back(tenant_input(m, kRequests));
    // Single-model oracle: serial stream over this tenant's own columns
    // on this tenant's own net — no router, no other tenants.
    const auto model = registry.find(tenant_id(m));
    dnn::ReferenceEngine serial;
    oracles.push_back(
        core::stream_inference(serial, *model->net, inputs[m], {})
            .outputs);
  }

  RouterOptions opt;
  opt.serve.max_batch = 8;
  opt.serve.packer = packer;
  opt.serve.workers = workers;
  Router router(registry, opt);
  const auto columns = submit_interleaved(
      router, inputs, interleave(kTenants, kRequests, interleave_variant));
  const auto report = router.finish();

  ASSERT_EQ(report.tenants.size(), kTenants);
  for (std::size_t m = 0; m < kTenants; ++m) {
    const ServeReport* tenant = report.find(tenant_id(m));
    ASSERT_NE(tenant, nullptr);
    ASSERT_EQ(tenant->requests, kRequests);
    ASSERT_EQ(tenant->results.size(), kRequests);
    EXPECT_TRUE(tenant->complete());
    for (std::size_t i = 0; i < kRequests; ++i) {
      const auto& result = tenant->results[i];
      ASSERT_EQ(result.id, i);
      ASSERT_TRUE(result.ok()) << result.message;
      EXPECT_TRUE(bit_identical(result.output,
                                oracles[m].col(columns[m][i]),
                                oracles[m].rows()))
          << tenant_id(m) << " request " << i << " (column "
          << columns[m][i] << ") diverged from single-model serving";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, RouterDeterminism,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),  // interleavings
                       ::testing::Values(1, 3),        // shared workers
                       ::testing::Values(std::string("fifo"),
                                         std::string("similarity"))));

// --- SNICIT tenants: per-formed-batch serial replay -------------------

TEST(RouterSnicit, FormedBatchesReplayBitIdenticallyPerTenant) {
  constexpr std::size_t kTenants = 2;
  constexpr std::size_t kRequests = 24;

  ModelRegistry registry;
  std::vector<dnn::DenseMatrix> inputs;
  for (std::size_t m = 0; m < kTenants; ++m) {
    ASSERT_TRUE(registry.add(tenant_spec(m, "snicit")).ok());
    inputs.push_back(tenant_input(m, kRequests));
  }

  RouterOptions opt;
  opt.serve.max_batch = 8;
  opt.serve.packer = "similarity";
  opt.serve.workers = 3;
  Router router(registry, opt);
  const auto columns = submit_interleaved(
      router, inputs, interleave(kTenants, kRequests, 2));
  const auto report = router.finish();

  core::SnicitParams params;
  params.threshold_layer = 4;  // matches tenant_spec().threshold
  for (std::size_t m = 0; m < kTenants; ++m) {
    const ServeReport* tenant = report.find(tenant_id(m));
    ASSERT_NE(tenant, nullptr);
    ASSERT_TRUE(tenant->complete());
    ASSERT_EQ(tenant->results.size(), kRequests);
    const auto model = registry.find(tenant_id(m));
    for (const auto& record : tenant->batch_log) {
      dnn::DenseMatrix batch(inputs[m].rows(), record.request_ids.size());
      for (std::size_t p = 0; p < record.request_ids.size(); ++p) {
        const std::size_t column = columns[m][record.request_ids[p]];
        std::copy_n(inputs[m].col(column), inputs[m].rows(),
                    batch.col(p));
      }
      // Serial replay of exactly this engine batch on this tenant's net:
      // the router may not change what a formed batch computes.
      core::SnicitEngine replay_engine(params);
      core::StreamOptions sopt;
      sopt.batch_size = record.request_ids.size();
      const auto replay =
          core::stream_inference(replay_engine, *model->net, batch, sopt);
      for (std::size_t p = 0; p < record.request_ids.size(); ++p) {
        const auto& result = tenant->results[record.request_ids[p]];
        ASSERT_TRUE(result.ok());
        EXPECT_TRUE(bit_identical(result.output, replay.outputs.col(p),
                                  replay.outputs.rows()))
            << tenant_id(m) << " request " << result.id << " in batch "
            << record.batch;
      }
    }
  }
}

// --- Isolation drills -------------------------------------------------

/// Deterministically faulting engine: every run throws a typed worker
/// fault. clone() works, so the registry accepts it — the failure
/// happens in serving, where isolation must contain it.
class ThrowingEngine final : public dnn::InferenceEngine {
 public:
  std::string name() const override { return "throwing"; }
  dnn::RunResult run(const dnn::SparseDnn&,
                     const dnn::DenseMatrix&) override {
    throw platform::ErrorException(ErrorCode::kWorkerFault,
                                   "injected tenant fault");
  }
  std::unique_ptr<dnn::InferenceEngine> clone() const override {
    return std::make_unique<ThrowingEngine>();
  }
};

TEST(RouterIsolation, FaultingTenantCannotCorruptItsNeighbour) {
  constexpr std::size_t kRequests = 16;
  ModelRegistry registry;
  // tenant0: always-throwing engine. tenant1: healthy reference.
  {
    radixnet::RadixNetOptions opt;
    opt.neurons = kNeurons;
    opt.layers = kLayers;
    opt.fanin = 8;
    opt.seed = 3;
    auto net = std::make_shared<const dnn::SparseDnn>(
        radixnet::make_radixnet(opt));
    net->ensure_csc();
    ASSERT_TRUE(registry
                    .add_model(tenant_id(0), net,
                               std::make_shared<ThrowingEngine>())
                    .ok());
  }
  ASSERT_TRUE(registry.add(tenant_spec(1, "reference")).ok());
  std::vector<dnn::DenseMatrix> inputs = {tenant_input(0, kRequests),
                                          tenant_input(1, kRequests)};
  const auto model1 = registry.find(tenant_id(1));
  dnn::ReferenceEngine serial;
  const auto oracle =
      core::stream_inference(serial, *model1->net, inputs[1], {}).outputs;

  RouterOptions opt;
  opt.serve.max_batch = 8;
  opt.serve.workers = 2;
  opt.serve.max_attempts = 2;
  opt.serve.retry_backoff_ms = 0.0;
  Router router(registry, opt);
  const auto columns =
      submit_interleaved(router, inputs, interleave(2, kRequests, 0));
  const auto report = router.finish();

  // The faulting tenant fails every request — typed, not crashed.
  const ServeReport* faulty = report.find(tenant_id(0));
  ASSERT_NE(faulty, nullptr);
  ASSERT_EQ(faulty->results.size(), kRequests);
  EXPECT_EQ(faulty->failed_requests, kRequests);
  for (const auto& result : faulty->results) {
    EXPECT_EQ(result.code, ErrorCode::kWorkerFault);
    EXPECT_TRUE(result.output.empty());
  }

  // The neighbour must not lose, fail, or diverge on a single request.
  const ServeReport* healthy = report.find(tenant_id(1));
  ASSERT_NE(healthy, nullptr);
  ASSERT_EQ(healthy->results.size(), kRequests);
  EXPECT_TRUE(healthy->complete());
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(healthy->results[i].ok());
    EXPECT_TRUE(bit_identical(healthy->results[i].output,
                              oracle.col(columns[1][i]), oracle.rows()));
  }
}

TEST(RouterIsolation, GlobalWorkerThrowDrillStaysBitIdentical) {
  auto& faults = platform::fault::FaultRegistry::global();
  ASSERT_TRUE(faults.configure("worker_throw:0.3", 7).ok());

  constexpr std::size_t kTenants = 2;
  constexpr std::size_t kRequests = 24;
  ModelRegistry registry;
  std::vector<dnn::DenseMatrix> inputs;
  std::vector<dnn::DenseMatrix> oracles;
  for (std::size_t m = 0; m < kTenants; ++m) {
    ASSERT_TRUE(registry.add(tenant_spec(m, "reference")).ok());
    inputs.push_back(tenant_input(m, kRequests));
  }

  RouterOptions opt;
  opt.serve.max_batch = 8;
  opt.serve.workers = 3;
  opt.serve.max_attempts = 6;
  opt.serve.retry_backoff_ms = 0.0;
  Router router(registry, opt);
  const auto columns = submit_interleaved(
      router, inputs, interleave(kTenants, kRequests, 3));
  const auto report = router.finish();
  faults.clear();

  // Oracle computed after the drill is disarmed: the drill must not be
  // able to touch results, only cost retries.
  std::size_t retries = 0;
  for (std::size_t m = 0; m < kTenants; ++m) {
    const auto model = registry.find(tenant_id(m));
    dnn::ReferenceEngine serial;
    const auto oracle =
        core::stream_inference(serial, *model->net, inputs[m], {})
            .outputs;
    const ServeReport* tenant = report.find(tenant_id(m));
    ASSERT_NE(tenant, nullptr);
    EXPECT_TRUE(tenant->complete())
        << tenant_id(m) << ": " << tenant->failed_requests << " failed";
    ASSERT_EQ(tenant->results.size(), kRequests);
    retries += tenant->retries;
    for (std::size_t i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(tenant->results[i].ok());
      EXPECT_TRUE(bit_identical(tenant->results[i].output,
                                oracle.col(columns[m][i]),
                                oracle.rows()));
    }
  }
  EXPECT_GT(retries, 0u) << "drill armed but nothing retried";
}

TEST(RouterIsolation, OneTenantsDeadlinesDoNotTouchTheOther) {
  constexpr std::size_t kRequests = 12;
  ModelRegistry registry;
  ASSERT_TRUE(registry.add(tenant_spec(0, "reference")).ok());
  ASSERT_TRUE(registry.add(tenant_spec(1, "reference")).ok());
  std::vector<dnn::DenseMatrix> inputs = {tenant_input(0, kRequests),
                                          tenant_input(1, kRequests)};
  const auto model1 = registry.find(tenant_id(1));
  dnn::ReferenceEngine serial;
  const auto oracle =
      core::stream_inference(serial, *model1->net, inputs[1], {}).outputs;

  RouterOptions opt;
  opt.serve.max_batch = 8;
  Router router(registry, opt);
  std::vector<std::size_t> columns1;
  for (std::size_t j = 0; j < kRequests; ++j) {
    // tenant0's budget (100ns) is always expired by service time;
    // tenant1 has no deadline at all.
    ASSERT_TRUE(router
                    .submit(tenant_id(0), column_of(inputs[0], j),
                            /*deadline_ms=*/1e-4)
                    .ok());
    ASSERT_TRUE(
        router.submit(tenant_id(1), column_of(inputs[1], j)).ok());
    columns1.push_back(j);
  }
  const auto report = router.finish();

  const ServeReport* expired = report.find(tenant_id(0));
  ASSERT_NE(expired, nullptr);
  ASSERT_EQ(expired->results.size(), kRequests);
  EXPECT_EQ(expired->timed_out_requests, kRequests);
  for (const auto& result : expired->results) {
    EXPECT_EQ(result.code, ErrorCode::kTimeout);
  }

  const ServeReport* healthy = report.find(tenant_id(1));
  ASSERT_NE(healthy, nullptr);
  EXPECT_TRUE(healthy->complete());
  ASSERT_EQ(healthy->results.size(), kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(healthy->results[i].ok());
    EXPECT_TRUE(bit_identical(healthy->results[i].output,
                              oracle.col(columns1[i]), oracle.rows()));
  }
}

// --- Overload isolation ------------------------------------------------

TEST(RouterOverload, QuotaZeroFloodCannotTouchTheVictimsBits) {
  constexpr std::size_t kRequests = 16;
  ModelRegistry registry;
  ASSERT_TRUE(registry.add(tenant_spec(0, "reference")).ok());  // bully
  ASSERT_TRUE(registry.add(tenant_spec(1, "reference")).ok());  // victim
  std::vector<dnn::DenseMatrix> inputs = {tenant_input(0, kRequests),
                                          tenant_input(1, kRequests)};
  const auto model1 = registry.find(tenant_id(1));
  dnn::ReferenceEngine serial;
  const auto oracle =
      core::stream_inference(serial, *model1->net, inputs[1], {}).outputs;

  RouterOptions opt;
  opt.serve.max_batch = 8;
  opt.serve.admission.enabled = true;
  opt.serve.admission.max_queue_depth = 256;
  opt.serve.admission.tenant_depth[tenant_id(0)] = 0;  // cut the bully off
  Router router(registry, opt);
  for (std::size_t j = 0; j < kRequests; ++j) {
    // The flood fast-fails typed at intake — it never reaches a queue,
    // so it cannot displace, delay, or re-batch the victim's requests.
    const auto flooded =
        router.submit(tenant_id(0), column_of(inputs[0], j));
    ASSERT_FALSE(flooded.ok());
    EXPECT_EQ(flooded.code(), ErrorCode::kRejectedOverload);
    EXPECT_NE(flooded.error().message.find("retry after"),
              std::string::npos);
    ASSERT_TRUE(
        router.submit(tenant_id(1), column_of(inputs[1], j)).ok());
  }
  const auto report = router.finish();

  const ServeReport* victim = report.find(tenant_id(1));
  ASSERT_NE(victim, nullptr);
  ASSERT_EQ(victim->results.size(), kRequests);
  EXPECT_TRUE(victim->complete());
  for (std::size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(victim->results[i].ok());
    EXPECT_TRUE(bit_identical(victim->results[i].output, oracle.col(i),
                              oracle.rows()))
        << "victim request " << i << " diverged under the flood";
  }
}

TEST(RouterOverload, ReplayFloodLeavesVictimLatencyProfileUntouched) {
  // Virtual-clock drill: the same victim arrival stream replayed with and
  // without a quota-zero bully flood must produce *bitwise identical*
  // victim outcomes — acceptance, completions, every latency sample, and
  // therefore the p95. Tenant streams are seeded independently, so
  // erasing the bully's events is the exact no-flood oracle.
  radixnet::RadixNetOptions nopt;
  nopt.neurons = 64;
  nopt.layers = 4;
  nopt.seed = 31;
  auto net = radixnet::make_radixnet(nopt);
  net.ensure_csc();
  data::SdgcInputOptions iopt;
  iopt.neurons = 64;
  iopt.batch = 16;
  iopt.seed = 32;
  const auto samples = data::make_sdgc_input(iopt).features;

  LoadScriptSpec spec;
  spec.shape = "burst";  // bully dumps everything at t=0
  spec.tenants = {"bully", "victim"};
  spec.requests_per_tenant = 48;
  spec.mean_gap_ms = 0.6;
  spec.seed = 33;
  spec.samples = 16;
  const auto flood = make_load_script(spec);
  auto calm = flood;  // the oracle: same script minus the flood
  calm.events.erase(
      std::remove_if(calm.events.begin(), calm.events.end(),
                     [](const LoadEvent& e) { return e.tenant == "bully"; }),
      calm.events.end());

  baselines::SerialEngine engine_b;
  baselines::SerialEngine engine_v;
  const auto run = [&](const LoadScript& script) {
    ReplayOptions opt;
    opt.max_batch = 8;
    opt.run_engines = false;
    opt.admission.enabled = true;
    opt.admission.max_queue_depth = 256;
    opt.admission.tenant_depth["bully"] = 0;
    LoadReplayer replayer(opt);
    replayer.add_tenant("bully", engine_b, net, samples);
    replayer.add_tenant("victim", engine_v, net, samples);
    return replayer.run(script);
  };

  const auto stormy = run(flood);
  const auto quiet = run(calm);

  EXPECT_EQ(stormy.tenant("bully").rejected, spec.requests_per_tenant);
  const auto& hit = stormy.tenant("victim");
  const auto& oracle = quiet.tenant("victim");
  EXPECT_DOUBLE_EQ(hit.accept_rate(), 1.0);
  EXPECT_EQ(hit.completed, oracle.completed);
  ASSERT_EQ(hit.latency.count(), oracle.latency.count());
  EXPECT_EQ(hit.latency.p95(), oracle.latency.p95());  // bitwise, no slack
  for (std::size_t i = 0; i < stormy.requests.size(); ++i) {
    const auto& request = stormy.requests[i];
    if (request.tenant != "victim") continue;
    // Find the same victim arrival in the oracle run by (arrive, sample).
    const auto match = std::find_if(
        quiet.requests.begin(), quiet.requests.end(),
        [&](const auto& r) {
          return r.arrive_ms == request.arrive_ms &&
                 r.sample == request.sample;
        });
    ASSERT_NE(match, quiet.requests.end());
    EXPECT_EQ(request.outcome, match->outcome);
    EXPECT_EQ(request.latency_ms, match->latency_ms)
        << "victim request " << i << " timing perturbed by the flood";
  }
}

TEST(RouterOverload, QuotaCappedFloodStillAcceptsEveryVictimRequest) {
  radixnet::RadixNetOptions nopt;
  nopt.neurons = 64;
  nopt.layers = 4;
  nopt.seed = 31;
  auto net = radixnet::make_radixnet(nopt);
  net.ensure_csc();
  data::SdgcInputOptions iopt;
  iopt.neurons = 64;
  iopt.batch = 16;
  iopt.seed = 32;
  const auto samples = data::make_sdgc_input(iopt).features;

  LoadScriptSpec spec;
  spec.shape = "burst";
  spec.tenants = {"bully", "victim"};
  spec.requests_per_tenant = 48;
  spec.mean_gap_ms = 0.6;
  spec.seed = 33;
  spec.samples = 16;

  baselines::SerialEngine engine_b;
  baselines::SerialEngine engine_v;
  ReplayOptions opt;
  opt.max_batch = 8;
  opt.run_engines = false;
  opt.admission.enabled = true;
  opt.admission.max_queue_depth = 256;
  opt.admission.tenant_depth["bully"] = 4;  // capped, not cut off
  LoadReplayer replayer(opt);
  replayer.add_tenant("bully", engine_b, net, samples);
  replayer.add_tenant("victim", engine_v, net, samples);
  const auto report = replayer.run(make_load_script(spec));

  // The cap turns the burst into a drip: most of the flood is refused,
  // and what leaks through shares the server round-robin without ever
  // crowding a victim request out of the intake.
  const auto& bully = report.tenant("bully");
  EXPECT_GT(bully.rejected, 0u);
  EXPECT_GT(bully.completed, 0u);
  const auto& victim = report.tenant("victim");
  EXPECT_DOUBLE_EQ(victim.accept_rate(), 1.0);
  EXPECT_EQ(victim.completed, victim.submitted);
}

// --- Hot swap and remove lifecycle ------------------------------------

void wait_until(const std::function<bool()>& done) {
  for (int spin = 0; spin < 20000 && !done(); ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(done()) << "condition not reached within 2s";
}

TEST(RouterLifecycle, HotSwapServesOldThenNewBitIdentically) {
  constexpr std::size_t kPhase = 10;
  ModelRegistry registry;
  auto spec = tenant_spec(0, "reference");
  spec.seed = 21;
  ASSERT_TRUE(registry.add(spec).ok());
  const auto input = tenant_input(0, 2 * kPhase);
  const auto old_model = registry.find(tenant_id(0));

  RouterOptions opt;
  opt.serve.max_batch = 4;
  Router router(registry, opt);
  for (std::size_t j = 0; j < kPhase; ++j) {
    ASSERT_TRUE(
        router.submit(tenant_id(0), column_of(input, j)).ok());
  }
  // Phase 1 fully served on the old engine before the swap lands.
  wait_until([&] { return router.completed(tenant_id(0)) == kPhase; });

  spec.seed = 22;  // same shape, different weights
  const auto swapped = registry.swap(spec);
  ASSERT_TRUE(swapped.ok());
  // The router observes the new generation between rounds.
  wait_until(
      [&] { return router.lane_generation(tenant_id(0)) == swapped.value(); });
  const auto new_model = registry.find(tenant_id(0));
  ASSERT_NE(new_model->net.get(), old_model->net.get());

  for (std::size_t j = kPhase; j < 2 * kPhase; ++j) {
    ASSERT_TRUE(
        router.submit(tenant_id(0), column_of(input, j)).ok());
  }
  const auto report = router.finish();

  const ServeReport* tenant = report.find(tenant_id(0));
  ASSERT_NE(tenant, nullptr);
  ASSERT_EQ(tenant->results.size(), 2 * kPhase);
  ASSERT_TRUE(tenant->complete());
  dnn::ReferenceEngine serial;
  const auto old_oracle =
      core::stream_inference(serial, *old_model->net, input, {}).outputs;
  const auto new_oracle =
      core::stream_inference(serial, *new_model->net, input, {}).outputs;
  for (std::size_t i = 0; i < 2 * kPhase; ++i) {
    const auto& oracle = i < kPhase ? old_oracle : new_oracle;
    ASSERT_TRUE(tenant->results[i].ok());
    EXPECT_TRUE(bit_identical(tenant->results[i].output, oracle.col(i),
                              oracle.rows()))
        << "request " << i << " served by the wrong engine generation";
  }
}

TEST(RouterLifecycle, RemoveWhileServingDrainsAcceptedRequests) {
  constexpr std::size_t kRequests = 8;
  ModelRegistry registry;
  ASSERT_TRUE(registry.add(tenant_spec(0, "reference")).ok());
  const auto input = tenant_input(0, kRequests);

  RouterOptions opt;
  opt.serve.max_batch = 4;
  Router router(registry, opt);
  for (std::size_t j = 0; j < kRequests; ++j) {
    ASSERT_TRUE(
        router.submit(tenant_id(0), column_of(input, j)).ok());
  }
  ASSERT_TRUE(registry.remove(tenant_id(0)).ok());
  // The lane notices the removal, drains what it accepted, and then
  // refuses new work — typed, not hung.
  wait_until([&] {
    const auto late = router.submit(tenant_id(0), column_of(input, 0));
    return !late.ok() && late.code() == ErrorCode::kBadInput;
  });
  const auto report = router.finish();
  const ServeReport* tenant = report.find(tenant_id(0));
  ASSERT_NE(tenant, nullptr);
  // Every request accepted before (or while) the removal landed got a
  // terminal result; none were dropped.
  EXPECT_GE(tenant->results.size(), kRequests);
  EXPECT_EQ(tenant->results.size(), tenant->requests);
  EXPECT_TRUE(tenant->complete());
}

TEST(RouterLifecycle, UnknownModelAndFinishedRouterAreTyped) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.add(tenant_spec(0, "reference")).ok());
  const auto input = tenant_input(0, 1);
  Router router(registry, {});
  const auto unknown =
      router.submit("nonexistent", column_of(input, 0));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), ErrorCode::kBadInput);

  ASSERT_TRUE(router.submit(tenant_id(0), column_of(input, 0)).ok());
  const auto report = router.finish();
  EXPECT_EQ(report.find(tenant_id(0))->requests, 1u);
  const auto late = router.submit(tenant_id(0), column_of(input, 0));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), ErrorCode::kQueueClosed);
  // finish() is idempotent.
  EXPECT_TRUE(router.finish().tenants.empty());
}

}  // namespace
}  // namespace snicit::serve
