// Admission-control conformance: typed intake edges on the RequestQueue,
// unit coverage of the EWMA cost model / brownout ladder / admission
// controller, and the scripted property grid — conservation of requests,
// no priority starvation, and bit-identical decision logs on replay —
// all on the virtual clock (no sleeps, no tolerances).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/serial.hpp"
#include "data/synthetic.hpp"
#include "platform/error.hpp"
#include "radixnet/radixnet.hpp"
#include "serve/dynamic_batcher.hpp"
#include "serve/load_replay.hpp"
#include "serve/load_script.hpp"
#include "serve/overload.hpp"
#include "serve/request_queue.hpp"

namespace {

using namespace snicit;
using platform::ErrorCode;

std::vector<float> sample_features(std::size_t n = 8, float fill = 0.5f) {
  return std::vector<float>(n, fill);
}

// --- RequestQueue typed edges (the zero-capacity regression) ---------

TEST(RequestQueueEdges, SubmitOnClosedQueueIsQueueClosed) {
  serve::RequestQueue queue(4);
  queue.close();
  const auto sub = queue.submit(sample_features());
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().code, ErrorCode::kQueueClosed);
}

TEST(RequestQueueEdges, SubmitOnZeroCapacityIsRejectedOverload) {
  serve::RequestQueue queue(0);
  const auto sub = queue.submit(sample_features());
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().code, ErrorCode::kRejectedOverload);
  // A zero-capacity queue never issues ids: nothing was accepted.
  EXPECT_EQ(queue.issued(), 0u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(RequestQueueEdges, ClosedWinsOverZeroCapacity) {
  // Both conditions apply; closed is the stronger (terminal) signal — a
  // retry against a closed queue can never succeed, so the client must
  // not be told to retry-after.
  serve::RequestQueue queue(0);
  queue.close();
  const auto sub = queue.submit(sample_features());
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().code, ErrorCode::kQueueClosed);
}

TEST(RequestQueueEdges, TrySubmitOnFullQueueIsRejectedOverload) {
  serve::RequestQueue queue(1);
  ASSERT_TRUE(queue.submit(sample_features()).ok());
  const auto sub = queue.try_submit(sample_features());
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().code, ErrorCode::kRejectedOverload);
  EXPECT_EQ(queue.issued(), 1u);
}

TEST(RequestQueueEdges, TrySubmitOnClosedQueueIsQueueClosed) {
  serve::RequestQueue queue(4);
  queue.close();
  const auto sub = queue.try_submit(sample_features());
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().code, ErrorCode::kQueueClosed);
}

TEST(RequestQueueEdges, TrySubmitOnZeroCapacityIsRejectedOverload) {
  serve::RequestQueue queue(0);
  const auto sub = queue.try_submit(sample_features());
  ASSERT_FALSE(sub.ok());
  EXPECT_EQ(sub.error().code, ErrorCode::kRejectedOverload);
}

TEST(RequestQueueEdges, CollectTakesHighestPriorityClassFirst) {
  serve::RequestQueue queue(8);
  ASSERT_TRUE(queue
                  .submit(sample_features(), 0.0,
                          serve::Priority::kSheddable)
                  .ok());  // id 0
  ASSERT_TRUE(queue
                  .submit(sample_features(), 0.0,
                          serve::Priority::kStandard)
                  .ok());  // id 1
  ASSERT_TRUE(queue
                  .submit(sample_features(), 0.0,
                          serve::Priority::kCritical)
                  .ok());  // id 2
  ASSERT_TRUE(queue
                  .submit(sample_features(), 0.0,
                          serve::Priority::kStandard)
                  .ok());  // id 3

  auto taken = queue.collect(3, 0.0);
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].id, 2u);  // critical first
  EXPECT_EQ(taken[1].id, 1u);  // then standard, FIFO within the class
  EXPECT_EQ(taken[2].id, 3u);

  taken = queue.collect(3, 0.0);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, 0u);  // the sheddable straggler survives intact
}

// --- EWMA cost model -------------------------------------------------

TEST(EwmaCostModel, FirstObservationSnapsThenSmooths) {
  serve::CostModelOptions opt;
  opt.alpha = 0.5;
  opt.initial_col_ms = 1.0;
  serve::EwmaCostModel model(opt);
  EXPECT_DOUBLE_EQ(model.col_ms(), 1.0);       // prior
  EXPECT_DOUBLE_EQ(model.estimate_ms(4), 4.0);

  model.observe(10, 20.0);  // 2 ms/col: first observation snaps
  EXPECT_DOUBLE_EQ(model.col_ms(), 2.0);

  model.observe(10, 40.0);  // 4 ms/col: EWMA moves halfway
  EXPECT_DOUBLE_EQ(model.col_ms(), 3.0);
  EXPECT_EQ(model.observations(), 2u);
}

TEST(EwmaCostModel, IgnoresEmptyAndNonPositiveBatches) {
  serve::EwmaCostModel model;
  model.observe(0, 10.0);
  model.observe(4, 0.0);
  model.observe(4, -1.0);
  EXPECT_EQ(model.observations(), 0u);
}

// --- Brownout ladder -------------------------------------------------

TEST(BrownoutLadder, EscalatesAfterEnterRoundsAndRelaxesSlower) {
  serve::BrownoutOptions opt;
  opt.enter_pressure = 0.75;
  opt.exit_pressure = 0.35;
  opt.enter_rounds = 2;
  opt.exit_rounds = 3;
  serve::BrownoutLadder ladder(opt);

  EXPECT_EQ(ladder.observe(0.9), 0);   // 1 hot round: not yet
  EXPECT_EQ(ladder.observe(0.9), +1);  // 2nd: escalate
  EXPECT_EQ(ladder.level(), serve::BrownoutLevel::kTightTimeout);

  EXPECT_EQ(ladder.observe(0.1), 0);  // cooling takes exit_rounds
  EXPECT_EQ(ladder.observe(0.1), 0);
  EXPECT_EQ(ladder.observe(0.1), -1);
  EXPECT_EQ(ladder.level(), serve::BrownoutLevel::kNormal);
  EXPECT_EQ(ladder.observe(0.1), 0);  // already at the floor
}

TEST(BrownoutLadder, HysteresisBandDiscardsProgress) {
  serve::BrownoutOptions opt;
  opt.enter_rounds = 2;
  opt.exit_rounds = 2;
  serve::BrownoutLadder ladder(opt);
  EXPECT_EQ(ladder.observe(0.9), 0);
  EXPECT_EQ(ladder.observe(0.5), 0);   // band: hot progress discarded
  EXPECT_EQ(ladder.observe(0.9), 0);   // must start over
  EXPECT_EQ(ladder.observe(0.9), +1);
  EXPECT_EQ(ladder.observe(0.1), 0);
  EXPECT_EQ(ladder.observe(0.5), 0);   // band: cool progress discarded
  EXPECT_EQ(ladder.observe(0.1), 0);
  EXPECT_EQ(ladder.observe(0.1), -1);
}

TEST(BrownoutLadder, ClimbsTheFullLadderAndRespectsMaxLevel) {
  serve::BrownoutOptions opt;
  opt.enter_rounds = 1;
  opt.max_level = 2;
  serve::BrownoutLadder ladder(opt);
  EXPECT_EQ(ladder.observe(1.0), +1);
  EXPECT_EQ(ladder.observe(1.0), +1);
  EXPECT_EQ(ladder.observe(1.0), 0);  // capped at max_level
  EXPECT_EQ(ladder.level(), serve::BrownoutLevel::kFifoPack);
}

TEST(BrownoutLadder, ForceLevelPinsTheLadder) {
  serve::BrownoutOptions opt;
  opt.force_level = 3;
  serve::BrownoutLadder ladder(opt);
  EXPECT_EQ(ladder.level(), serve::BrownoutLevel::kEconomyTier);
  EXPECT_EQ(ladder.observe(0.0), 0);
  EXPECT_EQ(ladder.observe(1.0), 0);
  EXPECT_EQ(ladder.level(), serve::BrownoutLevel::kEconomyTier);
}

// --- AdmissionController ---------------------------------------------

TEST(AdmissionController, DepthCapRefusesWithRetryAfterHint) {
  serve::AdmissionOptions opt;
  opt.enabled = true;
  opt.max_queue_depth = 2;
  serve::AdmissionController controller(opt);

  EXPECT_TRUE(controller.admit("t", serve::Priority::kStandard, 0.0)
                  .admitted);
  EXPECT_TRUE(controller.admit("t", serve::Priority::kStandard, 0.1)
                  .admitted);
  const auto refused =
      controller.admit("t", serve::Priority::kStandard, 0.2);
  EXPECT_FALSE(refused.admitted);
  EXPECT_STREQ(refused.reason, "depth");
  EXPECT_GT(refused.retry_after_ms, 0.0);
  const auto error = refused.to_error("t");
  EXPECT_EQ(error.code, ErrorCode::kRejectedOverload);
  EXPECT_NE(error.message.find("retry after"), std::string::npos);
  EXPECT_NE(error.message.find("'t'"), std::string::npos);

  // Draining the backlog re-opens the intake.
  controller.on_collected("t", 2);
  EXPECT_TRUE(controller.admit("t", serve::Priority::kStandard, 0.3)
                  .admitted);
  EXPECT_EQ(controller.accepted(), 3u);
  EXPECT_EQ(controller.rejected(), 1u);
}

TEST(AdmissionController, SheddableHeadroomRefusesSheddableFirst) {
  serve::AdmissionOptions opt;
  opt.enabled = true;
  opt.max_queue_depth = 4;
  opt.sheddable_headroom = 0.5;  // sheddable cap = 2
  serve::AdmissionController controller(opt);

  EXPECT_TRUE(controller.admit("t", serve::Priority::kSheddable, 0.0)
                  .admitted);
  EXPECT_TRUE(controller.admit("t", serve::Priority::kSheddable, 0.1)
                  .admitted);
  EXPECT_FALSE(controller.admit("t", serve::Priority::kSheddable, 0.2)
                   .admitted);
  // Standard traffic still has room up to the full cap.
  EXPECT_TRUE(controller.admit("t", serve::Priority::kStandard, 0.3)
                  .admitted);
  EXPECT_TRUE(controller.admit("t", serve::Priority::kStandard, 0.4)
                  .admitted);
  EXPECT_FALSE(controller.admit("t", serve::Priority::kStandard, 0.5)
                   .admitted);
}

TEST(AdmissionController, PerTenantQuotaOverridesAndZeroCutsOff) {
  serve::AdmissionOptions opt;
  opt.enabled = true;
  opt.max_queue_depth = 8;
  opt.tenant_depth["bully"] = 0;
  opt.tenant_depth["vip"] = 1;
  serve::AdmissionController controller(opt);

  EXPECT_FALSE(controller.admit("bully", serve::Priority::kCritical, 0.0)
                   .admitted);
  EXPECT_TRUE(controller.admit("vip", serve::Priority::kStandard, 0.1)
                  .admitted);
  EXPECT_FALSE(controller.admit("vip", serve::Priority::kStandard, 0.2)
                   .admitted);
  EXPECT_TRUE(controller.admit("other", serve::Priority::kStandard, 0.3)
                  .admitted);  // default cap untouched
  EXPECT_EQ(controller.depth("bully"), 0u);
  EXPECT_EQ(controller.depth("vip"), 1u);
}

TEST(AdmissionController, WorkCapPricesBacklogThroughCostModel) {
  serve::AdmissionOptions opt;
  opt.enabled = true;
  opt.max_queue_depth = 100;
  opt.max_backlog_ms = 3.0;
  opt.cost.initial_col_ms = 1.0;  // 1 ms per queued request
  serve::AdmissionController controller(opt);

  EXPECT_TRUE(controller.admit("t", serve::Priority::kStandard, 0.0)
                  .admitted);
  EXPECT_TRUE(controller.admit("t", serve::Priority::kStandard, 0.1)
                  .admitted);
  EXPECT_TRUE(controller.admit("t", serve::Priority::kStandard, 0.2)
                  .admitted);
  const auto refused =
      controller.admit("t", serve::Priority::kStandard, 0.3);
  EXPECT_FALSE(refused.admitted);
  EXPECT_STREQ(refused.reason, "work");
  EXPECT_GT(refused.retry_after_ms, 0.0);
}

TEST(AdmissionController, FeasibilityPredictorTracksCostModel) {
  serve::AdmissionOptions opt;
  opt.enabled = true;
  opt.cost.initial_col_ms = 1.0;
  serve::AdmissionController controller(opt);
  EXPECT_TRUE(controller.infeasible(-1.0, 1));  // spent budgets never fit
  EXPECT_TRUE(controller.infeasible(3.0, 4));   // 4 ms estimated > 3 ms
  EXPECT_FALSE(controller.infeasible(5.0, 4));
  // A cheap observed batch relaxes the predictor.
  controller.on_round("t", 10, 1.0, 1.0);  // 0.1 ms/col
  EXPECT_FALSE(controller.infeasible(3.0, 4));
}

TEST(AdmissionController, EffectiveTimeoutShrinksAtLevelOne) {
  serve::AdmissionOptions opt;
  opt.enabled = true;
  opt.brownout.force_level = 1;
  opt.brownout.timeout_shrink = 0.25;
  serve::AdmissionController controller(opt);
  EXPECT_DOUBLE_EQ(controller.effective_timeout_ms(8.0), 2.0);

  serve::AdmissionController normal{serve::AdmissionOptions{}};
  EXPECT_DOUBLE_EQ(normal.effective_timeout_ms(8.0), 8.0);
}

TEST(AdmissionController, DecisionLogSerializationIsStable) {
  serve::AdmissionOptions opt;
  opt.enabled = true;
  opt.max_queue_depth = 1;
  opt.record_decisions = true;
  serve::AdmissionController controller(opt);
  (void)controller.admit("a", serve::Priority::kStandard, 0.5);
  (void)controller.admit("a", serve::Priority::kSheddable, 1.0);
  controller.record_dispatch("a", 0, serve::Priority::kStandard, 0.0,
                             2.0);

  const auto log = controller.take_log();
  ASSERT_EQ(log.size(), 3u);
  const std::string text = log.to_text();
  EXPECT_NE(text.find("accept tenant=a req=0 pr=standard"),
            std::string::npos);
  EXPECT_NE(text.find("reject tenant=a req=1 pr=sheddable"),
            std::string::npos);
  EXPECT_NE(text.find("dispatch tenant=a req=0"), std::string::npos);
  // take_log drains: a second take sees an empty log.
  EXPECT_EQ(controller.take_log().size(), 0u);
}

// --- Scripted property grid ------------------------------------------

struct ReplayFixture {
  dnn::SparseDnn net;
  dnn::DenseMatrix samples;
  baselines::SerialEngine engine;

  ReplayFixture()
      : net([] {
          radixnet::RadixNetOptions opt;
          opt.neurons = 64;
          opt.layers = 4;
          opt.seed = 7;
          return radixnet::make_radixnet(opt);
        }()),
        samples([] {
          data::SdgcInputOptions opt;
          opt.neurons = 64;
          opt.batch = 32;
          opt.seed = 8;
          return data::make_sdgc_input(opt).features;
        }()) {
    net.ensure_csc();
  }

  serve::ReplayReport replay(const serve::LoadScript& script,
                             serve::ReplayOptions options) {
    options.run_engines = false;  // scheduling-only: the grid is large
    serve::LoadReplayer replayer(options);
    std::set<std::string> tenants;
    for (const auto& event : script.events) tenants.insert(event.tenant);
    for (const auto& id : tenants) {
      replayer.add_tenant(id, engine, net, samples);
    }
    return replayer.run(script);
  }
};

serve::LoadScript grid_script(const std::string& shape,
                              std::uint64_t seed) {
  serve::LoadScriptSpec spec;
  spec.shape = shape;
  spec.tenants = {"a", "b"};
  spec.requests_per_tenant = 48;
  spec.mean_gap_ms = 0.15;  // ~2x a 16-batch virtual server's capacity
  spec.deadline_ms = 8.0;
  spec.sheddable_fraction = 0.3;
  spec.critical_fraction = 0.2;
  spec.seed = seed;
  spec.samples = 32;
  return serve::make_load_script(spec);
}

serve::ReplayOptions grid_options() {
  serve::ReplayOptions opt;
  opt.max_batch = 8;
  opt.batch_timeout_ms = 1.0;
  opt.admission.enabled = true;
  opt.admission.max_queue_depth = 12;
  opt.admission.brownout.enter_rounds = 2;
  return opt;
}

TEST(AdmissionProperties, EveryRequestIsConservedAcrossShapesAndSeeds) {
  ReplayFixture fx;
  for (const std::string shape : {"poisson", "burst", "ramp", "storm"}) {
    for (const std::uint64_t seed : {11ULL, 42ULL, 97ULL}) {
      const auto report = fx.replay(grid_script(shape, seed),
                                    grid_options());
      SCOPED_TRACE(shape + " seed " + std::to_string(seed));
      // Terminal accounting: shed + completed + late + timed_out +
      // rejected + failed == submitted, per tenant and in aggregate, and
      // nothing is left pending once the replay drains.
      std::size_t total = 0;
      for (const auto& [id, t] : report.tenants) {
        EXPECT_EQ(t.rejected + t.shed + t.timed_out + t.completed +
                      t.late + t.failed,
                  t.submitted)
            << "tenant " << id;
        total += t.submitted;
      }
      EXPECT_EQ(total, report.submitted());
      EXPECT_EQ(report.requests.size(), std::size_t{2 * 48});
      for (const auto& request : report.requests) {
        EXPECT_NE(request.outcome, serve::ReplayOutcome::kPending)
            << "request " << request.index;
      }
    }
  }
}

TEST(AdmissionProperties, AcceptedWorkIsNeverStarvedByLowerPriority) {
  ReplayFixture fx;
  for (const std::string shape : {"poisson", "burst", "ramp", "storm"}) {
    const auto report = fx.replay(grid_script(shape, 42), grid_options());
    SCOPED_TRACE(shape);
    // For every formed batch: anything the lane left pending must not
    // outrank what rode the batch — the selection loop always takes the
    // highest priority class first.
    for (const auto& batch : report.batches) {
      int min_in = std::numeric_limits<int>::max();
      for (const std::size_t index : batch.request_indices) {
        min_in = std::min(
            min_in,
            static_cast<int>(report.requests[index].priority));
      }
      int max_out = std::numeric_limits<int>::min();
      for (const auto& request : report.requests) {
        if (request.tenant != batch.tenant) continue;
        if (request.outcome == serve::ReplayOutcome::kRejected) continue;
        const bool waiting =
            request.arrive_ms <= batch.start_ms &&
            (request.resolved_ms < 0.0 ||
             request.resolved_ms > batch.start_ms) &&
            !(request.dispatch_ms >= 0.0 &&
              request.dispatch_ms <= batch.start_ms);
        if (waiting) {
          max_out = std::max(max_out,
                             static_cast<int>(request.priority));
        }
      }
      if (max_out > std::numeric_limits<int>::min()) {
        EXPECT_LE(max_out, min_in) << "batch " << batch.batch;
      }
    }
  }
}

TEST(AdmissionProperties, ReplayingTheSameScriptTwiceIsBitIdentical) {
  ReplayFixture fx;
  for (const std::string shape : {"poisson", "burst", "ramp", "storm"}) {
    const auto script = grid_script(shape, 42);
    const auto first = fx.replay(script, grid_options());
    const auto second = fx.replay(script, grid_options());
    SCOPED_TRACE(shape);
    EXPECT_EQ(first.decision_digest(), second.decision_digest());
    EXPECT_EQ(first.log.to_text(), second.log.to_text());
    EXPECT_EQ(first.makespan_ms, second.makespan_ms);
    EXPECT_EQ(first.submitted(), second.submitted());
    EXPECT_EQ(first.completed(), second.completed());
    EXPECT_EQ(first.shed(), second.shed());
    EXPECT_EQ(first.rejected(), second.rejected());
    ASSERT_EQ(first.requests.size(), second.requests.size());
    for (std::size_t i = 0; i < first.requests.size(); ++i) {
      EXPECT_EQ(first.requests[i].outcome, second.requests[i].outcome);
      EXPECT_EQ(first.requests[i].latency_ms,
                second.requests[i].latency_ms);
    }
  }
}

// --- Live stack drills (wall clock, outcome-asserted only) -----------

struct LiveFixture {
  dnn::SparseDnn net;
  dnn::DenseMatrix input;
  baselines::SerialEngine engine;

  LiveFixture()
      : net([] {
          radixnet::RadixNetOptions opt;
          opt.neurons = 64;
          opt.layers = 4;
          opt.seed = 3;
          return radixnet::make_radixnet(opt);
        }()),
        input([] {
          data::SdgcInputOptions opt;
          opt.neurons = 64;
          opt.batch = 16;
          opt.seed = 4;
          return data::make_sdgc_input(opt).features;
        }()) {
    net.ensure_csc();
  }

  std::vector<float> features(std::size_t j) const {
    return std::vector<float>(input.col(j % input.cols()),
                              input.col(j % input.cols()) + input.rows());
  }
};

TEST(LiveAdmission, RefusedSubmitsFastFailTyped) {
  LiveFixture fx;
  serve::ServeOptions opt;
  opt.max_batch = 4;
  opt.admission.enabled = true;
  opt.admission.max_queue_depth = 3;
  serve::DynamicBatcher batcher(fx.engine, fx.net, opt,
                                serve::ManualDrive{});

  std::size_t accepted = 0, rejected = 0;
  for (std::size_t j = 0; j < 8; ++j) {
    const auto sub = batcher.submit(fx.features(j));
    if (sub.ok()) {
      ++accepted;
    } else {
      ASSERT_EQ(sub.error().code, ErrorCode::kRejectedOverload);
      EXPECT_NE(sub.error().message.find("retry after"),
                std::string::npos);
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 3u);  // nobody is driving: depth cap binds exactly
  EXPECT_EQ(rejected, 5u);
  ASSERT_NE(batcher.controller(), nullptr);
  EXPECT_EQ(batcher.controller()->rejected(), 5u);

  while (batcher.drive(0.0)) {
  }
  const auto report = batcher.finish();
  EXPECT_EQ(report.requests, accepted);
  EXPECT_TRUE(report.complete());
  for (const auto& result : report.results) EXPECT_TRUE(result.ok());
}

TEST(LiveAdmission, InfeasibleSheddablesAreShedAtDispatch) {
  LiveFixture fx;
  serve::ServeOptions opt;
  opt.max_batch = 4;
  opt.admission.enabled = true;
  opt.admission.max_queue_depth = 16;
  // An absurd cost prior makes every budgeted request look infeasible.
  opt.admission.cost.initial_col_ms = 1e6;
  serve::DynamicBatcher batcher(fx.engine, fx.net, opt,
                                serve::ManualDrive{});

  for (std::size_t j = 0; j < 4; ++j) {
    ASSERT_TRUE(batcher
                    .submit(fx.features(j), /*deadline_ms=*/5000.0,
                            serve::Priority::kSheddable)
                    .ok());
  }
  // Standard traffic is never shed by the predictor, whatever the cost.
  ASSERT_TRUE(batcher
                  .submit(fx.features(4), /*deadline_ms=*/5000.0,
                          serve::Priority::kStandard)
                  .ok());
  while (batcher.drive(0.0)) {
  }
  const auto report = batcher.finish();
  EXPECT_EQ(report.shed_requests, 4u);
  EXPECT_FALSE(report.complete());
  std::size_t ok = 0, shed = 0;
  for (const auto& result : report.results) {
    if (result.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(result.code, ErrorCode::kRejectedOverload);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 1u);
  EXPECT_EQ(shed, 4u);
  EXPECT_EQ(batcher.controller()->shed(), 4u);
}

}  // namespace
