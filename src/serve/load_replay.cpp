#include "serve/load_replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <thread>

#include "platform/common.hpp"
#include "snicit/stream.hpp"
#include "serve/journal.hpp"
#include "serve/virtual_clock.hpp"

namespace snicit::serve {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

// --- ReplayReport ----------------------------------------------------

const ReplayTenantStats& ReplayReport::tenant(const std::string& id) const {
  static const ReplayTenantStats kEmpty;
  auto it = tenants.find(id);
  return it == tenants.end() ? kEmpty : it->second;
}

std::size_t ReplayReport::submitted() const { return requests.size(); }

std::size_t ReplayReport::completed() const {
  std::size_t n = 0;
  for (const auto& [id, stats] : tenants) n += stats.completed;
  return n;
}

std::size_t ReplayReport::shed() const {
  std::size_t n = 0;
  for (const auto& [id, stats] : tenants) n += stats.shed;
  return n;
}

std::size_t ReplayReport::rejected() const {
  std::size_t n = 0;
  for (const auto& [id, stats] : tenants) n += stats.rejected;
  return n;
}

double ReplayReport::goodput_per_s() const {
  return makespan_ms <= 0.0
             ? 0.0
             : 1000.0 * static_cast<double>(completed()) / makespan_ms;
}

std::uint64_t ReplayReport::output_digest() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const ReplayRequest& r : requests) {
    if (!r.served()) continue;
    const auto index = static_cast<std::uint64_t>(r.index);
    const auto rows = static_cast<std::uint64_t>(r.output.size());
    hash = fnv1a(&index, sizeof(index), hash);
    hash = fnv1a(&rows, sizeof(rows), hash);
    hash = fnv1a(r.output.data(), r.output.size() * sizeof(float), hash);
  }
  return hash;
}

// --- LoadReplayer ----------------------------------------------------

LoadReplayer::LoadReplayer(ReplayOptions options)
    : options_(std::move(options)) {
  SNICIT_CHECK(options_.max_batch >= 1, "replay max_batch must be >= 1");
  SNICIT_CHECK(options_.batch_timeout_ms >= 0.0,
               "replay batch timeout must be >= 0");
}

void LoadReplayer::add_tenant(const std::string& id,
                              dnn::InferenceEngine& engine,
                              const dnn::SparseDnn& net,
                              const dnn::DenseMatrix& samples) {
  SNICIT_CHECK(lane_index_.count(id) == 0,
               "replay tenant registered twice");
  SNICIT_CHECK(samples.cols() >= 1, "replay tenant needs a sample pool");
  lane_index_[id] = lanes_.size();
  Lane lane;
  lane.id = id;
  lane.engine = &engine;
  lane.net = &net;
  lane.samples = &samples;
  lanes_.push_back(std::move(lane));
}

void LoadReplayer::set_economy(const std::string& id,
                               dnn::InferenceEngine& engine) {
  lane_of(id).economy = &engine;
}

LoadReplayer::Lane& LoadReplayer::lane_of(const std::string& id) {
  auto it = lane_index_.find(id);
  SNICIT_CHECK(it != lane_index_.end(),
               "load script names an unregistered tenant");
  return lanes_[it->second];
}

ReplayReport LoadReplayer::run(const LoadScript& script) {
  for (Lane& lane : lanes_) lane.pending.clear();

  // Fresh controller per run: replays are independent experiments. The
  // log is always recorded — the decision digest is the harness's oracle.
  AdmissionOptions admission = options_.admission;
  admission.record_decisions = true;
  AdmissionController controller(admission);
  const bool gated = admission.enabled;

  ReplayReport report;
  report.requests.resize(script.events.size());

  VirtualClock clock;
  double server_free_ms = 0.0;
  std::size_t next_event = 0;
  std::size_t cursor = 0;  // round-robin lane cursor

  auto configured_packer = make_packer(options_.packer);
  FifoPacker fifo_packer;

  // Durability hooks: admits/completes land in the journal as decisions
  // happen on the virtual timeline. Append failures degrade the journal
  // (counted), never the run.
  auto journal_admit = [&](const ReplayRequest& request, const Lane& lane) {
    if (options_.journal == nullptr) return;
    JournalAdmit admit;
    admit.id = request.index;
    admit.tenant = request.tenant;
    admit.sample = request.sample;
    admit.priority = request.priority;
    admit.arrive_ms = request.arrive_ms;
    admit.deadline_ms = request.deadline_ms;
    if (options_.journal_features) {
      const std::size_t column = request.sample % lane.samples->cols();
      admit.features.assign(lane.samples->col(column),
                            lane.samples->col(column) + lane.samples->rows());
    }
    if (!options_.journal->append_admit(admit).ok()) {
      report.journal_errors += 1;
    }
  };
  auto journal_complete = [&](const ReplayRequest& request) {
    if (options_.journal == nullptr) return;
    JournalComplete complete;
    complete.id = request.index;
    switch (request.outcome) {
      case ReplayOutcome::kCompleted:
      case ReplayOutcome::kLate:
        complete.code = platform::ErrorCode::kOk;
        complete.output_digest = output_digest64(request.output);
        break;
      case ReplayOutcome::kRejected:
      case ReplayOutcome::kShed:
        complete.code = platform::ErrorCode::kRejectedOverload;
        break;
      case ReplayOutcome::kTimedOut:
        complete.code = platform::ErrorCode::kTimeout;
        break;
      case ReplayOutcome::kFailed:
        complete.code = platform::ErrorCode::kWorkerFault;
        break;
      case ReplayOutcome::kPending:
        return;  // not terminal; nothing to journal
    }
    if (!options_.journal->append_complete(complete).ok()) {
      report.journal_errors += 1;
    }
  };

  // Accept or reject one scripted arrival at its timestamp.
  auto arrive = [&](std::size_t index) {
    const LoadEvent& event = script.events[index];
    Lane& lane = lane_of(event.tenant);
    ReplayRequest& request = report.requests[index];
    request.index = index;
    request.tenant = event.tenant;
    request.sample = event.sample;
    request.priority = event.priority;
    request.arrive_ms = event.at_ms;
    request.deadline_ms = event.deadline_ms;
    ReplayTenantStats& stats = report.tenants[event.tenant];
    stats.submitted += 1;
    // Every arrival is journaled — a rejection is still a question the
    // client asked, and its typed answer is journaled right behind it so
    // replay knows not to re-deliver.
    journal_admit(request, lane);
    if (gated) {
      const AdmissionVerdict verdict =
          controller.admit(event.tenant, event.priority, event.at_ms);
      if (!verdict.admitted) {
        request.outcome = ReplayOutcome::kRejected;
        request.resolved_ms = event.at_ms;
        request.retry_after_ms = verdict.retry_after_ms;
        stats.rejected += 1;
        journal_complete(request);
        return;
      }
    }
    stats.accepted += 1;
    lane.pending.push_back(index);
  };

  // Serve one batch from `lane` at the current virtual time.
  auto serve_lane = [&](Lane& lane) {
    const double now = clock.now_ms();
    std::vector<std::size_t> taken;
    taken.reserve(options_.max_batch);
    std::size_t removed = 0;
    while (taken.size() < options_.max_batch && !lane.pending.empty()) {
      // Highest priority first; arrival order breaks ties (pending is in
      // arrival order, so the first max-priority element is the oldest).
      std::size_t pick = 0;
      for (std::size_t i = 1; i < lane.pending.size(); ++i) {
        const auto& a = report.requests[lane.pending[i]];
        const auto& best = report.requests[lane.pending[pick]];
        if (static_cast<int>(a.priority) >
            static_cast<int>(best.priority)) {
          pick = i;
        }
      }
      const std::size_t index = lane.pending[pick];
      lane.pending.erase(lane.pending.begin() +
                         static_cast<std::ptrdiff_t>(pick));
      removed += 1;
      ReplayRequest& request = report.requests[index];
      ReplayTenantStats& stats = report.tenants[request.tenant];
      const double age = now - request.arrive_ms;
      if (request.deadline_ms > 0.0 && age > request.deadline_ms) {
        request.outcome = ReplayOutcome::kTimedOut;
        request.resolved_ms = now;
        stats.timed_out += 1;
        controller.record_timeout(request.tenant, index, request.priority,
                                  now);
        journal_complete(request);
        continue;
      }
      if (gated && request.priority == Priority::kSheddable &&
          request.deadline_ms > 0.0) {
        const double slack = request.deadline_ms - age;
        if (controller.infeasible(slack, taken.size() + 1)) {
          request.outcome = ReplayOutcome::kShed;
          request.resolved_ms = now;
          stats.shed += 1;
          controller.record_shed(request.tenant, index, request.priority,
                                 slack, now);
          journal_complete(request);
          continue;
        }
      }
      taken.push_back(index);
    }
    controller.on_collected(lane.id, removed);
    if (taken.empty()) return;

    const BrownoutLevel level = controller.level();
    const std::size_t cols = taken.size();

    // Pack: signatures are a pure function of each request's sample
    // column, so the packed order is deterministic.
    std::vector<Signature> signatures(cols);
    for (std::size_t i = 0; i < cols; ++i) {
      const ReplayRequest& request = report.requests[taken[i]];
      const std::size_t column = request.sample % lane.samples->cols();
      signatures[i] = input_signature(lane.samples->col_span(column));
    }
    BatchPacker& packer =
        static_cast<int>(level) >=
                static_cast<int>(BrownoutLevel::kFifoPack)
            ? static_cast<BatchPacker&>(fifo_packer)
            : *configured_packer;
    const std::vector<std::size_t> order =
        packer.pack(signatures, options_.max_batch);
    SNICIT_CHECK(order.size() == cols, "packer broke the permutation");

    const bool economy =
        static_cast<int>(level) >=
            static_cast<int>(BrownoutLevel::kEconomyTier) &&
        lane.economy != nullptr;
    dnn::InferenceEngine* engine = economy ? lane.economy : lane.engine;

    ReplayBatchRecord batch;
    batch.batch = report.batches.size();
    batch.tenant = lane.id;
    batch.start_ms = now;
    batch.level = level;
    batch.economy = economy;
    batch.request_indices.reserve(cols);
    for (std::size_t j = 0; j < cols; ++j) {
      batch.request_indices.push_back(taken[order[j]]);
    }

    bool failed = false;
    core::StreamResult result;
    if (options_.run_engines) {
      dnn::DenseMatrix input(lane.samples->rows(), cols);
      for (std::size_t j = 0; j < cols; ++j) {
        const ReplayRequest& request =
            report.requests[batch.request_indices[j]];
        const std::size_t column = request.sample % lane.samples->cols();
        std::copy_n(lane.samples->col(column), lane.samples->rows(),
                    input.col(j));
      }
      try {
        result = core::stream_inference(
            *engine, *lane.net, input,
            {/*batch_size=*/cols, /*keep_rows=*/options_.keep_rows});
      } catch (const std::exception&) {
        failed = true;
      }
    }

    const double service_ms =
        kReplayServiceBaseMs +
        kReplayServiceColMs * static_cast<double>(cols);
    const double complete = now + service_ms;
    server_free_ms = complete;
    batch.service_ms = service_ms;

    for (std::size_t j = 0; j < cols; ++j) {
      const std::size_t index = batch.request_indices[j];
      ReplayRequest& request = report.requests[index];
      ReplayTenantStats& stats = report.tenants[request.tenant];
      request.dispatch_ms = now;
      request.resolved_ms = complete;
      request.batch = batch.batch;
      controller.record_dispatch(request.tenant, index, request.priority,
                                 static_cast<double>(batch.batch), now);
      if (failed) {
        request.outcome = ReplayOutcome::kFailed;
        stats.failed += 1;
        continue;
      }
      request.latency_ms = complete - request.arrive_ms;
      const bool late = request.deadline_ms > 0.0 &&
                        request.latency_ms > request.deadline_ms;
      request.outcome =
          late ? ReplayOutcome::kLate : ReplayOutcome::kCompleted;
      if (late) {
        stats.late += 1;
      } else {
        stats.completed += 1;
      }
      stats.latency.add(request.latency_ms);
      if (options_.run_engines) {
        const auto rows = result.outputs.rows();
        request.output.assign(result.outputs.col(j),
                              result.outputs.col(j) + rows);
      }
    }
    // Journal the batch's terminal outcomes after outputs are assigned
    // (the completion digest covers the delivered bits).
    for (std::size_t j = 0; j < cols; ++j) {
      journal_complete(report.requests[batch.request_indices[j]]);
    }
    if (options_.pace_ms > 0.0) {
      // Real-time pacing for the chaos lane: the virtual clock is
      // untouched, the process just lingers so a SIGKILL has a run to hit.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options_.pace_ms));
    }

    controller.on_round(lane.id, cols, service_ms, complete);
    report.max_brownout_level = std::max(
        report.max_brownout_level, static_cast<int>(controller.level()));
    report.batches.push_back(std::move(batch));
  };

  // Discrete-event loop: the clock jumps to whichever comes first — the
  // next scripted arrival or the earliest instant some lane can dispatch
  // on the shared server. Arrivals win ties so a request landing exactly
  // at a dispatch instant is considered for that batch, like a live queue
  // drained after the enqueue.
  while (true) {
    const double next_arrival = next_event < script.events.size()
                                    ? script.events[next_event].at_ms
                                    : kInf;
    const bool draining = next_event >= script.events.size();
    const double eff_timeout =
        controller.effective_timeout_ms(options_.batch_timeout_ms);

    double best_at = kInf;
    std::size_t best_lane = 0;
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      const std::size_t li = (cursor + k) % lanes_.size();
      const Lane& lane = lanes_[li];
      if (lane.pending.empty()) continue;
      double ready;
      if (lane.pending.size() >= options_.max_batch || draining) {
        ready = clock.now_ms();
      } else {
        // Fill window from the oldest pending arrival, capped by the
        // earliest deadline expiry (deadline-aware coalescing: never
        // idle-wait a request to death).
        const ReplayRequest& oldest =
            report.requests[lane.pending.front()];
        double fill_at = oldest.arrive_ms + eff_timeout;
        for (std::size_t index : lane.pending) {
          const ReplayRequest& request = report.requests[index];
          if (request.deadline_ms > 0.0) {
            fill_at = std::min(fill_at,
                               request.arrive_ms + request.deadline_ms);
          }
        }
        ready = std::max(fill_at, clock.now_ms());
      }
      const double at = std::max(ready, server_free_ms);
      if (at < best_at) {
        best_at = at;
        best_lane = li;
      }
    }

    if (best_at == kInf) {
      if (draining) break;
      clock.advance_to(next_arrival);
      while (next_event < script.events.size() &&
             script.events[next_event].at_ms <= clock.now_ms()) {
        arrive(next_event);
        next_event += 1;
      }
      continue;
    }
    if (next_arrival <= best_at) {
      clock.advance_to(next_arrival);
      while (next_event < script.events.size() &&
             script.events[next_event].at_ms <= clock.now_ms()) {
        arrive(next_event);
        next_event += 1;
      }
      continue;
    }
    clock.advance_to(best_at);
    serve_lane(lanes_[best_lane]);
    cursor = (best_lane + 1) % lanes_.size();
    if (options_.halt_after_batches > 0 &&
        report.batches.size() >= options_.halt_after_batches) {
      // Simulated SIGKILL: stop dead between rounds. No drain, no
      // journal close — pending requests stay unanswered, exactly the
      // crash artifact replay_journal() exists to finish.
      report.halted = true;
      break;
    }
  }

  report.makespan_ms = std::max(clock.now_ms(), server_free_ms);
  report.max_brownout_level = std::max(
      report.max_brownout_level,
      static_cast<int>(controller.level()));
  report.brownout_ups =
      static_cast<std::size_t>(controller.brownout_escalations());
  report.brownout_downs =
      static_cast<std::size_t>(controller.brownout_deescalations());
  report.log = controller.take_log();
  return report;
}

}  // namespace snicit::serve
