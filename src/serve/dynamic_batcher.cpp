#include "serve/dynamic_batcher.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "platform/common.hpp"
#include "platform/metrics.hpp"
#include "platform/thread_pool.hpp"
#include "platform/trace.hpp"
#include "platform/workspace.hpp"
#include "serve/journal.hpp"
#include "snicit/parallel_stream.hpp"

namespace snicit::serve {

namespace {

using platform::ErrorCode;

/// Idle poll interval of the threaded server loop: an idle intake
/// re-checks the shutdown flag this often instead of blocking forever.
constexpr double kShutdownPollMs = 25.0;

std::size_t default_round_limit(const ServeOptions& options) {
  if (options.round_limit != 0) return options.round_limit;
  const std::size_t workers = options.workers != 0
                                  ? options.workers
                                  : platform::ThreadPool::global().size();
  return options.max_batch * std::max<std::size_t>(2 * workers, 2);
}

std::size_t default_queue_capacity(const ServeOptions& options,
                                   std::size_t round_limit,
                                   const AdmissionController* controller) {
  std::size_t capacity = options.queue_capacity != 0
                             ? options.queue_capacity
                             : 4 * round_limit;
  // With admission control the controller's depth cap must be the
  // binding constraint — a smaller physical queue would reject below the
  // configured quota with the wrong reason.
  if (controller != nullptr) {
    capacity =
        std::max(capacity, controller->options().max_queue_depth + 1);
  }
  return capacity;
}

void reject(bool ok, const char* message) {
  if (!ok) {
    throw platform::ErrorException(
        ErrorCode::kBadInput, std::string("DynamicBatcher: ") + message);
  }
}

}  // namespace

DynamicBatcher::DynamicBatcher(dnn::InferenceEngine& engine,
                               const dnn::SparseDnn& net,
                               ServeOptions options, bool manual)
    : engine_(&engine),
      net_(&net),
      options_(std::move(options)),
      round_limit_(default_round_limit(options_)),
      packer_(make_packer(options_.packer)),
      controller_(options_.controller
                      ? options_.controller
                      : (options_.admission.enabled
                             ? std::make_shared<AdmissionController>(
                                   options_.admission)
                             : nullptr)),
      queue_(default_queue_capacity(options_, round_limit_,
                                    controller_.get())),
      manual_(manual) {
  reject(options_.max_batch >= 1, "max_batch must be >= 1");
  reject(options_.batch_timeout_ms >= 0.0,
         "batch_timeout_ms must be non-negative");
  reject(options_.max_attempts >= 1, "max_attempts must be >= 1");
  reject(options_.retry_backoff_ms >= 0.0,
         "retry_backoff_ms must be non-negative");
  if (options_.tenant.empty()) {
    metric_prefix_ = "serve.";
    span_round_ = "serve.round";
    span_pack_ = "serve.pack";
  } else {
    metric_prefix_ = "serve." + options_.tenant + ".";
    span_round_ = platform::trace::intern(metric_prefix_ + "round");
    span_pack_ = platform::trace::intern(metric_prefix_ + "pack");
  }
  if (platform::metrics::enabled()) {
    auto& registry = platform::metrics::MetricsRegistry::global();
    registry.gauge(metric_prefix_ + "max_batch")
        .set(static_cast<double>(options_.max_batch));
    registry.gauge(metric_prefix_ + "workers")
        .set(static_cast<double>(options_.workers));
  }
}

DynamicBatcher::DynamicBatcher(dnn::InferenceEngine& engine,
                               const dnn::SparseDnn& net,
                               ServeOptions options, ManualDrive)
    : DynamicBatcher(engine, net, std::move(options), /*manual=*/true) {}

DynamicBatcher::DynamicBatcher(dnn::InferenceEngine& engine,
                               const dnn::SparseDnn& net,
                               ServeOptions options)
    : DynamicBatcher(engine, net, std::move(options), /*manual=*/false) {
  server_ = std::thread([this] { serve_loop(); });
}

DynamicBatcher::~DynamicBatcher() {
  queue_.close();
  if (server_.joinable()) server_.join();
}

platform::Result<std::size_t> DynamicBatcher::submit(
    std::vector<float> features, double deadline_ms, Priority priority) {
  if (features.size() != static_cast<std::size_t>(net_->neurons())) {
    return platform::Error{
        ErrorCode::kBadInput,
        "request has " + std::to_string(features.size()) +
            " features; the network expects " +
            std::to_string(net_->neurons())};
  }
  if (!(deadline_ms >= 0.0)) {
    return platform::Error{ErrorCode::kBadInput,
                           "request deadline must be non-negative"};
  }
  // Intake-side shutdown check: the server thread also closes the queue
  // when it polls between rounds, but a short-lived run can finish before
  // that poll ever sees the signal — the first submission after the
  // signal must observe the drain deterministically, not by race.
  const platform::ShutdownController& shutdown =
      options_.shutdown != nullptr ? *options_.shutdown
                                   : platform::ShutdownController::global();
  if (shutdown.requested()) {
    drained_on_signal_.store(true, std::memory_order_release);
    queue_.close();
    return platform::Error{ErrorCode::kQueueClosed,
                           "intake closed: shutdown signal received"};
  }
  if (platform::metrics::enabled()) {
    platform::metrics::MetricsRegistry::global()
        .counter(metric_prefix_ + "requests")
        .add(1);
  }
  // The journal needs the request content after the queue has consumed
  // it, so copy up front (only when durability is on).
  std::vector<float> journal_copy;
  const double arrive_ms = wall_.elapsed_ms();
  if (options_.journal != nullptr) journal_copy = features;

  platform::Result<std::size_t> id = [&]() -> platform::Result<std::size_t> {
    if (controller_ == nullptr) {
      return queue_.submit(std::move(features), deadline_ms, priority);
    }
    // Admission-controlled intake: decide now, never block the client.
    const AdmissionVerdict verdict =
        controller_->admit(options_.tenant, priority, arrive_ms);
    if (!verdict.admitted) {
      return verdict.to_error(options_.tenant);
    }
    auto admitted =
        queue_.try_submit(std::move(features), deadline_ms, priority);
    if (!admitted.ok()) {
      // Physical queue refused after the controller admitted (closed, or
      // a capacity misconfigured below the quota): roll the depth back so
      // the controller's view stays true.
      controller_->on_collected(options_.tenant, 1);
    }
    return admitted;
  }();

  if (id.ok() && options_.journal != nullptr) {
    JournalAdmit admit;
    admit.id = id.value();
    admit.tenant = options_.tenant;
    admit.sample = id.value();  // live requests have no pool; see features
    admit.priority = priority;
    admit.arrive_ms = arrive_ms;
    admit.deadline_ms = deadline_ms;
    admit.features = std::move(journal_copy);
    if (!options_.journal->append_admit(admit).ok()) {
      journal_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return id;
}

bool DynamicBatcher::drive(double wait_ms) {
  SNICIT_CHECK(manual_, "drive() requires the manual-drive batcher mode");
  // Never block on an idle intake: collect() waits indefinitely for a
  // first arrival, which would wedge a round-robin driver on one quiet
  // lane while its other lanes have work (and blind it to hot swaps).
  if (queue_.size() == 0) return false;
  if (controller_ != nullptr) {
    wait_ms = controller_->effective_timeout_ms(wait_ms);
  }
  std::vector<ServeRequest> requests = queue_.collect(round_limit_, wait_ms);
  if (requests.empty()) return false;
  serve_round(std::move(requests));
  return true;
}

void DynamicBatcher::rebind(dnn::InferenceEngine& engine,
                            const dnn::SparseDnn& net) {
  SNICIT_CHECK(manual_, "rebind() requires the manual-drive batcher mode");
  SNICIT_CHECK(net.neurons() == net_->neurons(),
               "rebind() must keep the neuron count (queued requests have "
               "fixed-length features)");
  engine_ = &engine;
  net_ = &net;
}

ServeReport DynamicBatcher::finish() {
  queue_.close();
  if (server_.joinable()) server_.join();
  if (manual_) {
    // Drain on the caller's thread (the Router joins its driver before
    // finishing lanes, so this is the only driver left).
    while (drive(0.0)) {
    }
  }
  if (finished_) return {};
  finished_ = true;
  report_.requests = queue_.issued();
  report_.total_ms = wall_.elapsed_ms();
  report_.journal_errors = journal_errors_.load(std::memory_order_relaxed);
  report_.drained_on_signal =
      drained_on_signal_.load(std::memory_order_acquire);
  return std::move(report_);
}

void DynamicBatcher::journal_terminal(const RequestResult& slot) {
  if (options_.journal == nullptr) return;
  JournalComplete complete;
  complete.id = slot.id;
  complete.code = slot.code;
  complete.output_digest = slot.ok() ? output_digest64(slot.output) : 0;
  if (!options_.journal->append_complete(complete).ok()) {
    journal_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

RequestResult& DynamicBatcher::result_slot(std::size_t id) {
  if (report_.results.size() <= id) report_.results.resize(id + 1);
  report_.results[id].id = id;
  return report_.results[id];
}

void DynamicBatcher::serve_loop() {
  const platform::ShutdownController& shutdown =
      options_.shutdown != nullptr ? *options_.shutdown
                                   : platform::ShutdownController::global();
  while (true) {
    // Signal-driven drain: a delivered SIGTERM/SIGINT closes the intake
    // here, on the server thread — requests already accepted are still
    // served, and the report records how the session ended.
    if (shutdown.requested() && !queue_.closed()) {
      queue_.close();
      drained_on_signal_.store(true, std::memory_order_release);
    }
    const double wait_ms =
        controller_ != nullptr
            ? controller_->effective_timeout_ms(options_.batch_timeout_ms)
            : options_.batch_timeout_ms;
    std::vector<ServeRequest> requests = queue_.collect(
        round_limit_, wait_ms, kShutdownPollMs);
    if (requests.empty()) {
      if (queue_.closed() && queue_.size() == 0) break;  // drained
      continue;  // idle poll: re-check the shutdown flag
    }
    serve_round(std::move(requests));
  }
}

void DynamicBatcher::serve_round(std::vector<ServeRequest> requests) {
  SNICIT_TRACE_SPAN(span_round_, "serve");
  namespace metrics = platform::metrics;
  const bool instrumented = metrics::enabled();
  const std::size_t collected = requests.size();
  const std::size_t round = report_.rounds++;
  if (controller_ != nullptr) {
    controller_->on_collected(options_.tenant, collected);
  }
  const BrownoutLevel brownout = controller_ != nullptr
                                     ? controller_->level()
                                     : BrownoutLevel::kNormal;

  // Deadline triage: a request whose budget expired while queued fails
  // with kTimeout instead of burning engine time it can no longer use.
  // Under admission control, sheddable requests the feasibility
  // predictor declares doomed are shed here too — refusing to spend
  // engine time on output that will be thrown away is the whole point.
  std::vector<ServeRequest> live;
  std::vector<double> waited;
  live.reserve(requests.size());
  waited.reserve(requests.size());
  for (auto& request : requests) {
    const double queue_ms = request.age.elapsed_ms();
    if (request.deadline_ms > 0.0 && queue_ms > request.deadline_ms) {
      RequestResult& slot = result_slot(request.id);
      slot.code = ErrorCode::kTimeout;
      slot.message = "deadline of " + std::to_string(request.deadline_ms) +
                     " ms expired after " + std::to_string(queue_ms) +
                     " ms in queue";
      slot.queue_ms = queue_ms;
      slot.latency_ms = queue_ms;
      slot.round = round;
      report_.timed_out_requests += 1;
      report_.queue_wait.add(queue_ms);
      report_.latency.add(queue_ms);
      journal_terminal(slot);
      if (controller_ != nullptr) {
        controller_->record_timeout(options_.tenant, request.id,
                                    request.priority, wall_.elapsed_ms());
      }
      if (instrumented) {
        metrics::MetricsRegistry::global()
            .counter(metric_prefix_ + "timeouts")
            .add(1);
      }
      continue;
    }
    if (controller_ != nullptr &&
        request.priority == Priority::kSheddable &&
        request.deadline_ms > 0.0) {
      const double slack_ms = request.deadline_ms - queue_ms;
      if (controller_->infeasible(slack_ms, live.size() + 1)) {
        RequestResult& slot = result_slot(request.id);
        slot.code = ErrorCode::kRejectedOverload;
        slot.message = "shed: " + std::to_string(slack_ms) +
                       " ms of budget left, batch estimated at " +
                       std::to_string(
                           controller_->estimate_ms(live.size() + 1)) +
                       " ms";
        slot.queue_ms = queue_ms;
        slot.latency_ms = queue_ms;
        slot.round = round;
        report_.shed_requests += 1;
        report_.queue_wait.add(queue_ms);
        report_.latency.add(queue_ms);
        journal_terminal(slot);
        controller_->record_shed(options_.tenant, request.id,
                                 request.priority, slack_ms,
                                 wall_.elapsed_ms());
        if (instrumented) {
          metrics::MetricsRegistry::global()
              .counter(metric_prefix_ + "shed")
              .add(1);
        }
        continue;
      }
    }
    waited.push_back(queue_ms);
    live.push_back(std::move(request));
  }
  if (live.empty()) {
    completed_.fetch_add(collected, std::memory_order_release);
    return;
  }
  const std::size_t n = live.size();

  // Signatures + packed order. The permutation is validated — a packer
  // that drops or duplicates a position would silently misroute outputs.
  std::vector<Signature> signatures(n);
  for (std::size_t i = 0; i < n; ++i) {
    signatures[i] = input_signature(live[i].features);
  }
  // Brownout level >= 2 forces FIFO packing: under pressure the round
  // stops paying for similarity clustering. Level >= 3 additionally
  // reroutes to the economy engine tier when one is bound.
  BatchPacker& round_packer =
      static_cast<int>(brownout) >=
              static_cast<int>(BrownoutLevel::kFifoPack)
          ? static_cast<BatchPacker&>(fifo_packer_)
          : *packer_;
  dnn::InferenceEngine* round_engine =
      static_cast<int>(brownout) >=
                  static_cast<int>(BrownoutLevel::kEconomyTier) &&
              economy_engine_ != nullptr
          ? economy_engine_
          : engine_;
  std::vector<std::size_t> order;
  {
    SNICIT_TRACE_SPAN(span_pack_, "serve");
    order = round_packer.pack(signatures, options_.max_batch);
  }
  SNICIT_CHECK(order.size() == n, "packer must emit one slot per request");
  {
    std::vector<std::uint8_t> seen(n, 0);
    for (const std::size_t p : order) {
      SNICIT_CHECK(p < n && !seen[p], "packer order must be a permutation");
      seen[p] = 1;
    }
  }

  const std::size_t rows = static_cast<std::size_t>(net_->neurons());
  dnn::DenseMatrix input(rows, n);
  for (std::size_t p = 0; p < n; ++p) {
    std::copy_n(live[order[p]].features.data(), rows, input.col(p));
  }

  if (!executor_) {
    // One executor for the batcher's lifetime: its per-lane scratch
    // (workspaces, cycled results) warms on the first round and is
    // reused by every later one.
    core::ParallelStreamOptions popt;
    popt.batch_size = options_.max_batch;
    popt.keep_rows = options_.keep_rows;
    popt.workers = options_.workers;
    popt.max_attempts = options_.max_attempts;
    popt.retry_backoff_ms = options_.retry_backoff_ms;
    executor_ = std::make_unique<core::ParallelStreamExecutor>(popt);
  }
  const core::ParallelStreamExecutor& executor = *executor_;

  const std::size_t num_batches =
      (n + options_.max_batch - 1) / options_.max_batch;

  // Engine-side attribution baseline: SNICIT's fallback counter and
  // post-conversion residue gauge are recorded globally by the engine;
  // sampling them around the round pins their deltas on this batcher's
  // tenant (exact whenever rounds are serialized process-wide — the
  // single-batcher case and the Router's round-robin driver both are).
  metrics::Counter* engine_fallbacks = nullptr;
  std::int64_t fallbacks_before = 0;
  if (instrumented) {
    engine_fallbacks =
        &metrics::MetricsRegistry::global().counter("snicit.fallbacks");
    fallbacks_before = engine_fallbacks->get();
  }

  core::StreamResult streamed;
  bool round_failed = false;
  platform::Error round_error;
  try {
    streamed = executor.run(*round_engine, *net_, input);
  } catch (const platform::ErrorException& e) {
    round_failed = true;
    round_error = e.error();
  } catch (const std::exception& e) {
    // Serial-path engine exceptions (one worker / few batches) have no
    // retry machinery; they cost this round, never the server thread.
    round_failed = true;
    round_error = {ErrorCode::kWorkerFault, e.what()};
  }

  metrics::Series* fill_series = nullptr;
  metrics::Series* similarity_series = nullptr;
  metrics::Series* wait_series = nullptr;
  if (instrumented) {
    auto& registry = metrics::MetricsRegistry::global();
    registry.counter(metric_prefix_ + "rounds").add(1);
    registry.counter(metric_prefix_ + "batches")
        .add(static_cast<std::int64_t>(num_batches));
    fill_series = &registry.series(metric_prefix_ + "batch_fill");
    similarity_series =
        &registry.series(metric_prefix_ + "batch_similarity");
    wait_series = &registry.series(metric_prefix_ + "queue_wait_ms");
    const std::int64_t fallback_delta =
        engine_fallbacks->get() - fallbacks_before;
    if (fallback_delta > 0) {
      registry.counter(metric_prefix_ + "fallbacks").add(fallback_delta);
    }
    if (round_engine->name().rfind("SNICIT", 0) == 0) {
      registry.gauge(metric_prefix_ + "conversion_residue_nnz")
          .set(registry.gauge("snicit.conversion_residue_nnz").get());
    }
    // Steady-state memory health of the serving lanes: reserved scratch
    // bytes plus any allocation events after warm-up (0 when healthy).
    platform::Workspace::publish_metrics();
    if (!round_failed) {
      if (streamed.retries > 0) {
        registry.counter(metric_prefix_ + "retries")
            .add(static_cast<std::int64_t>(streamed.retries));
      }
      if (streamed.degraded_batches > 0) {
        registry.counter(metric_prefix_ + "degraded_batches")
            .add(static_cast<std::int64_t>(streamed.degraded_batches));
      }
    }
  }

  // Per-batch ledger + per-request results, routed back through the
  // packed order (column p of the round matrix is live[order[p]]).
  std::vector<const core::BatchFailure*> failure_of(num_batches, nullptr);
  if (!round_failed) {
    for (const auto& failure : streamed.failures) {
      failure_of[failure.batch] = &failure;
    }
    report_.retries += streamed.retries;
    report_.degraded_batches += streamed.degraded_batches;
  }
  for (std::size_t j = 0; j < num_batches; ++j) {
    const std::size_t begin = j * options_.max_batch;
    const std::size_t end = std::min(n, begin + options_.max_batch);
    ServeBatchRecord record;
    record.round = round;
    record.batch = report_.batches + j;
    record.request_ids.reserve(end - begin);
    std::vector<Signature> batch_sigs;
    batch_sigs.reserve(end - begin);
    for (std::size_t p = begin; p < end; ++p) {
      record.request_ids.push_back(live[order[p]].id);
      batch_sigs.push_back(signatures[order[p]]);
    }
    record.fill = static_cast<double>(end - begin) /
                  static_cast<double>(options_.max_batch);
    record.similarity = mean_pairwise_similarity(batch_sigs);
    if (round_failed) {
      record.failed = true;
      record.code = round_error.code;
    } else {
      record.engine_ms = streamed.batch_ms[j];
      if (failure_of[j] != nullptr) {
        record.failed = true;
        record.code = failure_of[j]->code;
      }
    }
    if (fill_series != nullptr) {
      fill_series->push(record.fill);
      similarity_series->push(record.similarity);
    }

    for (std::size_t p = begin; p < end; ++p) {
      const ServeRequest& request = live[order[p]];
      if (controller_ != nullptr) {
        controller_->record_dispatch(options_.tenant, request.id,
                                     request.priority,
                                     static_cast<double>(record.batch),
                                     wall_.elapsed_ms());
      }
      RequestResult& slot = result_slot(request.id);
      slot.round = round;
      slot.batch = record.batch;
      slot.batch_cols = end - begin;
      slot.queue_ms = waited[order[p]];
      slot.latency_ms = request.age.elapsed_ms();
      report_.queue_wait.add(slot.queue_ms);
      report_.latency.add(slot.latency_ms);
      if (wait_series != nullptr) wait_series->push(slot.queue_ms);
      if (round_failed) {
        slot.code = round_error.code;
        slot.message = round_error.message;
        report_.failed_requests += 1;
      } else if (failure_of[j] != nullptr) {
        slot.code = failure_of[j]->code;
        slot.message = failure_of[j]->message;
        slot.attempts = failure_of[j]->attempts;
        slot.batch_ms = streamed.batch_ms[j];
        report_.failed_requests += 1;
      } else {
        slot.code = ErrorCode::kOk;
        // Per-batch retries are not attributed on success; the session
        // total lives in ServeReport::retries.
        slot.attempts = 1;
        slot.batch_ms = streamed.batch_ms[j];
        slot.output.assign(streamed.outputs.col(p),
                           streamed.outputs.col(p) + streamed.outputs.rows());
      }
      // The completion lands in the journal after the output is
      // assigned — the digest covers the delivered bits.
      journal_terminal(slot);
    }
    if (instrumented && record.failed) {
      metrics::MetricsRegistry::global()
          .counter(metric_prefix_ + "failed_requests")
          .add(static_cast<std::int64_t>(end - begin));
    }
    report_.batch_log.push_back(std::move(record));
  }
  report_.batches += num_batches;
  if (controller_ != nullptr) {
    // Close the control loop: this round's engine time feeds the cost
    // model; re-evaluated pressure steps the brownout ladder.
    controller_->on_round(options_.tenant, n,
                          round_failed ? 0.0 : streamed.total_ms,
                          wall_.elapsed_ms());
    report_.max_brownout_level =
        std::max(report_.max_brownout_level,
                 static_cast<int>(controller_->level()));
  }
  completed_.fetch_add(collected, std::memory_order_release);
}

}  // namespace snicit::serve
