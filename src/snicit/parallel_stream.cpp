#include "snicit/parallel_stream.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "platform/bounded_queue.hpp"
#include "platform/common.hpp"
#include "platform/error.hpp"
#include "platform/fault_injection.hpp"
#include "platform/metrics.hpp"
#include "platform/thread_pool.hpp"
#include "platform/timer.hpp"
#include "platform/trace.hpp"

namespace snicit::core {

namespace {

namespace fault = platform::fault;
using platform::ErrorCode;

/// Cap on the doubling per-batch retry backoff.
constexpr double kMaxBackoffMs = 50.0;

/// One unit of work: a sliced batch plus where its results belong and
/// its fault-tolerance state (tries consumed, age for the deadline).
struct BatchJob {
  std::size_t index = 0;  // batch number (latency slot)
  std::size_t start = 0;  // first output column
  dnn::DenseMatrix batch;
  std::size_t attempts = 0;  // attempts already consumed
  platform::Stopwatch age{};  // started when sliced; deadline basis
};

/// Runs one batch and scatters the kept rows into the shared result.
/// Workers write disjoint column ranges and disjoint batch_ms slots, so
/// no synchronization is needed on the result. The lane's ServeScratch
/// carries the engine workspace and the cycled RunResult, so a warm lane
/// serves without touching the heap. Returns true when the engine
/// reported a mid-network degradation (SNICIT dense fallback).
bool serve_batch(dnn::InferenceEngine& engine, const dnn::SparseDnn& net,
                 const BatchJob& job, std::size_t keep, ServeScratch& sc,
                 StreamResult& result) {
  SNICIT_TRACE_SPAN("serve_batch", "stream");
  platform::Stopwatch sw;
  engine.run_into(net, job.batch, sc.ws, sc.run);
  const double ms = sw.elapsed_ms();
  result.batch_ms[job.index] = ms;
  for (std::size_t j = 0; j < job.batch.cols(); ++j) {
    std::copy_n(sc.run.output.col(j), keep,
                result.outputs.col(job.start + j));
  }
  if (platform::metrics::enabled()) {
    auto& registry = platform::metrics::MetricsRegistry::global();
    registry.counter("stream.batches_served").add(1);
    // Occupancy in integer microseconds: Counter is the only atomic-add
    // instrument, and worker busy time must sum across threads.
    registry.counter("stream.worker_busy_us")
        .add(static_cast<std::int64_t>(ms * 1000.0));
  }
  return sc.run.fallback_layer >= 0;
}

/// Worker faults that would hit every batch identically are not worth
/// retrying: abort the stream instead of burning the retry budget
/// max_attempts * num_batches times.
bool is_fatal(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const platform::ErrorException& e) {
    return e.code() == ErrorCode::kBadInput ||
           e.code() == ErrorCode::kBadModelFile;
  } catch (const std::bad_alloc&) {
    return true;
  } catch (...) {
    return false;
  }
}

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const platform::ErrorException& e) {
    // Bare message: BatchFailure carries the code separately, and
    // what() would repeat it as a "[code] " prefix.
    return e.error().message;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

ErrorCode classify(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const platform::ErrorException& e) {
    return e.code();
  } catch (...) {
    return ErrorCode::kWorkerFault;
  }
}

/// Shared mutable state of one resilient run, so the batch-serving loop
/// is the same for the inline batch-0 run and the pooled workers.
struct RunState {
  const ParallelStreamOptions& options;
  const dnn::SparseDnn& net;
  std::size_t keep;
  std::size_t num_batches;
  StreamResult& result;
  platform::BoundedQueue<BatchJob>& queue;

  std::atomic<std::size_t> done{0};       // batches in a terminal state
  std::atomic<std::size_t> retries{0};
  std::atomic<std::size_t> degraded{0};
  std::atomic<bool> aborting{false};
  std::mutex failure_mutex{};
  std::exception_ptr fatal_error = nullptr;  // first fatal; rethrown at end

  void record_failure(const BatchJob& job, ErrorCode code,
                      std::string message) {
    std::lock_guard<std::mutex> lock(failure_mutex);
    result.failures.push_back(
        {job.index, code, std::move(message), job.attempts});
  }

  /// A batch reached success or permanent failure. The last terminal
  /// batch closes the queue: the producer never closes it itself, since
  /// retried batches may be re-enqueued long after slicing finished.
  void mark_terminal() {
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_batches) {
      queue.close();
    }
  }

  void abort_stream(const std::exception_ptr& error) {
    bool expected = false;
    if (aborting.compare_exchange_strong(expected, true)) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      fatal_error = error;
    }
    queue.close();
  }

  /// Drives `job` to a terminal state on `engine`: attempt, and on a
  /// transient fault back off and retry — re-enqueued so another worker
  /// (with a healthy engine clone) normally picks it up, or inline when
  /// the queue is full/closed. Exceptions never escape: a fault costs at
  /// most this batch.
  void process(dnn::InferenceEngine& engine, ServeScratch& scratch,
               BatchJob job) {
    for (;;) {
      if (aborting.load(std::memory_order_relaxed)) {
        record_failure(job, ErrorCode::kQueueClosed,
                       "stream aborted before this batch completed");
        mark_terminal();
        return;
      }
      if (options.batch_deadline_ms > 0.0 &&
          job.age.elapsed_ms() > options.batch_deadline_ms) {
        record_failure(job, ErrorCode::kTimeout,
                       "batch deadline of " +
                           std::to_string(options.batch_deadline_ms) +
                           " ms exceeded");
        if (platform::metrics::enabled()) {
          platform::metrics::MetricsRegistry::global()
              .counter("stream.timeouts")
              .add(1);
        }
        mark_terminal();
        return;
      }

      job.attempts += 1;
      std::exception_ptr error;
      try {
        // Injected worker fault (drills): keyed by batch *and* attempt,
        // so with p < 1 a retried batch is not doomed to re-fault.
        if (fault::should_fire("worker_throw",
                               job.index * 1000003ULL + job.attempts)) {
          throw platform::ErrorException(
              ErrorCode::kWorkerFault,
              "injected worker_throw fault (batch " +
                  std::to_string(job.index) + ", attempt " +
                  std::to_string(job.attempts) + ")");
        }
        if (serve_batch(engine, net, job, keep, scratch, result)) {
          degraded.fetch_add(1, std::memory_order_relaxed);
        }
        mark_terminal();
        return;
      } catch (...) {
        error = std::current_exception();
      }

      if (is_fatal(error)) {
        record_failure(job, classify(error), describe(error));
        mark_terminal();
        abort_stream(error);
        return;
      }
      if (job.attempts >= options.max_attempts) {
        record_failure(job, classify(error), describe(error));
        if (platform::metrics::enabled()) {
          platform::metrics::MetricsRegistry::global()
              .counter("stream.failed_batches")
              .add(1);
        }
        mark_terminal();
        return;
      }

      retries.fetch_add(1, std::memory_order_relaxed);
      if (platform::metrics::enabled()) {
        platform::metrics::MetricsRegistry::global()
            .counter("stream.retries")
            .add(1);
      }
      const double backoff =
          std::min(options.retry_backoff_ms *
                       std::pow(2.0, static_cast<double>(job.attempts - 1)),
                   kMaxBackoffMs);
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            backoff));
      }
      // Hand the batch to the pool so a *different* worker retries it;
      // try_push (never blocks, so no producer/worker deadlock) consumes
      // its argument, hence the copy. Full or closed queue: retry here.
      BatchJob requeue = job;
      if (queue.try_push(std::move(requeue))) return;
    }
  }
};

}  // namespace

ServeScratch& ParallelStreamExecutor::slot(std::size_t i) const {
  while (slots_.size() <= i) {
    slots_.push_back(std::make_unique<ServeScratch>());
  }
  return *slots_[i];
}

ParallelStreamExecutor::ParallelStreamExecutor(ParallelStreamOptions options)
    : options_(options) {
  SNICIT_CHECK(options_.batch_size >= 1, "batch_size must be >= 1");
  SNICIT_CHECK(options_.max_attempts >= 1, "max_attempts must be >= 1");
  SNICIT_CHECK(options_.retry_backoff_ms >= 0.0 &&
                   options_.batch_deadline_ms >= 0.0,
               "retry/backoff/deadline times must be non-negative");
}

StreamResult ParallelStreamExecutor::run(dnn::InferenceEngine& engine,
                                         const dnn::SparseDnn& net,
                                         const dnn::DenseMatrix& input) const {
  const std::size_t total = input.cols();
  const std::size_t bs = options_.batch_size;
  const std::size_t num_batches = (total + bs - 1) / bs;

  std::size_t workers = options_.workers != 0
                            ? options_.workers
                            : platform::ThreadPool::global().size();
  // Batch 0 runs on the caller's engine; only the remainder is pooled.
  workers = std::min(workers, num_batches > 0 ? num_batches - 1
                                              : std::size_t{0});
  if (workers <= 1) {
    // One worker (or <= 2 batches) cannot overlap anything: the serial
    // path is the same computation without threads or clones. It still
    // rides this executor's persistent lane-0 scratch.
    StreamOptions serial;
    serial.batch_size = options_.batch_size;
    serial.keep_rows = options_.keep_rows;
    return stream_inference(engine, net, input, serial, &slot(0));
  }

  const std::size_t keep =
      options_.keep_rows == 0 ? input.rows()
                              : std::min(options_.keep_rows, input.rows());

  SNICIT_TRACE_SPAN("parallel_stream.run", "stream");
  if (platform::metrics::enabled()) {
    auto& registry = platform::metrics::MetricsRegistry::global();
    registry.gauge("stream.workers").set(static_cast<double>(workers));
    registry.gauge("stream.batch_size").set(static_cast<double>(bs));
  }

  platform::Stopwatch wall;
  StreamResult result;
  result.outputs.reset(keep, total);
  result.batch_ms.assign(num_batches, 0.0);
  result.batches = num_batches;
  net.ensure_csc();  // shared model prep, same as the serial path

  const std::size_t capacity = options_.queue_capacity != 0
                                   ? options_.queue_capacity
                                   : 2 * workers;
  platform::BoundedQueue<BatchJob> queue(capacity);
  RunState state{options_, net,   keep, num_batches,
                 result,   queue};

  // Pre-grow every lane's scratch before the pool starts: slot() growth
  // is not thread-safe, and workers index straight into their slot.
  slot(workers);

  // Batch 0 on the caller's engine, before any clone exists: triggers the
  // remaining lazy mirror builds (e.g. ELL) and warms stateful engines,
  // so the net is read-only and the engine state final when cloned. It
  // rides the same retry loop as pooled batches (inline retries only).
  state.process(engine, slot(0),
                BatchJob{0, 0, input.columns(0, std::min(bs, total))});
  if (state.aborting.load()) {
    queue.close();
    if (state.fatal_error) std::rethrow_exception(state.fatal_error);
  }

  std::vector<std::unique_ptr<dnn::InferenceEngine>> engines;
  engines.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    auto clone = engine.clone();
    if (!clone) {
      throw platform::ErrorException(
          ErrorCode::kBadInput,
          "engine '" + engine.name() +
              "' does not support clone(); "
              "parallel serving needs engine pooling");
    }
    engines.push_back(std::move(clone));
  }

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      // Each worker owns a core's worth of work: its engine's inner
      // kernel loops run inline instead of re-entering the shared pool.
      platform::ScopedSerialRegion serial_region;
      ServeScratch& sc = slot(w + 1);  // pre-grown; no growth here
      while (auto job = queue.pop()) {
        state.process(*engines[w], sc, std::move(*job));
      }
    });
  }

  // Producer: slice and enqueue the remaining batches. push() blocking on
  // a full queue is the backpressure bound — at most `capacity` sliced
  // batches ever exist beyond the ones being served.
  platform::metrics::Series* depth_series =
      platform::metrics::enabled()
          ? &platform::metrics::MetricsRegistry::global().series(
                "stream.queue_depth")
          : nullptr;
  std::size_t index = 1;
  for (std::size_t start = bs; start < total; start += bs, ++index) {
    // Injected producer stall (drills): models a slow upstream slicer.
    if (fault::should_fire("queue_stall", index)) {
      const double stall_ms =
          fault::FaultRegistry::global().param("queue_stall", 5.0);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(stall_ms));
    }
    BatchJob job{index, start, input.columns(start, std::min(total, start + bs))};
    if (queue.push(std::move(job)) != ErrorCode::kOk) {
      // Closed mid-stream: the run is aborting on a fatal error. Account
      // for every unsliced batch so the terminal count still converges.
      for (std::size_t rest = index; rest < num_batches; ++rest) {
        std::lock_guard<std::mutex> lock(state.failure_mutex);
        result.failures.push_back({rest, ErrorCode::kQueueClosed,
                                   "stream aborted before this batch was "
                                   "dispatched",
                                   0});
      }
      break;
    }
    // Post-push depth samples the backpressure the producer actually saw:
    // pinned at capacity ⇒ workers are the bottleneck; near 0 ⇒ slicing is.
    const auto depth = static_cast<double>(queue.size());
    SNICIT_TRACE_COUNTER("queue_depth", depth);
    if (depth_series != nullptr) depth_series->push(depth);
  }
  for (auto& t : threads) t.join();
  queue.close();  // defensive: no-op unless the terminal count was short

  if (state.fatal_error) std::rethrow_exception(state.fatal_error);

  result.retries = state.retries.load();
  result.degraded_batches = state.degraded.load();
  std::sort(result.failures.begin(), result.failures.end(),
            [](const BatchFailure& a, const BatchFailure& b) {
              return a.batch < b.batch;
            });
  for (double ms : result.batch_ms) result.latency.add(ms);
  result.total_ms = wall.elapsed_ms();
  return result;
}

}  // namespace snicit::core
