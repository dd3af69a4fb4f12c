// Concurrent serving layer over stream_inference: partitions a sample
// stream into batches and serves them on a pool of W workers, each owning
// an independent clone of the caller's engine (InferenceEngine::clone), so
// per-run engine state — SNICIT Traces, warm centroid caches, autotuned
// kernel arms — never races. A bounded work queue between the slicing
// producer and the workers provides backpressure: at most queue_capacity
// sliced batches are ever in flight, whatever the stream length.
//
// This is the serving shape the paper's batch-size study (§4.1.4/§4.2.3)
// points at — throughput is won by overlapping independent batches, the
// same lever as Hidayetoğlu et al.'s at-scale SDGC inference and
// SparseDNN's batch-parallel CPU serving — while each batch still rides
// SNICIT's compressed representation inside its worker.
//
// Determinism: batch j's outputs land in columns [j*B, ...) of the result
// regardless of which worker ran it or in what order batches finished, so
// outputs are bit-identical to the serial stream_inference path (workers
// pin their engine's inner kernels to a ScopedSerialRegion; every kernel
// computes columns independently, so chunking never changes the floats).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "snicit/stream.hpp"

namespace snicit::core {

struct ParallelStreamOptions {
  std::size_t batch_size = 1024;
  /// Rows of the output kept per sample (0 = full activation column),
  /// identical to StreamOptions::keep_rows.
  std::size_t keep_rows = 0;
  /// Worker threads serving batches. 0 sizes from the global thread pool
  /// (SNICIT_THREADS / hardware); 1 degrades to the serial path.
  std::size_t workers = 0;
  /// Bound on sliced-but-undispatched batches (the producer blocks once
  /// this many are queued). 0 picks 2x workers.
  std::size_t queue_capacity = 0;

  // --- fault tolerance (the pooled path only; the serial path has no
  // retry machinery and propagates engine exceptions unchanged) ---

  /// Total tries per batch before it is recorded in
  /// StreamResult::failures and its output columns stay zero. 1 disables
  /// retry. A retried batch is re-enqueued, so it normally lands on a
  /// different worker (and a fresh engine clone) than the one that
  /// faulted.
  std::size_t max_attempts = 5;
  /// First-retry backoff; doubles per subsequent attempt of the same
  /// batch, capped at 50 ms.
  double retry_backoff_ms = 1.0;
  /// Per-batch deadline measured from when the batch is sliced (so queue
  /// wait counts). An attempt is not started past the deadline; the batch
  /// fails with ErrorCode::kTimeout. 0 disables deadlines.
  double batch_deadline_ms = 0.0;
};

class ParallelStreamExecutor {
 public:
  explicit ParallelStreamExecutor(ParallelStreamOptions options = {});

  const ParallelStreamOptions& options() const { return options_; }

  /// Streams `input` (N x total) through an engine pool cloned from
  /// `engine`. The first batch runs on `engine` itself before the pool
  /// spins up: that run builds the model's lazy format mirrors and warms
  /// any stateful engine (centroid cache, autotuned arms) exactly as the
  /// serial path would, so the clones inherit identical state and the
  /// result is bit-identical to stream_inference. Throws
  /// platform::ErrorException (kBadInput, a std::runtime_error) when more
  /// than one worker is requested and the engine does not support
  /// clone().
  ///
  /// StreamResult::total_ms is the wall time of the whole run (so
  /// throughput() measures the overlapped serving rate); batch_ms[j] and
  /// the latency percentiles still record per-batch engine latency.
  ///
  /// Fault tolerance: a worker exception fails only its batch attempt —
  /// the batch is retried (capped exponential backoff, normally on
  /// another worker) up to max_attempts, then recorded in
  /// StreamResult::failures with its output columns zeroed; the rest of
  /// the stream is unaffected and the pool drains cleanly. Only
  /// non-transient typed errors (BadInput / BadModelFile — the whole
  /// stream would fail identically) abort the run: the queue is closed,
  /// in-flight batches are marked failed, workers join, and the error is
  /// rethrown.
  StreamResult run(dnn::InferenceEngine& engine, const dnn::SparseDnn& net,
                   const dnn::DenseMatrix& input) const;

 private:
  ParallelStreamOptions options_;

  /// Persistent per-lane serving scratch: slot 0 is the inline/serial
  /// lane (batch 0 and the single-worker path), slots 1..W belong to the
  /// pooled workers. Keeping them on the executor means repeated run()
  /// calls reuse every warmed buffer — the serving loop's zero-allocation
  /// steady state. Mutable because they are scratch, not observable
  /// state; one driver thread per executor is assumed (concurrent run()
  /// calls on the same executor would share lanes).
  mutable std::vector<std::unique_ptr<ServeScratch>> slots_;
  /// Grows the slot vector up to `i` (not thread-safe: run() pre-grows
  /// every worker slot before the pool starts).
  ServeScratch& slot(std::size_t i) const;
};

}  // namespace snicit::core
