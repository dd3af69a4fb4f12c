// Request-level serving front end: an async RequestQueue accepting
// individual samples, a serving thread that coalesces them into engine
// batches under a max-batch-size / max-wait-timeout policy, and a
// pluggable BatchPacker that orders each round so look-alike samples
// share a batch (raising SNICIT's centroid hit rate and shrinking the
// residues its conversion carries — the paper's intra-batch clustering
// win, applied at the serving layer).
//
// Execution plugs into the existing ParallelStreamExecutor worker pool:
// every serving round assembles its packed requests into one
// column-matrix and streams it through the executor, inheriting the
// engine-pool overlap, per-batch retry with capped backoff, the SNICIT
// dense-fallback degradation ledger, the worker_throw / queue_stall
// fault-injection sites, and the deterministic reassembly contract —
// a request's output is bit-identical to serial stream_inference on the
// same packed samples, whatever the arrival order, worker count, or
// fault drill.
//
// Threading: submit() is safe from any number of client threads; one
// internal server thread runs the collect -> pack -> execute loop; the
// per-round engine pool is the executor's. finish() closes the intake,
// drains, joins, and returns the session report. The engine and network
// passed at construction must outlive the batcher and must not be used
// concurrently elsewhere while it is serving.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dnn/engine.hpp"
#include "platform/error.hpp"
#include "platform/shutdown.hpp"
#include "serve/overload.hpp"
#include "serve/packer.hpp"
#include "serve/request.hpp"
#include "serve/request_queue.hpp"

namespace snicit::core {
class ParallelStreamExecutor;
}

namespace snicit::serve {

class JournalWriter;  // serve/journal.hpp

struct ServeOptions {
  /// Engine batch size the packer slices rounds into (the paper's B).
  std::size_t max_batch = 64;
  /// Attribution label for multi-tenant serving. Empty (the default)
  /// keeps the classic single-model names: `serve.*` metrics and
  /// serve.round/serve.pack trace spans. Non-empty switches every metric
  /// and span to `serve.<tenant>.*`, and additionally attributes the
  /// engine-side `snicit.fallbacks` / `snicit.conversion_residue_nnz`
  /// instruments to the tenant by per-round delta sampling (valid when
  /// rounds are serialized process-wide, as the Router guarantees).
  std::string tenant;
  /// Max time collect() waits to fill a round once a request is pending;
  /// requests with deadlines can shorten the wait (see RequestQueue).
  double batch_timeout_ms = 2.0;
  /// Packing strategy: "fifo" or "similarity".
  std::string packer = "similarity";
  /// Rows of the output kept per request (0 = full activation column).
  std::size_t keep_rows = 0;
  /// Engine-pool workers per round (ParallelStreamOptions::workers
  /// semantics: 0 sizes from the global pool, 1 serves serially).
  std::size_t workers = 1;
  /// Bound on queued-but-uncollected requests (submit blocks beyond it).
  /// 0 picks 4 * round_limit.
  std::size_t queue_capacity = 0;
  /// Max requests collected per serving round. 0 picks
  /// max_batch * max(2 * effective workers, 2), so a busy intake gives
  /// the round enough batches to overlap across the pool.
  std::size_t round_limit = 0;

  // Fault tolerance, forwarded to the executor per round.
  std::size_t max_attempts = 5;
  double retry_backoff_ms = 1.0;

  /// Overload control (serve/overload.hpp). Disabled by default: the
  /// intake blocks on a full queue exactly as before. Enabled, submits
  /// are gated by an AdmissionController (fast-fail kRejectedOverload
  /// instead of blocking), queued sheddable traffic that cannot meet its
  /// deadline is shed at collect time, and the brownout ladder degrades
  /// the round policy (timeout shrink -> FIFO packing -> economy engine)
  /// under sustained pressure.
  AdmissionOptions admission;
  /// Share one controller across batchers (the Router's lanes must see
  /// one ladder and one cost model — pressure is a server property).
  /// When null and admission.enabled, the batcher builds its own.
  std::shared_ptr<AdmissionController> controller;

  // Durability (serve/journal.hpp). With a journal attached every
  // accepted submit is appended (with its features — the journal is the
  // only durable record of the request content) before it can ride a
  // batch, and every terminal result is appended when it resolves.
  // Append failures never fail serving: they are counted in
  // ServeReport::journal_errors.
  std::shared_ptr<JournalWriter> journal;

  /// Shutdown flag the threaded server polls between rounds: once
  /// requested, the intake closes, queued requests are served, and the
  /// report is flushed with drained_on_signal = true. Null polls the
  /// process-wide ShutdownController::global() (the one real signal
  /// handlers mark); tests inject their own.
  const platform::ShutdownController* shutdown = nullptr;
};

/// Tag selecting the externally-driven batcher mode (no internal server
/// thread; some caller — the multi-model Router — calls drive()).
struct ManualDrive {};

class DynamicBatcher {
 public:
  /// Starts the server thread immediately; requests submitted from this
  /// point on are served as rounds fill (or time out).
  DynamicBatcher(dnn::InferenceEngine& engine, const dnn::SparseDnn& net,
                 ServeOptions options = {});

  /// Manual-drive mode: no server thread is spawned. The owner calls
  /// drive() to serve rounds (single driver at a time — the Router's
  /// round-robin loop), may rebind() the engine between rounds (hot
  /// swap), and finish() drains whatever is still queued.
  DynamicBatcher(dnn::InferenceEngine& engine, const dnn::SparseDnn& net,
                 ServeOptions options, ManualDrive);

  /// Closes the intake and joins the server (the report is discarded —
  /// call finish() to keep it).
  ~DynamicBatcher();

  DynamicBatcher(const DynamicBatcher&) = delete;
  DynamicBatcher& operator=(const DynamicBatcher&) = delete;

  /// Enqueues one sample (length must equal the network's neuron count —
  /// kBadInput otherwise). Blocks while the intake is full; kQueueClosed
  /// after finish(). `deadline_ms` is the request's total latency budget
  /// (0 = none). With admission control enabled the submit never blocks:
  /// a refused request fast-fails with kRejectedOverload carrying a
  /// retry-after hint, and `priority` decides how early it is refused
  /// (sheddable first, critical last).
  platform::Result<std::size_t> submit(
      std::vector<float> features, double deadline_ms = 0.0,
      Priority priority = Priority::kStandard);

  /// Closes the intake, serves every request already accepted, joins the
  /// server thread, and returns the session ledger: exactly one
  /// RequestResult per accepted submit, sorted by id. Idempotent — later
  /// calls return an empty report.
  ServeReport finish();

  // --- manual-drive API (valid only after the ManualDrive ctor; the
  // driver thread is the de-facto server thread, one at a time) ---

  /// Serves one round from what is already queued (waiting at most
  /// `wait_ms` for the round to fill further; 0 takes only what is
  /// pending). Returns immediately with false when nothing is pending —
  /// an idle lane never blocks its driver — including after
  /// close_intake() once the queue is drained. Returns true when any
  /// request reached a terminal result.
  bool drive(double wait_ms);

  /// Rebinds future rounds to a different engine (and its net) — the hot
  /// swap primitive. Rounds already served are untouched; requests still
  /// queued ride the new engine from the next drive(). The new net must
  /// have the same neuron count (queued features stay valid).
  void rebind(dnn::InferenceEngine& engine, const dnn::SparseDnn& net);

  /// Closes the intake without draining (finish() or further drive()
  /// calls serve what was already accepted).
  void close_intake() { queue_.close(); }

  /// Requests accepted but not yet collected into a round.
  std::size_t pending() const { return queue_.size(); }
  /// True once the intake is closed and every accepted request has been
  /// collected (the manual driver can retire this batcher).
  bool drained() const { return queue_.closed() && queue_.size() == 0; }
  /// Requests that have reached a terminal result (served, failed, or
  /// timed out). Monotonic; readable from any thread.
  std::size_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }

  /// Binds (or clears, with nullptr) the brownout level-3 economy engine:
  /// rounds served while the ladder sits at kEconomyTier ride it instead
  /// of the bound engine. Must serve the same network — degradation never
  /// changes the request contract. Call from the driver thread between
  /// rounds (manual mode) or before serving starts.
  void set_economy(dnn::InferenceEngine* engine) {
    economy_engine_ = engine;
  }

  /// The overload controller in effect (null when admission is off).
  const std::shared_ptr<AdmissionController>& controller() const {
    return controller_;
  }

  const ServeOptions& options() const { return options_; }
  /// Requests accepted so far.
  std::size_t submitted() const { return queue_.issued(); }

 private:
  DynamicBatcher(dnn::InferenceEngine& engine, const dnn::SparseDnn& net,
                 ServeOptions options, bool manual);

  void serve_loop();
  void serve_round(std::vector<ServeRequest> requests);
  RequestResult& result_slot(std::size_t id);
  /// Appends the terminal outcome of `slot` to the journal (no-op when
  /// none is attached); failures bump journal_errors_.
  void journal_terminal(const RequestResult& slot);

  dnn::InferenceEngine* engine_;
  dnn::InferenceEngine* economy_engine_ = nullptr;
  const dnn::SparseDnn* net_;
  ServeOptions options_;
  std::size_t round_limit_ = 0;
  std::unique_ptr<BatchPacker> packer_;
  /// Built lazily on the first round and reused for every later one, so
  /// its per-lane serving scratch (workspaces, cycled results) persists —
  /// after the warm-up round the serving hot path stops allocating.
  std::unique_ptr<core::ParallelStreamExecutor> executor_;
  FifoPacker fifo_packer_;  // brownout level >= 2 override
  std::shared_ptr<AdmissionController> controller_;
  RequestQueue queue_;
  bool manual_ = false;
  std::string metric_prefix_;        // "serve." or "serve.<tenant>."
  const char* span_round_ = nullptr; // interned when tenant is set
  const char* span_pack_ = nullptr;
  std::atomic<std::size_t> completed_{0};
  /// Failed journal appends; atomic because submit() journals admits on
  /// client threads while the server journals completions.
  std::atomic<std::size_t> journal_errors_{0};
  /// Set when a shutdown signal closed the intake — by the server thread
  /// between rounds, or by submit() when the signal is already pending
  /// (client threads, hence atomic). finish() copies it into the report.
  std::atomic<bool> drained_on_signal_{false};
  ServeReport report_;  // touched only by the (de-facto) server thread
  platform::Stopwatch wall_;
  std::thread server_;
  bool finished_ = false;
};

}  // namespace snicit::serve
