// Deterministic load replay: the conformance harness that locks down the
// overload-control layer.
//
// The live serving stack decides under the wall clock with real threads,
// which makes its overload behaviour impossible to assert exactly — a
// test that sleeps is a test that flakes. The LoadReplayer solves this by
// running the *same decision logic* (serve/overload.hpp: the admission
// controller, the feasibility predictor, the brownout ladder, the
// packers) against a virtual clock in a single thread:
//
//   * arrivals come from a seeded LoadScript, not from sleeps;
//   * service time is charged by a deterministic service model
//     (base + per-column milliseconds), not measured;
//   * one virtual server serves tenant lanes round-robin, mirroring the
//     Router's serialized-rounds discipline (at most one round in flight
//     process-wide);
//   * every accept / reject / shed / timeout / dispatch / brownout
//     transition lands in the DecisionLog with its virtual timestamp.
//
// The result: shedding decisions, brownout transitions, per-tenant
// latency percentiles, and goodput are exact functions of
// (script, options) — bit-reproducible run over run, assertable without
// tolerances. Engines still run for real (per formed batch, through
// core::stream_inference), so output bit-identity to the serial
// reference is checked *alongside* the scheduling conformance: brownout
// degrades scheduling, never math.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "dnn/engine.hpp"
#include "platform/stats.hpp"
#include "serve/load_script.hpp"
#include "serve/overload.hpp"
#include "serve/packer.hpp"

namespace snicit::serve {

class JournalWriter;  // serve/journal.hpp (which includes this header)

/// Deterministic virtual service-time model: one engine batch of `cols`
/// columns costs kReplayServiceBaseMs + kReplayServiceColMs * cols on the
/// virtual clock.
inline constexpr double kReplayServiceBaseMs = 0.5;
inline constexpr double kReplayServiceColMs = 0.25;

struct ReplayOptions {
  /// Engine batch size (one virtual round serves one engine batch).
  std::size_t max_batch = 16;
  /// Virtual fill window: a lane dispatches when it holds max_batch
  /// requests, when its oldest request has waited this long, or when the
  /// script is exhausted (drain). Deadlines cap the wait like the live
  /// queue's deadline-aware coalescing.
  double batch_timeout_ms = 2.0;
  std::string packer = "similarity";
  std::size_t keep_rows = 0;
  /// admission.enabled = false replays the uncontrolled baseline: every
  /// arrival is accepted, nothing is shed, the ladder never moves.
  AdmissionOptions admission;

  /// false skips the engines entirely (scheduling-only replay: outputs
  /// empty). The offered-load sweeps use this to explore big grids
  /// cheaply.
  bool run_engines = true;

  // Durability hooks (see serve/journal.hpp). The replayer is both the
  // oracle generator and the crash victim of the kill-replay harness:
  // with a journal attached every scripted arrival is appended as an
  // admit and every terminal outcome as a complete, and halting after k
  // batches models a SIGKILL landing between rounds.
  /// Write-ahead journal; append failures are counted in
  /// ReplayReport::journal_errors, never thrown.
  JournalWriter* journal = nullptr;
  /// Journal each admit's sample column so a journal-only replay can
  /// rebuild the input pool without the original matrices.
  bool journal_features = false;
  /// 0 = run to completion. k > 0 = stop dead after the k-th served
  /// batch (no drain, no close — the simulated kill leaves the journal
  /// exactly as a real one would).
  std::size_t halt_after_batches = 0;
  /// Real milliseconds slept per served batch (virtual clock untouched):
  /// widens the window the chaos lane's real SIGKILL must land in.
  double pace_ms = 0.0;
};

/// Terminal outcome of one scripted request.
enum class ReplayOutcome : int {
  kPending = 0,    // never terminal in a finished report
  kRejected = 1,   // refused at admission (typed rejected_overload)
  kShed = 2,       // dropped by the feasibility predictor at dispatch
  kTimedOut = 3,   // deadline expired while queued; triaged at dispatch
  kCompleted = 4,  // served within its budget (or had none)
  kLate = 5,       // served, but past its deadline (wasted service)
  kFailed = 6,     // engine threw while running the batch
};

inline const char* to_string(ReplayOutcome outcome) {
  switch (outcome) {
    case ReplayOutcome::kPending: return "pending";
    case ReplayOutcome::kRejected: return "rejected";
    case ReplayOutcome::kShed: return "shed";
    case ReplayOutcome::kTimedOut: return "timed_out";
    case ReplayOutcome::kCompleted: return "completed";
    case ReplayOutcome::kLate: return "late";
    case ReplayOutcome::kFailed: return "failed";
  }
  return "unknown";
}

/// Per-request replay record, indexed by script event order.
struct ReplayRequest {
  std::size_t index = 0;  // script event index == request id
  std::string tenant;
  std::size_t sample = 0;
  Priority priority = Priority::kStandard;
  double arrive_ms = 0.0;
  double deadline_ms = 0.0;
  ReplayOutcome outcome = ReplayOutcome::kPending;
  double dispatch_ms = -1.0;   // -1: never rode a batch
  double resolved_ms = -1.0;   // when the request left the system
  double latency_ms = 0.0;     // arrive -> resolved (served requests)
  double retry_after_ms = 0.0; // rejection hint
  std::size_t batch = std::numeric_limits<std::size_t>::max();
  std::vector<float> output;   // keep_rows (or all) rows; served only

  bool served() const {
    return outcome == ReplayOutcome::kCompleted ||
           outcome == ReplayOutcome::kLate;
  }
};

struct ReplayBatchRecord {
  std::size_t batch = 0;
  std::string tenant;
  std::vector<std::size_t> request_indices;  // packed column order
  double start_ms = 0.0;
  double service_ms = 0.0;
  BrownoutLevel level = BrownoutLevel::kNormal;
  bool economy = false;  // rode the economy engine tier
};

struct ReplayTenantStats {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  std::size_t completed = 0;  // in budget
  std::size_t late = 0;
  std::size_t failed = 0;
  platform::QuantileTracker latency;  // virtual ms over served requests

  double accept_rate() const {
    return submitted == 0
               ? 1.0
               : static_cast<double>(accepted) /
                     static_cast<double>(submitted);
  }
};

struct ReplayReport {
  std::vector<ReplayRequest> requests;  // by script event index
  std::map<std::string, ReplayTenantStats> tenants;
  std::vector<ReplayBatchRecord> batches;
  DecisionLog log;
  double makespan_ms = 0.0;
  int max_brownout_level = 0;
  std::size_t brownout_ups = 0;
  std::size_t brownout_downs = 0;
  /// True when the run stopped at halt_after_batches (simulated kill):
  /// the report is a crash artifact, not a finished session.
  bool halted = false;
  /// Journal appends that failed (alloc_fail drill, full disk). The run
  /// itself continues — durability degrades, serving does not.
  std::size_t journal_errors = 0;

  const ReplayTenantStats& tenant(const std::string& id) const;

  std::size_t submitted() const;
  std::size_t completed() const;  // in-budget completions, all tenants
  std::size_t shed() const;
  std::size_t rejected() const;

  /// In-budget completions per virtual second — the quantity an overload
  /// controller exists to defend.
  double goodput_per_s() const;

  std::uint64_t decision_digest() const { return log.digest(); }
  /// FNV-1a over served outputs in request-id order (shape + float bits):
  /// the golden-digest handle for brownout bit-identity checks.
  std::uint64_t output_digest() const;
};

class LoadReplayer {
 public:
  explicit LoadReplayer(ReplayOptions options);

  /// Registers a tenant lane. `samples` is the tenant's input pool;
  /// scripted sample indices address its columns modulo cols. Engines
  /// and matrices must outlive the replayer. Registration order is the
  /// round-robin order.
  void add_tenant(const std::string& id, dnn::InferenceEngine& engine,
                  const dnn::SparseDnn& net,
                  const dnn::DenseMatrix& samples);

  /// Binds the brownout level-3 economy tier for one tenant. Must serve
  /// the same network (degradation never changes the request contract).
  void set_economy(const std::string& id, dnn::InferenceEngine& engine);

  /// Replays the script from t=0 on a fresh virtual clock and admission
  /// controller. Deterministic: identical (script, options, tenants) ->
  /// bit-identical report, decision log, and outputs.
  ReplayReport run(const LoadScript& script);

  const ReplayOptions& options() const { return options_; }

 private:
  struct Lane {
    std::string id;
    dnn::InferenceEngine* engine = nullptr;
    dnn::InferenceEngine* economy = nullptr;
    const dnn::SparseDnn* net = nullptr;
    const dnn::DenseMatrix* samples = nullptr;
    std::vector<std::size_t> pending;  // request indices, arrival order
  };

  Lane& lane_of(const std::string& id);

  ReplayOptions options_;
  std::vector<Lane> lanes_;
  std::map<std::string, std::size_t> lane_index_;
};

}  // namespace snicit::serve
