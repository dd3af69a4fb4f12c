// Overload control for the serving stack: admission control, priority
// load shedding, and an adaptive brownout ladder.
//
// The north star is sustained heavy traffic, and the failure mode of an
// uncontrolled intake is classic congestion collapse: a burst grows the
// queue without bound, queue wait crosses every request's deadline, and
// the server spends its capacity finishing work that is already too late
// to be useful. The cure is sold in three parts, all decided here:
//
//   * AdmissionController — bounded per-tenant intake. Two caps: a queue
//     *depth* cap and an estimated-*work* cap (queued columns priced by
//     an EWMA cost model fed with recent batch latencies — inference-time
//     compression makes per-batch cost variable, so the controller tracks
//     it instead of assuming it).
//     A refused submit fast-fails with the typed kRejectedOverload error
//     and a retry-after hint rather than blocking the client.
//
//   * Priority load shedding — requests carry a Priority class. Sheddable
//     traffic is refused earlier (its caps are scaled by
//     sheddable_headroom) and, once queued, is dropped at dispatch time
//     whenever the deadline-feasibility predictor says it cannot meet its
//     budget anyway — the engine never burns cycles on work that will be
//     thrown away.
//
//   * BrownoutLadder — under sustained pressure the stack degrades
//     *scheduling* before it degrades *service*: level 1 shrinks the
//     batch fill-timeout (stop waiting for prettier batches), level 2
//     switches the packer to FIFO (stop paying for similarity packing),
//     level 3 routes rounds to a cheaper engine tier when one is bound.
//     Every step is reversible with hysteresis (entering takes
//     enter_rounds of pressure >= enter_pressure; leaving takes
//     exit_rounds of pressure <= exit_pressure) so the ladder cannot
//     flap. Degradation never changes the math of an accepted request —
//     outputs stay bit-identical to serial stream_inference at every
//     level; the brownout conformance suite locks that down.
//
// Everything here is clock-agnostic and deterministic: every entry point
// takes an explicit `now_ms`, so the identical decision logic runs under
// the wall clock in live serving and under the virtual clock in the
// load-replay conformance harness (serve/load_replay.hpp). Decisions can
// be recorded into a DecisionLog whose canonical text serialization (and
// FNV-1a digest) is bit-reproducible across runs.
//
// Attribution: when the global metrics registry is enabled the controller
// maintains serve.overload.accepted / .rejected / .shed counters, the
// serve.overload.brownout_level / .pressure gauges, and emits a
// serve.overload.brownout trace span on every ladder transition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "platform/error.hpp"
#include "serve/request.hpp"

namespace snicit::serve {

// --- EWMA cost model -------------------------------------------------

struct CostModelOptions {
  /// EWMA smoothing factor in (0, 1]: weight of the newest observation.
  double alpha = 0.25;
  /// Per-column service-cost prior (ms) used before any batch completes.
  double initial_col_ms = 0.25;
};

/// Exponentially-weighted estimate of what a batch costs: ms per column
/// from recent batch latencies. Deterministic in its observation
/// sequence; not internally synchronized (the controller serializes).
class EwmaCostModel {
 public:
  explicit EwmaCostModel(CostModelOptions options = {});

  /// One finished batch: `cols` columns served in `batch_ms`. Batches
  /// with cols == 0 or batch_ms <= 0 are ignored (a failed round teaches
  /// the model nothing about cost).
  void observe(std::size_t cols, double batch_ms);

  double col_ms() const { return col_ms_; }
  std::size_t observations() const { return observations_; }

  /// Estimated service cost of a `cols`-column batch at current rates.
  double estimate_ms(std::size_t cols) const;

 private:
  CostModelOptions options_;
  double col_ms_;
  std::size_t observations_ = 0;
};

// --- Brownout ladder -------------------------------------------------

/// Degradation levels, strictly ordered. Each level includes everything
/// the levels below it do.
enum class BrownoutLevel : int {
  kNormal = 0,       // full policy: configured timeout, packer, engine
  kTightTimeout = 1, // batch fill-timeout scaled by timeout_shrink
  kFifoPack = 2,     // packer forced to FIFO (skip similarity packing)
  kEconomyTier = 3,  // rounds routed to the economy engine when bound
};

inline const char* to_string(BrownoutLevel level) {
  switch (level) {
    case BrownoutLevel::kNormal: return "normal";
    case BrownoutLevel::kTightTimeout: return "tight_timeout";
    case BrownoutLevel::kFifoPack: return "fifo_pack";
    case BrownoutLevel::kEconomyTier: return "economy_tier";
  }
  return "unknown";
}

struct BrownoutOptions {
  /// Pressure at or above this for enter_rounds consecutive observations
  /// escalates one level.
  double enter_pressure = 0.75;
  /// Pressure at or below this for exit_rounds consecutive observations
  /// de-escalates one level. Must stay below enter_pressure (hysteresis).
  double exit_pressure = 0.35;
  std::size_t enter_rounds = 2;
  /// Relaxing is slower than reacting so a sawtooth load cannot flap the
  /// ladder once per round.
  std::size_t exit_rounds = 4;
  /// Multiplier applied to the batch fill-timeout at level >= 1.
  double timeout_shrink = 0.25;
  /// Highest level the ladder may reach (3 = full ladder; 0 disables).
  int max_level = 3;
  /// Test hook: >= 0 pins the ladder at that level — observations still
  /// log pressure but never transition. The brownout conformance suite
  /// uses this to serve the same load script at every level.
  int force_level = -1;
};

/// The reversible degradation state machine. One instance per serving
/// stack (pressure is a shared-server property, not a per-tenant one).
class BrownoutLadder {
 public:
  explicit BrownoutLadder(BrownoutOptions options = {});

  BrownoutLevel level() const {
    return static_cast<BrownoutLevel>(level_);
  }

  /// Feeds one round's pressure reading. Returns +1 on escalation, -1 on
  /// de-escalation, 0 otherwise.
  int observe(double pressure);

  const BrownoutOptions& options() const { return options_; }

 private:
  BrownoutOptions options_;
  int level_ = 0;
  std::size_t hot_rounds_ = 0;
  std::size_t cool_rounds_ = 0;
};

// --- Decision log ----------------------------------------------------

/// One overload-control decision, timestamped on the driving clock. The
/// log's canonical serialization is the conformance harness's oracle:
/// replaying the same load script must reproduce it bit-identically.
struct DecisionRecord {
  enum class Kind : int {
    kAccept = 0,
    kReject = 1,       // refused at admission; detail = retry-after ms
    kShed = 2,         // dropped by the feasibility predictor at dispatch
    kTimeout = 3,      // deadline expired in queue; triaged at dispatch
    kDispatch = 4,     // rode an engine batch; detail = batch index
    kBrownoutUp = 5,   // detail = new level
    kBrownoutDown = 6, // detail = new level
  };

  Kind kind = Kind::kAccept;
  double at_ms = 0.0;
  std::string tenant;
  std::uint64_t request = 0;  // request id (0 for brownout records)
  Priority priority = Priority::kStandard;
  double detail = 0.0;
};

inline const char* to_string(DecisionRecord::Kind kind) {
  switch (kind) {
    case DecisionRecord::Kind::kAccept: return "accept";
    case DecisionRecord::Kind::kReject: return "reject";
    case DecisionRecord::Kind::kShed: return "shed";
    case DecisionRecord::Kind::kTimeout: return "timeout";
    case DecisionRecord::Kind::kDispatch: return "dispatch";
    case DecisionRecord::Kind::kBrownoutUp: return "brownout_up";
    case DecisionRecord::Kind::kBrownoutDown: return "brownout_down";
  }
  return "unknown";
}

class DecisionLog {
 public:
  void append(DecisionRecord record) {
    records_.push_back(std::move(record));
  }
  const std::vector<DecisionRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  /// Canonical one-line-per-record serialization (fixed-precision times,
  /// stable field order) — the unit of bit-reproducibility.
  std::string to_text() const;

  /// FNV-1a 64 over to_text().
  std::uint64_t digest() const;

 private:
  std::vector<DecisionRecord> records_;
};

// --- Admission controller --------------------------------------------

struct AdmissionOptions {
  /// Master switch: disabled leaves the stack exactly as before (blocking
  /// backpressure, no shedding, no brownout).
  bool enabled = false;
  /// Per-tenant cap on queued-but-undispatched requests. 0 refuses all
  /// intake for standard traffic (a tenant quota of zero is a valid way
  /// to cut off an abusive neighbour).
  std::size_t max_queue_depth = 256;
  /// Per-tenant cap on estimated queued work (depth priced through the
  /// cost model). <= 0 disables the work cap.
  double max_backlog_ms = 0.0;
  /// Depth-quota overrides for specific tenants (tenant id -> cap),
  /// replacing max_queue_depth for those tenants only. A quota of 0 cuts
  /// the tenant off entirely — every submit is refused at intake.
  std::map<std::string, std::size_t> tenant_depth;
  /// Scale factor applied to both caps for sheddable traffic, so it is
  /// refused first as pressure builds. In [0, 1].
  double sheddable_headroom = 0.5;
  /// Record every decision into the DecisionLog. The conformance harness
  /// turns this on; live serving defaults to metrics-only (the log grows
  /// with traffic).
  bool record_decisions = false;
  CostModelOptions cost;
  BrownoutOptions brownout;
};

/// Outcome of one admission check.
struct AdmissionVerdict {
  bool admitted = true;
  /// When refused: the controller's estimate of how long until the
  /// tenant's backlog drains below its cap — the client's retry hint.
  double retry_after_ms = 0.0;
  /// When refused: which cap fired ("depth" or "work").
  const char* reason = "";

  platform::Error to_error(const std::string& tenant) const;
};

/// Per-tenant bounded intake + shared brownout ladder. Thread-safe: live
/// serving calls admit() from client threads and the feedback hooks from
/// the server thread; the replay harness drives it single-threaded, so
/// log order is deterministic there.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  const AdmissionOptions& options() const { return options_; }

  /// Gate one submit. Admitting increments the tenant's tracked depth
  /// (the caller must pair it with on_collected / on_released).
  AdmissionVerdict admit(const std::string& tenant, Priority priority,
                         double now_ms);

  /// `n` admitted requests left the tenant's queue (collected into a
  /// round, or a failed enqueue was rolled back).
  void on_collected(const std::string& tenant, std::size_t n);

  /// Deadline-feasibility predictor: can a request with `slack_ms` of
  /// remaining budget survive a `cols`-column batch at current cost
  /// estimates? slack_ms <= 0 budgets are always infeasible.
  bool infeasible(double slack_ms, std::size_t cols) const;

  /// One finished serving round for `tenant`: feeds the cost model,
  /// re-evaluates system pressure, and steps the brownout ladder.
  /// `batch_ms` is the round's engine time.
  void on_round(const std::string& tenant, std::size_t cols,
                double batch_ms, double now_ms);

  /// Decision-log hooks for outcomes decided by the caller (the batcher
  /// owns dispatch/shed/timeout of queued requests).
  void record_shed(const std::string& tenant, std::size_t request,
                   Priority priority, double slack_ms, double now_ms);
  void record_timeout(const std::string& tenant, std::size_t request,
                      Priority priority, double now_ms);
  void record_dispatch(const std::string& tenant, std::size_t request,
                       Priority priority, double batch, double now_ms);

  BrownoutLevel level() const;
  /// Batch fill-timeout after the ladder's level-1 shrink.
  double effective_timeout_ms(double configured_ms) const;

  /// Intake pressure of one tenant in [0, inf): max of depth/depth-cap
  /// and estimated-backlog/work-cap.
  double pressure(const std::string& tenant) const;
  /// System pressure: max over tenants (a shared server is as loaded as
  /// its hottest lane).
  double system_pressure() const;

  std::size_t depth(const std::string& tenant) const;
  std::size_t accepted() const;
  std::size_t rejected() const;
  std::size_t shed() const;
  int brownout_escalations() const;
  int brownout_deescalations() const;

  double estimate_ms(std::size_t cols) const;

  const DecisionLog& log() const { return log_; }
  DecisionLog take_log();

 private:
  struct Tenant {
    std::size_t depth = 0;
  };

  std::size_t depth_quota_locked(const std::string& id) const;
  double pressure_locked(const std::string& id,
                         const Tenant& tenant) const;
  double system_pressure_locked() const;

  AdmissionOptions options_;
  mutable std::mutex mutex_;
  std::map<std::string, Tenant> tenants_;
  EwmaCostModel cost_;
  BrownoutLadder ladder_;
  DecisionLog log_;
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
  std::size_t shed_ = 0;
  int escalations_ = 0;
  int deescalations_ = 0;
};

}  // namespace snicit::serve
