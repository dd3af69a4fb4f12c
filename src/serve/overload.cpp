#include "serve/overload.hpp"

#include <algorithm>
#include <cstdio>

#include "platform/common.hpp"
#include "platform/metrics.hpp"
#include "platform/trace.hpp"

namespace snicit::serve {

using platform::Error;
using platform::ErrorCode;

platform::Result<Priority> parse_priority(const std::string& name) {
  if (name == "sheddable") return Priority::kSheddable;
  if (name == "standard") return Priority::kStandard;
  if (name == "critical") return Priority::kCritical;
  return Error{ErrorCode::kBadInput,
               "unknown priority '" + name +
                   "' (expected sheddable|standard|critical)"};
}

// --- EwmaCostModel ---------------------------------------------------

EwmaCostModel::EwmaCostModel(CostModelOptions options)
    : options_(options), col_ms_(options.initial_col_ms) {
  SNICIT_CHECK(options_.alpha > 0.0 && options_.alpha <= 1.0,
               "cost model alpha must be in (0, 1]");
  SNICIT_CHECK(options_.initial_col_ms >= 0.0,
               "cost model prior must be non-negative");
}

void EwmaCostModel::observe(std::size_t cols, double batch_ms) {
  if (cols == 0 || !(batch_ms > 0.0)) return;
  const double per_col = batch_ms / static_cast<double>(cols);
  if (observations_ == 0) {
    col_ms_ = per_col;
  } else {
    col_ms_ += options_.alpha * (per_col - col_ms_);
  }
  observations_ += 1;
}

double EwmaCostModel::estimate_ms(std::size_t cols) const {
  return static_cast<double>(cols) * col_ms_;
}

// --- BrownoutLadder --------------------------------------------------

BrownoutLadder::BrownoutLadder(BrownoutOptions options)
    : options_(options) {
  SNICIT_CHECK(options_.exit_pressure < options_.enter_pressure,
               "brownout hysteresis requires exit_pressure < "
               "enter_pressure");
  SNICIT_CHECK(options_.enter_rounds >= 1 && options_.exit_rounds >= 1,
               "brownout dwell counts must be >= 1");
  SNICIT_CHECK(options_.max_level >= 0 && options_.max_level <= 3,
               "brownout max_level must be in [0, 3]");
  if (options_.force_level >= 0) {
    level_ = std::min(options_.force_level, options_.max_level);
  }
}

int BrownoutLadder::observe(double pressure) {
  if (options_.force_level >= 0) return 0;  // pinned (test hook)
  if (pressure >= options_.enter_pressure) {
    cool_rounds_ = 0;
    hot_rounds_ += 1;
    if (hot_rounds_ >= options_.enter_rounds &&
        level_ < options_.max_level) {
      level_ += 1;
      hot_rounds_ = 0;
      return +1;
    }
    return 0;
  }
  hot_rounds_ = 0;
  if (pressure <= options_.exit_pressure) {
    cool_rounds_ += 1;
    if (cool_rounds_ >= options_.exit_rounds && level_ > 0) {
      level_ -= 1;
      cool_rounds_ = 0;
      return -1;
    }
    return 0;
  }
  // Between the thresholds: the hysteresis band — hold the level and both
  // counters' progress is discarded so a flickering load cannot creep.
  cool_rounds_ = 0;
  return 0;
}

// --- DecisionLog -----------------------------------------------------

namespace {

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace

std::string DecisionLog::to_text() const {
  std::string out;
  out.reserve(records_.size() * 64);
  char line[192];
  for (const DecisionRecord& r : records_) {
    std::snprintf(line, sizeof(line),
                  "t=%.6f %s tenant=%s req=%llu pr=%s detail=%.6f\n",
                  r.at_ms, to_string(r.kind), r.tenant.c_str(),
                  static_cast<unsigned long long>(r.request),
                  to_string(r.priority), r.detail);
    out += line;
  }
  return out;
}

std::uint64_t DecisionLog::digest() const {
  const std::string text = to_text();
  return fnv1a(text.data(), text.size());
}

// --- AdmissionController ---------------------------------------------

platform::Error AdmissionVerdict::to_error(const std::string& tenant) const {
  char hint[96];
  std::snprintf(hint, sizeof(hint), "; retry after %.3f ms",
                retry_after_ms);
  return Error{ErrorCode::kRejectedOverload,
               "overloaded: " + std::string(reason) + " cap reached" +
                   (tenant.empty() ? std::string()
                                   : " for tenant '" + tenant + "'") +
                   hint};
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options), cost_(options.cost), ladder_(options.brownout) {
  SNICIT_CHECK(options_.sheddable_headroom >= 0.0 &&
                   options_.sheddable_headroom <= 1.0,
               "sheddable_headroom must be in [0, 1]");
}

AdmissionVerdict AdmissionController::admit(const std::string& tenant,
                                            Priority priority,
                                            double now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant& state = tenants_[tenant];

  const double headroom = priority == Priority::kSheddable
                              ? options_.sheddable_headroom
                              : 1.0;
  const double depth_cap =
      static_cast<double>(depth_quota_locked(tenant)) * headroom;
  const double work_cap = options_.max_backlog_ms * headroom;

  AdmissionVerdict verdict;
  const auto next_depth = static_cast<double>(state.depth + 1);
  if (next_depth > depth_cap) {
    verdict.admitted = false;
    verdict.reason = "depth";
    // Hint: time for the over-cap slice of the backlog to drain.
    const double over = next_depth - depth_cap;
    verdict.retry_after_ms = std::max(
        cost_.estimate_ms(static_cast<std::size_t>(std::max(over, 1.0))),
        0.001);
  } else if (options_.max_backlog_ms > 0.0 &&
             cost_.estimate_ms(state.depth + 1) > work_cap) {
    verdict.admitted = false;
    verdict.reason = "work";
    verdict.retry_after_ms =
        std::max(cost_.estimate_ms(state.depth + 1) - work_cap, 0.001);
  }

  if (verdict.admitted) {
    state.depth += 1;
    accepted_ += 1;
  } else {
    rejected_ += 1;
  }
  if (options_.record_decisions) {
    log_.append({verdict.admitted ? DecisionRecord::Kind::kAccept
                                  : DecisionRecord::Kind::kReject,
                 now_ms, tenant, accepted_ + rejected_ - 1, priority,
                 verdict.admitted ? static_cast<double>(state.depth)
                                  : verdict.retry_after_ms});
  }
  if (platform::metrics::enabled()) {
    auto& registry = platform::metrics::MetricsRegistry::global();
    registry.counter(verdict.admitted ? "serve.overload.accepted"
                                      : "serve.overload.rejected")
        .add(1);
    registry.gauge("serve.overload.pressure")
        .set(system_pressure_locked());
  }
  return verdict;
}

void AdmissionController::on_collected(const std::string& tenant,
                                       std::size_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  Tenant& state = tenants_[tenant];
  state.depth -= std::min(state.depth, n);
}

bool AdmissionController::infeasible(double slack_ms,
                                     std::size_t cols) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cost_.estimate_ms(cols) > slack_ms;
}

void AdmissionController::on_round(const std::string& tenant,
                                   std::size_t cols, double batch_ms,
                                   double now_ms) {
  int transition = 0;
  double level = 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cost_.observe(cols, batch_ms);
    const double pressure = system_pressure_locked();
    transition = ladder_.observe(pressure);
    level = static_cast<double>(static_cast<int>(ladder_.level()));
    if (transition > 0) escalations_ += 1;
    if (transition < 0) deescalations_ += 1;
    if (transition != 0 && options_.record_decisions) {
      log_.append({transition > 0 ? DecisionRecord::Kind::kBrownoutUp
                                  : DecisionRecord::Kind::kBrownoutDown,
                   now_ms, tenant, 0, Priority::kStandard, level});
    }
  }
  if (platform::metrics::enabled()) {
    auto& registry = platform::metrics::MetricsRegistry::global();
    registry.gauge("serve.overload.brownout_level").set(level);
    registry.gauge("serve.overload.pressure").set(system_pressure());
    if (transition != 0) {
      SNICIT_TRACE_SPAN("serve.overload.brownout", "serve");
      registry
          .counter(transition > 0 ? "serve.overload.brownout_ups"
                                  : "serve.overload.brownout_downs")
          .add(1);
    }
  }
}

void AdmissionController::record_shed(const std::string& tenant,
                                      std::size_t request,
                                      Priority priority, double slack_ms,
                                      double now_ms) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shed_ += 1;
    if (options_.record_decisions) {
      log_.append({DecisionRecord::Kind::kShed, now_ms, tenant, request,
                   priority, slack_ms});
    }
  }
  if (platform::metrics::enabled()) {
    platform::metrics::MetricsRegistry::global()
        .counter("serve.overload.shed")
        .add(1);
  }
}

void AdmissionController::record_timeout(const std::string& tenant,
                                         std::size_t request,
                                         Priority priority,
                                         double now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.record_decisions) {
    log_.append(
        {DecisionRecord::Kind::kTimeout, now_ms, tenant, request, priority,
         0.0});
  }
}

void AdmissionController::record_dispatch(const std::string& tenant,
                                          std::size_t request,
                                          Priority priority, double batch,
                                          double now_ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.record_decisions) {
    log_.append({DecisionRecord::Kind::kDispatch, now_ms, tenant, request,
                 priority, batch});
  }
}

BrownoutLevel AdmissionController::level() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ladder_.level();
}

double AdmissionController::effective_timeout_ms(
    double configured_ms) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<int>(ladder_.level()) >=
      static_cast<int>(BrownoutLevel::kTightTimeout)) {
    return configured_ms * options_.brownout.timeout_shrink;
  }
  return configured_ms;
}

std::size_t AdmissionController::depth_quota_locked(
    const std::string& id) const {
  auto it = options_.tenant_depth.find(id);
  return it == options_.tenant_depth.end() ? options_.max_queue_depth
                                           : it->second;
}

double AdmissionController::pressure_locked(const std::string& id,
                                            const Tenant& tenant) const {
  const std::size_t quota = depth_quota_locked(id);
  double pressure = 0.0;
  if (quota > 0) {
    pressure = static_cast<double>(tenant.depth) /
               static_cast<double>(quota);
  } else if (tenant.depth > 0) {
    pressure = 1.0;
  }
  if (options_.max_backlog_ms > 0.0) {
    pressure = std::max(pressure, cost_.estimate_ms(tenant.depth) /
                                      options_.max_backlog_ms);
  }
  return pressure;
}

double AdmissionController::system_pressure_locked() const {
  double pressure = 0.0;
  for (const auto& [id, tenant] : tenants_) {
    pressure = std::max(pressure, pressure_locked(id, tenant));
  }
  return pressure;
}

double AdmissionController::pressure(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0.0
                              : pressure_locked(tenant, it->second);
}

double AdmissionController::system_pressure() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return system_pressure_locked();
}

std::size_t AdmissionController::depth(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.depth;
}

std::size_t AdmissionController::accepted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepted_;
}

std::size_t AdmissionController::rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

std::size_t AdmissionController::shed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_;
}

int AdmissionController::brownout_escalations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return escalations_;
}

int AdmissionController::brownout_deescalations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deescalations_;
}

double AdmissionController::estimate_ms(std::size_t cols) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cost_.estimate_ms(cols);
}

DecisionLog AdmissionController::take_log() {
  std::lock_guard<std::mutex> lock(mutex_);
  DecisionLog out = std::move(log_);
  log_.clear();
  return out;
}

}  // namespace snicit::serve
