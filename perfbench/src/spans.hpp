// In-memory spans for the traced run. Each span keeps its name, start,
// end, parent and the id of the batch or request it belongs to; the set
// is written out as JSON when the run ends. The harness records them from
// its own code, around its calls into the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;     // string literal
  double start_us;      // since the recorder's epoch
  double end_us;
  int parent;           // index of the enclosing span, -1 for a root
  std::uint64_t group;  // batch or request id shared by its spans
};

/// Thread-safe span store (the serving generator and the main thread both
/// record).
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  /// Microseconds from the recorder's creation to `t` (default: now).
  double us(Clock::time_point t = Clock::now()) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Records a finished span; returns its index.
  int add(const char* name, double start_us, double end_us, int parent,
          std::uint64_t group);
  /// Opens a span now; close() stamps its end.
  int open(const char* name, int parent, std::uint64_t group);
  void close(int id);

  std::size_t size() const;
  /// Self time (span minus the union of its children) summed per name, ms.
  std::map<std::string, double> self_ms_by_name() const;
  /// {"spans":[{"name":..,"start_us":..,"end_us":..,"parent":..,"group":..}]}
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int parent,
             std::uint64_t group)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, parent, group) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
