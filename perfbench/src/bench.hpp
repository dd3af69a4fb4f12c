// Types shared by the benchmark program: the run configuration, the
// result every workload fills in, and the workload entry points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Untraced runs set up this many times and report the median set-up.
inline constexpr int kSetupRepeats = 3;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  SpanRecorder* spans = nullptr;  // set in the traced run only
};

/// One reported number. A per-layer metric names the end-to-end metric it
/// should move, and the traced run prints the two side by side.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string moves;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// End-to-end metrics in an untraced run, per-layer ones in a traced run.
  std::vector<Metric> metrics;
  /// End-to-end numbers a traced run measures alongside its per-layer
  /// ones; printed for reference, never part of the result line.
  std::vector<Metric> context;

  void add(std::string name, double value, std::string unit,
           std::string moves = {}) {
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(moves)});
  }
  /// Counts one checked operation; a failed check is a failed operation.
  void check(bool ok, const std::string& what);
};

/// Set-up stage times, seconds.
struct SetupTimes {
  double net_s = 0.0;        // radixnet generation, or training on medium
  double mirrors_s = 0.0;    // CSC/ELL weight mirrors
  double inputs_s = 0.0;     // seeded input batches
  double reference_s = 0.0;  // exact reference outputs
  double warmup_s = 0.0;     // first engine runs (workspaces, pools)
};

void run_sdgc(const RunConfig& cfg, Report& report);
void run_medium(const RunConfig& cfg, Report& report);

}  // namespace perfbench
