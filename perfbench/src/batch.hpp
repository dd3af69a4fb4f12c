// The closed loop shared by `sdgc` and `medium`: one client runs SNICIT
// batches back to back through SnicitEngine::run_into, then baseline
// batches on the same inputs, on one core, and checks every output.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dnn/engine.hpp"
#include "snicit/params.hpp"

namespace perfbench {

using snicit::dnn::DenseMatrix;

struct BatchWorkload {
  snicit::dnn::SparseDnn net;
  std::vector<DenseMatrix> inputs;     // cycled batch after batch
  std::vector<DenseMatrix> reference;  // exact output of each input
  snicit::core::SnicitParams params;
  std::string baseline_name;
  std::function<std::unique_ptr<snicit::dnn::InferenceEngine>()> make_baseline;
  /// SNICIT is checked against its own set-up output bit for bit, batch
  /// after batch. That set-up output is held to the exact reference by
  /// accuracy loss within `max_accuracy_loss_pp` when `accuracy` is set
  /// (pruning changes outputs), else by equal SDGC categories and an
  /// element error of at most `max_abs_diff` (float reassociation in
  /// Eq. 5 and 6 moves the last bits).
  std::function<double(const DenseMatrix&)> accuracy;  // of an output
  double exact_accuracy = 0.0;
  double max_accuracy_loss_pp = 0.0;
  float max_abs_diff = 1e-3f;
  double serve_probe_rps = 500.0;  // serving probe rate in the traced run
  SetupTimes times;
};

/// Sets up `build(seed)` (three times, reporting the median set-up time,
/// in an untraced run), then runs the timed closed loop or, with
/// cfg.trace, the traced replay.
void run_batch_workload(
    const std::function<BatchWorkload(std::uint64_t)>& build,
    const RunConfig& cfg, Report& report);

}  // namespace perfbench
