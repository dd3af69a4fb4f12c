// Measurement-driven kernel autotuning — the empirical complement to
// XY-2021's analytic cost model. XY-2021 builds an optimization space of
// spMM kernels and *predicts* the best point; this engine instead *tries*
// every kernel arm on the first layers of the run (densities are roughly
// stationary layer to layer) and then commits to the measured winner per
// density bucket. The arm list is the library's full variant family
// (scalar / SIMD / row-parallel gather, scalar / blocked scatter);
// a forced SpmmPolicy variant skips trialling entirely. Exact engine:
// every arm computes the same result.
#pragma once

#include <array>
#include <vector>

#include "dnn/engine.hpp"
#include "sparse/spmm_policy.hpp"

namespace snicit::baselines {

struct AutotuneOptions {
  /// Layers spent trialling each kernel arm before committing (per
  /// density bucket).
  int trial_rounds = 1;
  /// Kernel policy. variant == kAuto trials the full arm list; a forced
  /// variant pins every layer to that kernel and skips the trials.
  sparse::SpmmPolicy policy = {};
};

class AutotuneEngine final : public dnn::InferenceEngine {
 public:
  explicit AutotuneEngine(AutotuneOptions options = {});

  std::string name() const override { return "autotune"; }
  dnn::RunResult run(const dnn::SparseDnn& net,
                     const dnn::DenseMatrix& input) override;
  /// Clones carry the committed kernel arms, so a pooled clone of a
  /// warmed engine skips the trial rounds.
  std::unique_ptr<dnn::InferenceEngine> clone() const override {
    return std::make_unique<AutotuneEngine>(*this);
  }

  /// Kernel variant (sparse::SpmmVariant as int) committed per density
  /// bucket after the last run (-1 while a bucket is still trialling /
  /// was never seen).
  std::array<int, 3> committed_arms() const { return committed_; }

  /// The arm list a run with this engine's options would trial, in trial
  /// order. Exposed for tests and diagnostics.
  std::vector<sparse::SpmmVariant> arm_list() const;

 private:
  AutotuneOptions options_;
  std::array<int, 3> committed_{-1, -1, -1};
};

}  // namespace snicit::baselines
