// XY-2021 (Xin et al.), SDGC 2021 champion: generalizes the spMM kernel
// into a parameterized optimization space and picks the best variant with
// a cost model. This port exposes the library's kernel family (scalar and
// blocked gather / scatter) as the space and selects per layer from a
// measured activation-density estimate, mirroring the original's flexible
// SpMM optimisation-space exploration. Exact engine.
#pragma once

#include "dnn/engine.hpp"
#include "sparse/spmm_policy.hpp"

namespace snicit::baselines {

struct Xy2021Options {
  /// Columns sampled when estimating activation density per layer.
  std::size_t density_probe_columns = 16;
  /// Kernel-space policy: kAuto explores the library's full optimisation
  /// space (scalar/SIMD/threaded gather, scalar/blocked scatter) with the
  /// analytic cost model in sparse/spmm_policy.hpp; a forced variant pins
  /// one arm.
  sparse::SpmmPolicy policy = {};
  /// Use the regular ELLPACK layout for the dense arm when the weights
  /// have (near-)uniform fan-in — the champions' preferred layout on the
  /// fixed-32-fan-in SDGC nets.
  bool prefer_ell = true;
  double max_ell_padding = 0.10;
};

class Xy2021Engine final : public dnn::InferenceEngine {
 public:
  explicit Xy2021Engine(Xy2021Options options = {});

  std::string name() const override { return "XY-2021"; }
  dnn::RunResult run(const dnn::SparseDnn& net,
                     const dnn::DenseMatrix& input) override;
  void run_into(const dnn::SparseDnn& net, const dnn::DenseMatrix& input,
                platform::Workspace& ws, dnn::RunResult& result) override;
  std::unique_ptr<dnn::InferenceEngine> clone() const override {
    return std::make_unique<Xy2021Engine>(*this);
  }

 private:
  Xy2021Options options_;
  platform::Workspace ws_;  // scratch behind the plain run() entry point
};

}  // namespace snicit::baselines
