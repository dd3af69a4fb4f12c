// The SNICIT inference engine: orchestrates the four pipeline stages of
// Figure 2 — pre-convergence spMM, cluster-based conversion,
// post-convergence update, final results recovery — and reports the
// per-stage breakdown the paper's Figures 7/10 analyse. Its stage loop is
// the only one: WarmSnicitEngine (snicit/warm_cache.hpp) drives the same
// loop with a cached-centroid conversion.
#pragma once

#include <vector>

#include "dnn/engine.hpp"
#include "snicit/convert.hpp"
#include "snicit/params.hpp"

namespace snicit::core {

class SnicitEngine final : public dnn::InferenceEngine {
 public:
  explicit SnicitEngine(SnicitParams params = {});

  std::string name() const override { return "SNICIT"; }
  const SnicitParams& params() const { return params_; }

  dnn::RunResult run(const dnn::SparseDnn& net,
                     const dnn::DenseMatrix& input) override;
  void run_into(const dnn::SparseDnn& net, const dnn::DenseMatrix& input,
                platform::Workspace& ws, dnn::RunResult& result) override;

  /// Clones are fully independent: each owns its params and per-run
  /// Trace, so pooled instances never race on diagnostics.
  std::unique_ptr<dnn::InferenceEngine> clone() const override {
    return std::make_unique<SnicitEngine>(*this);
  }

  /// Per-run diagnostics recorded when params.record_trace is set.
  struct Trace {
    int threshold_layer = -1;           // t actually used (auto mode may
                                        // pick earlier than the bound)
    std::size_t centroid_count = 0;     // |y*|
    std::vector<std::size_t> ne_count;  // non-empty columns per post-layer
    std::vector<std::size_t> compressed_nnz;  // nnz(Ŷ) per post-layer
    std::vector<double> change_fraction;      // detector distance trace,
                                              // per pre-convergence layer
    /// Layer at which the divergence guard fired and the run degraded to
    /// the dense baseline path (-1 = stayed on the compressed path).
    int fallback_layer = -1;
  };
  const Trace& last_trace() const { return trace_; }

 private:
  friend class WarmSnicitEngine;

  /// The stage loop behind run_into. Conversion is its one variation
  /// point, set by `centroids`:
  ///  - null: Algorithm 1 on Y(t);
  ///  - empty: the same, and the centroid columns it chose are copied out
  ///    of Y(t) into `*centroids` (left empty when no conversion runs,
  ///    t >= l, or when the divergence guard rejects the converted batch);
  ///  - k columns: they join Y(t) as batch columns [B, B+k) and are the
  ///    centroids; recovery returns only columns [0, B).
  void run_stages(const dnn::SparseDnn& net, const dnn::DenseMatrix& input,
                  platform::Workspace& ws, dnn::RunResult& result,
                  dnn::DenseMatrix* centroids);

  SnicitParams params_;
  Trace trace_;
  platform::Workspace ws_;  // scratch behind the plain run() entry point
};

}  // namespace snicit::core
