// Warm-started conversion: reuse centroids discovered on an earlier batch
// for later batches of the same workload.
//
// The paper's related work (§2.2.2, [25][28]) caches historical
// intermediate results to shortcut repeated queries; SNICIT itself
// re-derives centroids per batch. This extension combines the two: the
// first batch pays for sampling + pruning, and every following batch maps
// its columns straight onto the cached centroid columns — conversion
// drops to a single nearest-centroid pass, and cross-batch results stay
// consistent because all batches share one set of class representatives.
//
// The engine is SnicitEngine's stage loop with its conversion swapped:
// the cold run converts as usual and copies the chosen centroid columns
// out of the Y(t) it already holds; every warm run appends the cached
// centroids to Y(t) as k extra batch columns (they must exist in Ŷ for
// the Eq. (5) updates), and recovery returns only the caller's columns.
// The divergence guard, spans, metrics and workspace arena therefore
// apply unchanged, and a warm run_into is allocation-free.
#pragma once

#include <string>

#include "dnn/engine.hpp"
#include "platform/error.hpp"
#include "snicit/engine.hpp"
#include "snicit/params.hpp"

namespace snicit::core {

/// Centroid columns captured at the threshold layer of some batch.
struct CentroidCache {
  DenseMatrix columns;  // neurons x k snapshot of Y(t) centroid columns

  std::size_t size() const { return columns.cols(); }
  bool empty() const { return columns.cols() == 0; }
};

/// A SNICIT engine that establishes the centroid cache on its first run
/// and reuses it on every subsequent run (call reset() to invalidate,
/// e.g. on distribution shift). Per-run parameters follow SnicitParams;
/// auto_threshold is not supported (the cache pins t). A run with no
/// conversion (t >= l), or whose conversion the divergence guard rejects,
/// leaves the engine unwarmed.
class WarmSnicitEngine final : public dnn::InferenceEngine {
 public:
  explicit WarmSnicitEngine(SnicitParams params);

  std::string name() const override { return "SNICIT-warm"; }
  dnn::RunResult run(const dnn::SparseDnn& net,
                     const dnn::DenseMatrix& input) override;
  void run_into(const dnn::SparseDnn& net, const dnn::DenseMatrix& input,
                platform::Workspace& ws, dnn::RunResult& result) override;

  /// Clones copy the centroid cache: cloning a warmed engine yields a
  /// pool whose members all map batches onto the *same* representatives,
  /// so pooled serving stays bit-identical to serial serving.
  std::unique_ptr<dnn::InferenceEngine> clone() const override {
    return std::make_unique<WarmSnicitEngine>(*this);
  }

  bool warmed() const { return !cache_.empty(); }
  void reset() { cache_ = {}; }
  const CentroidCache& cache() const { return cache_; }

  /// Persists the centroid cache (versioned, checksummed — see
  /// snicit/snapshot.hpp) so a restarted server warm-starts instead of
  /// paying the cold batch. kBadInput when not warmed;
  /// kResourceExhausted on IO failure or an injected alloc_fail.
  platform::Result<void> save_state(const std::string& path) const;

  /// Restores a cache saved by save_state. Validation is strict and
  /// *typed* — wrong threshold layer, wrong neuron count (when
  /// `expected_neurons` is non-zero), corrupt/stale/truncated file — all
  /// return kBadModelFile so the caller cold-starts; a bad snapshot can
  /// never abort the process or poison served outputs. On success the
  /// engine behaves exactly as if it had been warmed by the saving run.
  platform::Result<void> restore_state(const std::string& path,
                                       std::size_t expected_neurons = 0);

 private:
  SnicitEngine engine_;  // owns the params and the stage loop
  CentroidCache cache_;  // empty until a run converts (or a restore)
};

}  // namespace snicit::core
