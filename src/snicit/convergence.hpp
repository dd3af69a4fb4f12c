// Dynamic threshold detection — the data-driven choice of t the paper
// lists as future work (§5). Convergence in SNICIT's sense is *batch
// clustering*: columns of Y become near-duplicates of each other
// (Figure 1), even though their common values keep changing from layer to
// layer (each layer has different weights). The detector therefore probes
// a fixed subset of columns each layer and measures how close each probe
// column is to its nearest probe neighbour; once that mean nearest-
// neighbour distance stays below a level for two consecutive layers, the
// batch has clustered and conversion can start.
#pragma once

#include <cstddef>
#include <vector>

#include "sparse/dense_matrix.hpp"

namespace snicit::core {

using sparse::DenseMatrix;

/// Convergence fires when the mean nearest-neighbour distance (fraction
/// of probed rows differing by more than eta) stays at or below this
/// level for two consecutive layers.
inline constexpr float kConvergenceLevel = 0.05f;
/// Columns and rows the detector probes per layer (fewer on smaller
/// batches: the probe is clamped to the matrix).
inline constexpr std::size_t kConvergenceProbeColumns = 24;
inline constexpr std::size_t kConvergenceProbeRows = 256;

class ConvergenceDetector {
 public:
  /// `eta` — two probed values differ when they are more than eta apart.
  explicit ConvergenceDetector(float eta = 0.03f);

  /// Feeds the activations after one layer; returns true once clustered
  /// for two consecutive layers.
  bool observe(const DenseMatrix& y);

  bool converged() const { return hits_ >= 2; }

  /// Mean nearest-neighbour distance at the last observation (1.0 before
  /// any observation).
  double last_distance() const { return last_distance_; }

  void reset();

 private:
  float eta_;
  int hits_ = 0;
  double last_distance_ = 1.0;
};

}  // namespace snicit::core
