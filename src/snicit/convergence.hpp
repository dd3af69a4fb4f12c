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

/// Detector level SnicitParams::auto_threshold runs at.
inline constexpr float kConvergenceLevel = 0.05f;

class ConvergenceDetector {
 public:
  /// `level` — convergence fires when the mean nearest-neighbour distance
  /// (fraction of probed rows differing by more than `eta`) stays at or
  /// below this for two consecutive layers.
  explicit ConvergenceDetector(float level = kConvergenceLevel,
                               float eta = 0.03f,
                               std::size_t probe_columns = 24,
                               std::size_t probe_rows = 256);

  /// Feeds the activations after one layer; returns true once clustered
  /// for two consecutive layers.
  bool observe(const DenseMatrix& y);

  bool converged() const { return hits_ >= 2; }

  /// Mean nearest-neighbour distance at the last observation (1.0 before
  /// any observation).
  double last_distance() const { return last_distance_; }

  void reset();

 private:
  float level_;
  float eta_;
  std::size_t probe_columns_;
  std::size_t probe_rows_;
  int hits_ = 0;
  double last_distance_ = 1.0;
};

}  // namespace snicit::core
