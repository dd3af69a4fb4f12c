// Tuning parameters of the SNICIT pipeline (Table 2 and §4 of the paper).
#pragma once

#include <cstdint>

#include "sparse/spmm_policy.hpp"

namespace snicit::core {

struct SnicitParams {
  /// t — index of the threshold layer where conversion happens. The paper
  /// uses 30 for SDGC benchmarks and the largest even integer <= l/2 for
  /// medium-scale DNNs.
  int threshold_layer = 30;

  /// s — number of columns sampled for centroid selection (32 for SDGC,
  /// 128 for medium-scale DNNs).
  int sample_size = 32;

  /// n — rows of the sum-downsampled sample matrix F. 0 disables
  /// downsampling (the paper skips it for medium-scale nets, §4.2.1).
  int downsample_dim = 16;

  /// η — per-element tolerance when comparing samples (Eq. 2).
  float eta = 0.03f;

  /// ε — a sample is pruned when fewer than n·ε of its elements differ
  /// from the base by more than η (Algorithm 1 line 16).
  float epsilon = 0.03f;

  /// Near-zero residue pruning threshold (§3.3.1 adjustment (1)): residue
  /// entries with |v| <= prune_threshold are zeroed to induce more empty
  /// columns. 0 keeps SNICIT numerically faithful (no accuracy loss).
  float prune_threshold = 0.0f;

  /// Layers between ne_idx rebuilds from ne_rec (§3.3.2: every layer for
  /// medium nets, every 200 layers for SDGC benchmarks).
  int ne_refresh_interval = 1;

  /// Future-work feature (paper §5): detect convergence during the
  /// pre-convergence phase and pick t dynamically. When enabled,
  /// threshold_layer acts as an upper bound.
  bool auto_threshold = false;

  /// Detector sensitivity: conversion triggers once the batch's mean
  /// nearest-neighbour column distance (see ConvergenceDetector) stays at
  /// or below this level for two consecutive layers.
  float auto_level = 0.05f;

  /// spMM kernel choice for both phases (§3.1: SNICIT does not constrain
  /// the kernel; any champion implementation can be dropped in). The
  /// default lets the cost model pick per layer from measured activation
  /// density — in the post-convergence phase that is the residue density
  /// of the non-empty columns; spmm.variant != kAuto forces one arm
  /// everywhere (the regression suites sweep arms this way).
  sparse::SpmmPolicy spmm = {};

  /// Adaptive pruning (extension of §3.3.1): when > 0, the engine derives
  /// prune_threshold from the data right after conversion — the residue
  /// |value| quantile that drops this fraction of residue entries. The
  /// derived value overrides prune_threshold for the whole run.
  double adaptive_prune_target = 0.0;

  /// Re-run cluster-based conversion every this many post-convergence
  /// layers (0 = never, the paper's choice: §3.2.2 argues fresh centroids
  /// are not worth their runtime overhead; the option exists to quantify
  /// that claim — see bench_ablation).
  int reconvert_interval = 0;

  /// Graceful degradation (robustness extension): after conversion every
  /// Eq. (5) update checks its outputs against the clipped bound — any
  /// NaN/inf/blowup (|v| > ymax, impossible in exact arithmetic) triggers
  /// an exact fallback that recomputes the remaining layers on the dense
  /// baseline path from the checkpointed Y(t). The per-layer check reuses
  /// the fabs the prune test already computes, so the clean-path cost is
  /// one compare per element.
  bool divergence_guard = true;

  /// When true the engine records per-layer diagnostics (non-empty column
  /// counts, compressed nnz) into RunResult::diagnostics / layer traces.
  bool record_trace = false;
};

}  // namespace snicit::core
