// Pieces of the traced run shared by all workloads: the replay of one
// SNICIT batch through the library's public stage functions, and the
// probes behind the per-layer metrics (observability cost, stream
// executor rounds, platform and set-up figures).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dnn/engine.hpp"
#include "snicit/convert.hpp"
#include "snicit/params.hpp"

namespace perfbench {

using snicit::dnn::DenseMatrix;
using snicit::dnn::SparseDnn;

/// What one replayed batch spent per stage call (ms) and did (counts).
struct ReplayStats {
  double wall_ms = 0.0;  // the whole replay, span recording included
  double pre_ms = 0.0;   // spmm_dispatch_fused over the pre layers
  double pre_flops = 0.0;
  double pre_bytes = 0.0;
  double sample_ms = 0.0;
  double prune_ms = 0.0;
  double convert_ms = 0.0;
  double post_spmm_ms = 0.0;   // spmm_dispatch_cols over the post layers
  double post_layer_ms = 0.0;  // post_convergence_layer (spMM + update)
  double refresh_ms = 0.0;
  double recovery_ms = 0.0;
  std::size_t post_layers = 0;
  std::size_t post_cols = 0;     // columns multiplied, summed over layers
  std::size_t active_cols = 0;   // non-empty columns after each update
  std::size_t pruned = 0;
  std::size_t centroids = 0;
  std::size_t residue_nnz = 0;
  bool fallback = false;         // the divergence guard fired
  std::map<std::string, std::size_t> arms;  // spMM variant -> calls

  /// The calls SnicitEngine::run_into also makes (the separate spMM
  /// measurement is the replay's own extra work).
  double attributed_ms() const {
    return pre_ms + sample_ms + prune_ms + convert_ms + post_layer_ms +
           refresh_ms + recovery_ms;
  }
};

/// Buffers one replay lane reuses batch after batch.
struct ReplayScratch {
  DenseMatrix ping, pong, f, scratch;
  std::vector<snicit::sparse::Index> centroids;
  snicit::core::CompressedBatch batch;
};

/// Replays SnicitEngine::run_into on `input` stage by stage, in the
/// engine's order, with a span around every call (all sharing `group`).
/// `out` receives Y(l); it must equal run_into's output bit for bit.
void replay_snicit(const SparseDnn& net, const DenseMatrix& input,
                   const snicit::core::SnicitParams& params,
                   ReplayScratch& scratch, SpanRecorder* spans,
                   std::uint64_t group, ReplayStats& stats, DenseMatrix& out);

/// Untraced run_into samples taken next to the replays.
struct EngineSamples {
  std::vector<double> run_ms;
  std::map<std::string, std::vector<double>> stage_ms;  // RunResult.stages
  std::size_t fallbacks = 0;

  void add(double ms, const snicit::dnn::RunResult& run);
};

/// sparse.* and snicit.* per-layer metrics.
void add_snicit_layer_metrics(Report& report,
                              const std::vector<ReplayStats>& replays,
                              const EngineSamples& engine,
                              std::size_t batch_cols);

/// Percent by which run_into slows when the library's own trace and
/// metrics are switched on, from `pairs` alternating on/off runs.
double observability_overhead_pct(snicit::dnn::InferenceEngine& engine,
                                  const SparseDnn& net,
                                  const std::vector<DenseMatrix>& inputs,
                                  snicit::platform::Workspace& ws,
                                  snicit::dnn::RunResult& run, int pairs);

/// stream.round_ms / stream.round_overhead_ms: ParallelStreamExecutor::run
/// over `columns` (three batches of 16 on two workers), minus the engine
/// time on the round's critical path. Each round must complete.
void add_stream_metrics(Report& report, snicit::dnn::InferenceEngine& engine,
                        const SparseDnn& net, const DenseMatrix& columns,
                        int rounds, SpanRecorder* spans);

/// platform.* and trace.overhead_pct. `steady_allocs` counts workspace
/// growth after warm-up (Workspace::global_steady_state_allocs deltas).
void add_platform_metrics(Report& report, double obs_overhead_pct,
                          double traced_ms, double untraced_ms,
                          std::size_t steady_allocs);

/// setup.* stage times.
void add_setup_metrics(Report& report, const SetupTimes& times);

}  // namespace perfbench
