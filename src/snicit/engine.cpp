#include "snicit/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "platform/common.hpp"
#include "platform/error.hpp"
#include "platform/metrics.hpp"
#include "platform/timer.hpp"
#include "platform/trace.hpp"
#include "snicit/convergence.hpp"
#include "snicit/postconv.hpp"
#include "snicit/recovery.hpp"
#include "snicit/sample_prune.hpp"
#include "snicit/sampling.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_policy.hpp"

namespace snicit::core {

namespace {

// Stage/diagnostic names longer than the small-string buffer, interned
// once so the hot path never builds a heap-allocated temporary key.
const std::string kStagePostConvergence = "post-convergence";
const std::string kDiagConversionResidueNnz = "conversion_residue_nnz";
const std::string kDiagFinalNeColumns = "final_ne_columns";

/// Activation density over a fixed 16-column probe prefix (inputs are
/// shuffled, so a prefix is an unbiased sample) — the cost-model input.
double probe_density(const dnn::DenseMatrix& y) {
  sparse::Index probe[16];
  const std::size_t n = std::min<std::size_t>(y.cols(), 16);
  for (std::size_t j = 0; j < n; ++j) {
    probe[j] = static_cast<sparse::Index>(j);
  }
  return sparse::estimate_column_density(
      y, std::span<const sparse::Index>(probe, n));
}

sparse::SpmmVariant pre_convergence_step(const dnn::SparseDnn& net,
                                         std::size_t layer,
                                         const sparse::SpmmPolicy& policy,
                                         const dnn::DenseMatrix& in,
                                         dnn::DenseMatrix& out) {
  // Bias + clipped ReLU fused into the kernel's store (bit-identical to
  // the split multiply + epilogue pass, applied per element after its
  // accumulation completes).
  const sparse::BiasAct epi{net.bias(layer), 0.0f, net.ymax()};
  return sparse::spmm_dispatch_fused(net.weight(layer),
                                     &net.weight_csc(layer), in, out,
                                     probe_density(in), epi, policy);
}

std::size_t count_non_empty(const std::vector<std::uint8_t>& ne_rec) {
  std::size_t n = 0;
  for (std::uint8_t flag : ne_rec) n += flag;
  return n;
}

/// One-time sanity scan of a freshly converted batch: residues are
/// differences of clipped values and centroids are clipped values, so
/// every entry satisfies |v| <= ymax; NaN fails the comparison. Scans all
/// columns (not just ne_idx) because a corrupt entry in a column the
/// load-reduced spMM skips would otherwise surface only at recovery.
bool batch_within_bounds(const CompressedBatch& batch, float ymax) {
  const std::size_t n = batch.yhat.rows();
  for (std::size_t j = 0; j < batch.yhat.cols(); ++j) {
    const float* col = batch.yhat.col(j);
    for (std::size_t r = 0; r < n; ++r) {
      if (!(std::fabs(col[r]) <= ymax)) return false;
    }
  }
  return true;
}

}  // namespace

SnicitEngine::SnicitEngine(SnicitParams params) : params_(params) {
  // Params come from callers/CLI flags the process does not control, so
  // violations are typed kBadInput errors, not invariant aborts.
  const auto reject = [](const char* message) {
    throw platform::ErrorException(platform::ErrorCode::kBadInput,
                                   std::string("SnicitEngine: ") + message);
  };
  if (params_.sample_size < 1) reject("sample_size must be >= 1");
  if (params_.ne_refresh_interval < 1) {
    reject("ne_refresh_interval must be >= 1");
  }
  if (!(params_.prune_threshold >= 0.0f)) {
    reject("prune_threshold must be non-negative");
  }
  if (params_.reconvert_interval < 0) {
    reject("reconvert_interval must be non-negative");
  }
}

dnn::RunResult SnicitEngine::run(const dnn::SparseDnn& net,
                                 const dnn::DenseMatrix& input) {
  dnn::RunResult result;
  run_into(net, input, ws_, result);
  return result;
}

void SnicitEngine::run_into(const dnn::SparseDnn& net,
                            const dnn::DenseMatrix& input,
                            platform::Workspace& ws,
                            dnn::RunResult& result) {
  run_stages(net, input, ws, result, nullptr);
}

void SnicitEngine::run_stages(const dnn::SparseDnn& net,
                              const dnn::DenseMatrix& input,
                              platform::Workspace& ws,
                              dnn::RunResult& result,
                              dnn::DenseMatrix* centroids) {
  SNICIT_TRACE_SPAN("snicit.run", "engine");
  const auto layers = net.num_layers();
  const int t_bound = std::clamp<int>(params_.threshold_layer, 0,
                                      static_cast<int>(layers));

  // Model preparation (format mirrors) happens before the clock starts,
  // like the paper's device-side model upload. The CSC mirror is always
  // built: the auto-selecting kernel policy may pick a scatter arm on any
  // layer once activations go sparse.
  net.ensure_csc();

  result.begin_run();
  const std::size_t rows = input.rows();
  const std::size_t batch_cols = input.cols();
  result.layer_ms.reserve(layers);
  // Reset the trace in place: its vectors keep their capacity across runs.
  trace_.threshold_layer = -1;
  trace_.centroid_count = 0;
  trace_.ne_count.clear();
  trace_.compressed_nnz.clear();
  trace_.change_fraction.clear();
  trace_.fallback_layer = -1;

  // Per-layer workload instruments (§4's Figs. 6-8 are plots of exactly
  // these). Looked up once per run; null when metrics are off so the
  // per-layer hot path pays a single branch.
  namespace metrics = platform::metrics;
  metrics::Series* active_series = nullptr;
  metrics::Series* nnz_series = nullptr;
  metrics::Series* pruned_series = nullptr;
  metrics::Series* spmm_cols_series = nullptr;
  metrics::Counter* pruned_counter = nullptr;
  if (metrics::enabled()) {
    auto& registry = metrics::MetricsRegistry::global();
    active_series = &registry.series("snicit.active_columns");
    nnz_series = &registry.series("snicit.compressed_nnz");
    pruned_series = &registry.series("snicit.pruned_residues");
    spmm_cols_series = &registry.series("snicit.spmm_columns");
    pruned_counter = &registry.counter("snicit.pruned_residues_total");
  }

  // --- Stage 1: pre-convergence sparse matrix multiplication (§3.1) ---
  std::optional<platform::trace::TraceSpan> stage_span;
  stage_span.emplace("pre-convergence", "snicit");
  platform::Stopwatch stage;
  auto& ping = ws.mat(platform::Workspace::kPing, rows, batch_cols,
                      sparse::ZeroFill::kNo);
  std::copy_n(input.data(), rows * batch_cols, ping.data());
  auto& pong = ws.mat(platform::Workspace::kPong, rows, batch_cols,
                      sparse::ZeroFill::kNo);
  dnn::DenseMatrix* cur = &ping;
  dnn::DenseMatrix* nxt = &pong;
  ConvergenceDetector detector(params_.eta);
  int t = t_bound;
  for (int i = 0; i < t_bound; ++i) {
    SNICIT_TRACE_SPAN("pre_layer", "snicit");
    platform::Stopwatch layer;
    pre_convergence_step(net, static_cast<std::size_t>(i), params_.spmm,
                         *cur, *nxt);
    std::swap(cur, nxt);
    result.layer_ms.push_back(layer.elapsed_ms());
    if (active_series != nullptr) {
      // Pre-convergence carries the batch dense: every column is active
      // and every column is multiplied.
      const auto idx = static_cast<std::size_t>(i);
      active_series->record(idx, static_cast<double>(cur->cols()));
      spmm_cols_series->record(idx, static_cast<double>(cur->cols()));
      nnz_series->record(idx, static_cast<double>(cur->count_nonzeros()));
      pruned_series->record(idx, 0.0);
    }
    if (params_.auto_threshold) {
      const bool done = detector.observe(*cur);
      if (params_.record_trace) {
        trace_.change_fraction.push_back(detector.last_distance());
      }
      if (done) {
        t = i + 1;  // converged: stop pre-convergence early
        break;
      }
    }
  }
  result.stages.add("pre-convergence", stage.elapsed_ms());

  stage_span.reset();

  if (static_cast<std::size_t>(t) >= layers) {
    // No post-convergence layers remain: t is clamped to [0, layers], so
    // t == layers here and the feed-forward is already complete — nothing
    // to compress (the t = l corner of the Figure 8 sweep).
    result.stages.add("conversion", 0.0);
    result.stages.add(kStagePostConvergence, 0.0);
    result.stages.add("recovery", 0.0);
    result.output.reset(rows, batch_cols, sparse::ZeroFill::kNo);
    std::copy_n(cur->data(), rows * batch_cols, result.output.data());
    trace_.threshold_layer = t;
    result.diagnostics["threshold_layer"] = t;
    result.diagnostics["centroids"] = 0.0;
    result.diagnostics.erase("fallback_layer");
    if (metrics::enabled()) {
      auto& registry = metrics::MetricsRegistry::global();
      registry.gauge("snicit.threshold_layer").set(t);
      registry.gauge("snicit.centroids").set(0.0);
    }
    ws.mark_warm();
    return;
  }

  // --- Stage 2: cluster-based conversion (§3.2) ---
  stage_span.emplace("conversion", "snicit");
  stage.reset();
  // The spMM target of stage 3. A cached conversion carries its k
  // centroids as extra batch columns, so the compressed batch is that
  // much wider than the caller's.
  const std::size_t k = centroids != nullptr ? centroids->cols() : 0;
  const std::size_t width = batch_cols + k;
  auto& scratch = ws.mat(platform::Workspace::kScratch, rows, width,
                         sparse::ZeroFill::kNo);
  auto& centroid_cols = ws.vec(platform::Workspace::kAux);
  CompressedBatch& batch = ws.state<CompressedBatch>();
  if (k == 0) {
    auto& f = ws.mat(platform::Workspace::kSample);
    build_sample_matrix_into(*cur, params_.sample_size,
                             params_.downsample_dim, f);
    prune_samples_into(f, params_.eta, params_.epsilon, centroid_cols);
    convert_into(*cur, centroid_cols, params_.prune_threshold, batch);
  } else {
    // Cached conversion: Y(t) followed by the cached centroids as batch
    // columns [B, B+k), staged in the spMM target, which nothing reads
    // before the first post-convergence multiply overwrites it.
    SNICIT_CHECK(centroids->rows() == rows,
                 "cache dimensionality mismatch");
    std::copy_n(cur->data(), rows * batch_cols, scratch.data());
    std::copy_n(centroids->data(), rows * k, scratch.col(batch_cols));
    centroid_cols.clear();
    for (std::size_t j = batch_cols; j < width; ++j) {
      centroid_cols.push_back(static_cast<sparse::Index>(j));
    }
    convert_into(scratch, centroid_cols, params_.prune_threshold, batch);
  }
  result.stages.add("conversion", stage.elapsed_ms());
  stage_span.reset();
  trace_.threshold_layer = t;
  trace_.centroid_count = centroid_cols.size();
  // Residue mass right after conversion: nonzeros across the non-centroid
  // columns of Ŷ. This is the quantity intra-batch similarity shrinks —
  // look-alike columns land near their centroid, so batch packing quality
  // shows up here before it shows up in layer timings.
  std::size_t residue_nnz = 0;
  for (std::size_t j = 0; j < batch.batch(); ++j) {
    if (!batch.is_centroid(j)) residue_nnz += batch.yhat.column_nonzeros(j);
  }
  result.diagnostics[kDiagConversionResidueNnz] =
      static_cast<double>(residue_nnz);
  if (metrics::enabled()) {
    auto& registry = metrics::MetricsRegistry::global();
    registry.gauge("snicit.threshold_layer").set(t);
    registry.gauge("snicit.centroids")
        .set(static_cast<double>(centroid_cols.size()));
    registry.gauge("snicit.conversion_residue_nnz")
        .set(static_cast<double>(residue_nnz));
  }

  // --- Stage 3: post-convergence update (§3.3) ---
  // `*cur` still holds the dense Y(t) the batch was converted from;
  // nothing below writes it, so it doubles as the divergence-guard
  // checkpoint: a fallback recomputes layers t..l-1 from it on the dense
  // baseline path, bit-identical to the serial reference.
  stage_span.emplace("post-convergence", "snicit");
  stage.reset();
  // `scratch` is the spMM target: the update kernel only reads the columns
  // listed in ne_idx (plus their centroid columns, which are always
  // non-empty), and the load-reduced spMM writes exactly those columns
  // first — so the buffer never needs zeroing.
  int since_refresh = 0;
  int since_reconvert = 0;
  int fallback_from = -1;  // layer where the divergence guard fired
  if (params_.divergence_guard && !batch_within_bounds(batch, net.ymax())) {
    // Conversion itself produced a corrupt compressed batch.
    fallback_from = t;
  } else if (k == 0 && centroids != nullptr) {
    // A clean fresh conversion fills the empty centroid cache from the
    // Y(t) that `*cur` holds; a corrupt one leaves it empty, so no later
    // batch converts against bad centroids.
    centroids->reset(rows, centroid_cols.size(), sparse::ZeroFill::kNo);
    for (std::size_t c = 0; c < centroid_cols.size(); ++c) {
      std::copy_n(cur->col(static_cast<std::size_t>(centroid_cols[c])),
                  rows, centroids->col(c));
    }
  }
  for (std::size_t i = static_cast<std::size_t>(t);
       fallback_from < 0 && i < layers; ++i) {
    platform::Stopwatch layer;
    const std::size_t spmm_columns = batch.ne_idx.size();
    bool diverged = false;
    // The update math stays split by design: Eq. (5) needs the *raw*
    // multiply of the centroid column twice (with and without the
    // residue), so the bias/clip cannot be folded into the spMM store.
    const std::size_t pruned = post_convergence_layer(
        net.weight(i), &net.weight_csc(i), net.bias(i), net.ymax(),
        params_.prune_threshold, batch, scratch, params_.spmm,
        params_.divergence_guard ? &diverged : nullptr);
    if (diverged) {
      fallback_from = static_cast<int>(i);
      break;
    }
    if (active_series != nullptr) {
      active_series->record(i, static_cast<double>(
                                   count_non_empty(batch.ne_rec)));
      spmm_cols_series->record(i, static_cast<double>(spmm_columns));
      nnz_series->record(i,
                         static_cast<double>(batch.yhat.count_nonzeros()));
      pruned_series->record(i, static_cast<double>(pruned));
      pruned_counter->add(static_cast<std::int64_t>(pruned));
    }
    if (++since_refresh >= params_.ne_refresh_interval) {
      batch.refresh_ne_idx();
      since_refresh = 0;
    }
    if (params_.reconvert_interval > 0 &&
        ++since_reconvert >= params_.reconvert_interval &&
        i + 1 < layers) {
      // Optional re-clustering (§3.2.2 discusses and rejects this):
      // recover the dense batch, pick fresh centroids, convert again.
      // Off by default, so this arm keeps the simpler value-returning
      // calls (it allocates per reconversion).
      const dnn::DenseMatrix dense = recover_results(batch);
      const dnn::DenseMatrix fr = build_sample_matrix(
          dense, params_.sample_size, params_.downsample_dim);
      prune_samples_into(fr, params_.eta, params_.epsilon, centroid_cols);
      convert_into(dense, centroid_cols, params_.prune_threshold, batch);
      since_reconvert = 0;
      since_refresh = 0;
    }
    result.layer_ms.push_back(layer.elapsed_ms());
    if (params_.record_trace) {
      trace_.ne_count.push_back(batch.ne_idx.size());
      trace_.compressed_nnz.push_back(batch.yhat.count_nonzeros());
    }
  }
  result.stages.add(kStagePostConvergence, stage.elapsed_ms());
  stage_span.reset();

  if (fallback_from >= 0) {
    // --- Graceful degradation: exact dense fallback ---
    // The compressed state is corrupt (NaN/inf/out-of-bound, e.g. from a
    // faulty kernel); discard it and recompute layers t..l-1 from the
    // checkpointed Y(t) on the dense baseline path. The result is
    // bit-identical to the serial reference — slower, never wrong.
    stage_span.emplace("fallback", "snicit");
    stage.reset();
    result.layer_ms.resize(static_cast<std::size_t>(t));
    trace_.ne_count.clear();
    trace_.compressed_nnz.clear();
    for (std::size_t i = static_cast<std::size_t>(t); i < layers; ++i) {
      platform::Stopwatch layer;
      // The last layer writes straight into the caller's result.
      dnn::DenseMatrix* dst = nxt;
      if (i + 1 == layers) {
        result.output.reset(rows, batch_cols, sparse::ZeroFill::kNo);
        dst = &result.output;
      }
      pre_convergence_step(net, i, params_.spmm, *cur, *dst);
      if (i + 1 < layers) std::swap(cur, nxt);
      result.layer_ms.push_back(layer.elapsed_ms());
      if (active_series != nullptr) {
        // Dense again: every column active and multiplied.
        active_series->record(i, static_cast<double>(dst->cols()));
        spmm_cols_series->record(i, static_cast<double>(dst->cols()));
        nnz_series->record(i, static_cast<double>(dst->count_nonzeros()));
        pruned_series->record(i, 0.0);
      }
    }
    result.stages.add("fallback", stage.elapsed_ms());
    stage_span.reset();
    result.stages.add("recovery", 0.0);  // output is already dense
    trace_.fallback_layer = fallback_from;
    result.fallback_layer = fallback_from;
    result.diagnostics["threshold_layer"] = t;
    result.diagnostics["centroids"] =
        static_cast<double>(centroid_cols.size());
    result.diagnostics["fallback_layer"] = fallback_from;
    result.diagnostics["prune_threshold"] =
        static_cast<double>(params_.prune_threshold);
    if (metrics::enabled()) {
      auto& registry = metrics::MetricsRegistry::global();
      registry.counter("snicit.fallbacks").add(1);
      registry.gauge("snicit.fallback_layer").set(fallback_from);
    }
    ws.mark_warm();
    return;
  }

  // --- Stage 4: final results recovery (§3.4) ---
  stage_span.emplace("recovery", "snicit");
  stage.reset();
  recover_into(batch, batch_cols, result.output);
  result.stages.add("recovery", stage.elapsed_ms());
  stage_span.reset();

  result.diagnostics["threshold_layer"] = t;
  result.diagnostics["centroids"] =
      static_cast<double>(centroid_cols.size());
  result.diagnostics[kDiagFinalNeColumns] =
      static_cast<double>(batch.ne_idx.size());
  result.diagnostics["prune_threshold"] =
      static_cast<double>(params_.prune_threshold);
  // A reused result may carry the verdict of an earlier degraded run;
  // absence of this key is what "clean run" means to callers. The key is
  // within the small-string buffer, so the lookup never allocates.
  result.diagnostics.erase("fallback_layer");
  ws.mark_warm();
}

}  // namespace snicit::core
