#include "snicit/warm_cache.hpp"

#include <algorithm>
#include <cmath>

#include "platform/common.hpp"
#include "platform/thread_pool.hpp"
#include "dnn/reference.hpp"
#include "platform/timer.hpp"
#include "snicit/engine.hpp"
#include "snicit/postconv.hpp"
#include "snicit/recovery.hpp"
#include "snicit/sample_prune.hpp"
#include "snicit/sampling.hpp"
#include "snicit/snapshot.hpp"
#include "sparse/spmm.hpp"

namespace snicit::core {

CompressedBatch convert_with_cache(const DenseMatrix& y,
                                   const CentroidCache& cache,
                                   float prune_threshold) {
  SNICIT_CHECK(!cache.empty(), "centroid cache is empty");
  SNICIT_CHECK(cache.columns.rows() == y.rows(),
               "cache dimensionality mismatch");
  const std::size_t b = y.cols();
  const std::size_t k = cache.size();
  const std::size_t n = y.rows();

  // Extended batch: original columns followed by the cached centroids.
  DenseMatrix extended(n, b + k);
  for (std::size_t j = 0; j < b; ++j) {
    std::copy_n(y.col(j), n, extended.col(j));
  }
  std::vector<Index> centroid_cols;
  centroid_cols.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    std::copy_n(cache.columns.col(c), n, extended.col(b + c));
    centroid_cols.push_back(static_cast<Index>(b + c));
  }
  return convert_to_compressed(extended, centroid_cols, prune_threshold);
}

WarmSnicitEngine::WarmSnicitEngine(SnicitParams params) : params_(params) {
  SNICIT_CHECK(!params_.auto_threshold,
               "WarmSnicitEngine pins t; auto_threshold unsupported");
}

platform::Result<void> WarmSnicitEngine::save_state(
    const std::string& path) const {
  if (!cache_.has_value()) {
    return platform::Error{platform::ErrorCode::kBadInput,
                           "warm-state save: engine has not served a "
                           "batch yet (nothing to snapshot)"};
  }
  WarmStateSnapshot state;
  state.threshold_layer =
      static_cast<std::uint32_t>(std::max(params_.threshold_layer, 0));
  state.centroids = cache_->columns;
  return save_warm_state(path, state);
}

platform::Result<void> WarmSnicitEngine::restore_state(
    const std::string& path, std::size_t expected_neurons) {
  auto state = load_warm_state(path);
  if (!state.ok()) return state.error();
  // Validate *here*, with typed errors, rather than letting a mismatched
  // cache reach convert_with_cache's SNICIT_CHECK (which aborts). A
  // snapshot from a different model/tuning is "stale", and stale means
  // cold-start, never crash.
  const auto t =
      static_cast<std::uint32_t>(std::max(params_.threshold_layer, 0));
  if (state.value().threshold_layer != t) {
    return platform::Error{
        platform::ErrorCode::kBadModelFile,
        "warm-state snapshot '" + path + "' was captured at threshold "
        "layer " + std::to_string(state.value().threshold_layer) +
            " but this engine pins t=" + std::to_string(t)};
  }
  if (expected_neurons != 0 &&
      state.value().centroids.rows() != expected_neurons) {
    return platform::Error{
        platform::ErrorCode::kBadModelFile,
        "warm-state snapshot '" + path + "' has " +
            std::to_string(state.value().centroids.rows()) +
            " neurons but the network has " +
            std::to_string(expected_neurons)};
  }
  CentroidCache cache;
  cache.columns = std::move(state).value().centroids;
  cache_ = std::move(cache);
  return {};
}

dnn::RunResult WarmSnicitEngine::run(const dnn::SparseDnn& net,
                                     const dnn::DenseMatrix& input) {
  const auto layers = net.num_layers();
  const auto t = static_cast<std::size_t>(
      std::clamp<int>(params_.threshold_layer, 0, static_cast<int>(layers)));

  if (!cache_.has_value()) {
    // Cold run: delegate to the ordinary engine, then capture the
    // centroid columns of Y(t) for future batches.
    SnicitEngine cold(params_);
    auto result = cold.run(net, input);
    const auto y_t = dnn::reference_forward(net, input, 0, t);
    const auto f =
        build_sample_matrix(y_t, params_.sample_size, params_.downsample_dim);
    const auto centroid_cols =
        prune_samples(f, params_.eta, params_.epsilon);
    CentroidCache cache;
    cache.columns.reset(y_t.rows(), centroid_cols.size());
    for (std::size_t c = 0; c < centroid_cols.size(); ++c) {
      std::copy_n(y_t.col(static_cast<std::size_t>(centroid_cols[c])),
                  y_t.rows(), cache.columns.col(c));
    }
    cache_ = std::move(cache);
    result.diagnostics["warm"] = 0.0;
    return result;
  }

  // Warm run: pre-convergence, then map straight onto cached centroids.
  // CSC is always mirrored — the auto policy may pick a scatter arm.
  net.ensure_csc();
  dnn::RunResult result;
  platform::Stopwatch stage;
  dnn::DenseMatrix cur = input;
  dnn::DenseMatrix next(input.rows(), input.cols());
  for (std::size_t i = 0; i < t; ++i) {
    platform::Stopwatch layer;
    sparse::Index probe[16];
    const std::size_t probe_n = std::min<std::size_t>(cur.cols(), 16);
    for (std::size_t j = 0; j < probe_n; ++j) {
      probe[j] = static_cast<sparse::Index>(j);
    }
    const double density = sparse::estimate_column_density(
        cur, std::span<const sparse::Index>(probe, probe_n));
    // Bias + clipped ReLU fused into the kernel's store (bit-identical
    // to the split multiply + epilogue pass).
    const sparse::BiasAct epi{net.bias(i), 0.0f, net.ymax()};
    sparse::spmm_dispatch_fused(net.weight(i), &net.weight_csc(i), cur,
                                next, density, epi, params_.spmm);
    std::swap(cur, next);
    result.layer_ms.push_back(layer.elapsed_ms());
  }
  result.stages.add("pre-convergence", stage.elapsed_ms());

  stage.reset();
  CompressedBatch batch =
      convert_with_cache(cur, *cache_, params_.prune_threshold);
  result.stages.add("conversion", stage.elapsed_ms());

  stage.reset();
  dnn::DenseMatrix scratch(batch.yhat.rows(), batch.yhat.cols());
  int since_refresh = 0;
  for (std::size_t i = t; i < layers; ++i) {
    platform::Stopwatch layer;
    post_convergence_layer(net.weight(i), &net.weight_csc(i), net.bias(i),
                           net.ymax(), params_.prune_threshold, batch,
                           scratch, params_.spmm);
    if (++since_refresh >= params_.ne_refresh_interval) {
      batch.refresh_ne_idx();
      since_refresh = 0;
    }
    result.layer_ms.push_back(layer.elapsed_ms());
  }
  result.stages.add("post-convergence", stage.elapsed_ms());

  stage.reset();
  const auto recovered = recover_results(batch);
  // Drop the appended centroid columns: only [0, B) belong to the caller.
  result.output.reset(input.rows(), input.cols());
  for (std::size_t j = 0; j < input.cols(); ++j) {
    std::copy_n(recovered.col(j), input.rows(), result.output.col(j));
  }
  result.stages.add("recovery", stage.elapsed_ms());

  result.diagnostics["warm"] = 1.0;
  result.diagnostics["centroids"] = static_cast<double>(cache_->size());
  result.diagnostics["threshold_layer"] = static_cast<double>(t);
  return result;
}

}  // namespace snicit::core
