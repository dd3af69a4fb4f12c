#include "snicit/warm_cache.hpp"

#include <algorithm>

#include "platform/common.hpp"
#include "snicit/snapshot.hpp"

namespace snicit::core {

WarmSnicitEngine::WarmSnicitEngine(SnicitParams params) : engine_(params) {
  SNICIT_CHECK(!params.auto_threshold,
               "WarmSnicitEngine pins t; auto_threshold unsupported");
}

platform::Result<void> WarmSnicitEngine::save_state(
    const std::string& path) const {
  if (!warmed()) {
    return platform::Error{platform::ErrorCode::kBadInput,
                           "warm-state save: engine has not served a "
                           "batch yet (nothing to snapshot)"};
  }
  WarmStateSnapshot state;
  state.threshold_layer = static_cast<std::uint32_t>(
      std::max(engine_.params().threshold_layer, 0));
  state.centroids = cache_.columns;
  return save_warm_state(path, state);
}

platform::Result<void> WarmSnicitEngine::restore_state(
    const std::string& path, std::size_t expected_neurons) {
  auto state = load_warm_state(path);
  if (!state.ok()) return state.error();
  // Validate *here*, with typed errors, rather than letting a mismatched
  // cache reach the stage loop's SNICIT_CHECK (which aborts). A
  // snapshot from a different model/tuning is "stale", and stale means
  // cold-start, never crash.
  const auto t = static_cast<std::uint32_t>(
      std::max(engine_.params().threshold_layer, 0));
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
  cache_.columns = std::move(state).value().centroids;
  return {};
}

dnn::RunResult WarmSnicitEngine::run(const dnn::SparseDnn& net,
                                     const dnn::DenseMatrix& input) {
  dnn::RunResult result;
  run_into(net, input, engine_.ws_, result);
  return result;
}

void WarmSnicitEngine::run_into(const dnn::SparseDnn& net,
                                const dnn::DenseMatrix& input,
                                platform::Workspace& ws,
                                dnn::RunResult& result) {
  const bool warm = warmed();
  engine_.run_stages(net, input, ws, result, &cache_.columns);
  result.diagnostics["warm"] = warm ? 1.0 : 0.0;
}

}  // namespace snicit::core
