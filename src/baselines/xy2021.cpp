#include "baselines/xy2021.hpp"

#include <algorithm>
#include <vector>

#include "platform/common.hpp"
#include "platform/metrics.hpp"
#include "platform/timer.hpp"
#include "platform/trace.hpp"
#include "sparse/ell.hpp"
#include "sparse/spmm.hpp"

namespace snicit::baselines {

Xy2021Engine::Xy2021Engine(Xy2021Options options) : options_(options) {}

dnn::RunResult Xy2021Engine::run(const dnn::SparseDnn& net,
                                 const dnn::DenseMatrix& input) {
  dnn::RunResult result;
  run_into(net, input, ws_, result);
  return result;
}

void Xy2021Engine::run_into(const dnn::SparseDnn& net,
                            const dnn::DenseMatrix& input,
                            platform::Workspace& ws,
                            dnn::RunResult& result) {
  SNICIT_TRACE_SPAN("xy2021.run", "engine");
  net.ensure_csc();
  result.begin_run();
  // The dense arm runs on the ELL layout when the weight grid is regular
  // enough (fixed fan-in: zero padding).
  const bool use_ell =
      net.weight_ell(0).padding_ratio() <= sparse::kMaxEllPadding;
  if (use_ell) net.ensure_ell();

  const std::size_t rows = input.rows();
  const std::size_t batch = input.cols();
  const std::size_t layers = net.num_layers();
  result.layer_ms.reserve(layers);

  platform::Stopwatch total;
  if (layers == 0) {
    result.output.reset(rows, batch, sparse::ZeroFill::kNo);
    result.diagnostics["gather_layers"] = 0.0;
    result.diagnostics["scatter_layers"] = 0.0;
    std::copy_n(input.data(), rows * batch, result.output.data());
    result.stages.add("feed-forward", total.elapsed_ms());
    ws.mark_warm();
    return;
  }

  // Density probes reuse a fixed prefix of columns; inputs are shuffled,
  // so a prefix is an unbiased sample.
  const std::size_t probe_n =
      std::min(sparse::kDensityProbeColumns, std::max<std::size_t>(1, batch));
  auto& probe = ws.vec(platform::Workspace::kColumns, probe_n);
  for (std::size_t j = 0; j < probe_n; ++j) {
    probe[j] = static_cast<sparse::Index>(j);
  }

  // Which spMM arm the cost model picked, per layer (0 = gather/ELL,
  // 1 = scatter) — the decision trace the paper's §2.3 discussion is
  // about; cached so the layer loop does one null check when metrics are
  // off.
  namespace metrics = platform::metrics;
  metrics::Series* variant_series = nullptr;
  metrics::Series* density_series = nullptr;
  if (metrics::enabled()) {
    auto& registry = metrics::MetricsRegistry::global();
    variant_series = &registry.series("xy2021.kernel_variant");
    density_series = &registry.series("xy2021.probe_density");
  }

  auto& ping =
      ws.mat(platform::Workspace::kPing, rows, batch, sparse::ZeroFill::kNo);
  std::copy_n(input.data(), rows * batch, ping.data());
  auto& pong =
      ws.mat(platform::Workspace::kPong, rows, batch, sparse::ZeroFill::kNo);
  dnn::DenseMatrix* cur = &ping;
  dnn::DenseMatrix* nxt = &pong;
  double gather_picks = 0.0;
  double scatter_picks = 0.0;

  // The optimisation-space search runs through the library-wide cost
  // model (sparse/spmm_policy.hpp): scalar gather, register-blocked SIMD
  // gather, row-parallel gather, scatter, blocked scatter — priced from
  // the measured density, weight nnz/row and batch width.
  const sparse::SpmmPolicy& policy = options_.policy;

  for (std::size_t layer = 0; layer < layers; ++layer) {
    SNICIT_TRACE_SPAN("xy_layer", "xy2021");
    platform::Stopwatch lt;
    const double density = sparse::estimate_column_density(
        *cur, std::span<const sparse::Index>(probe.data(), probe_n));
    sparse::SpmmProblem problem;
    problem.rows = static_cast<std::size_t>(net.weight(layer).rows());
    problem.nnz = static_cast<std::size_t>(net.weight(layer).nnz());
    problem.batch_cols = batch;
    problem.density = density;
    problem.has_csc = true;
    const auto variant = sparse::select_spmm_variant(problem, policy);
    const bool is_scatter = variant == sparse::SpmmVariant::kScatter ||
                            variant == sparse::SpmmVariant::kScatterSimd;
    // The last layer writes straight into the caller's result, skipping
    // the final buffer copy.
    dnn::DenseMatrix* dst = nxt;
    if (layer + 1 == layers) {
      result.output.reset(rows, batch, sparse::ZeroFill::kNo);
      dst = &result.output;
    }
    const sparse::BiasAct epi{net.bias(layer), 0.0f, net.ymax()};
    if (variant == sparse::SpmmVariant::kGatherScalar && use_ell) {
      // The dense scalar arm runs on the regular ELL layout when the
      // weight grid allows it — the champions' preferred dense format.
      // No fused form exists for ELL, so the epilogue stays a separate
      // pass on this arm.
      sparse::spmm_ell(net.weight_ell(layer), *cur, *dst);
      sparse::apply_bias_activation(*dst, epi);
    } else {
      sparse::SpmmPolicy forced = policy;
      forced.variant = variant;
      sparse::spmm_dispatch_fused(net.weight(layer), &net.weight_csc(layer),
                                  *cur, *dst, density, epi, forced);
    }
    if (is_scatter) {
      scatter_picks += 1.0;
    } else {
      gather_picks += 1.0;
    }
    if (layer + 1 < layers) std::swap(cur, nxt);
    result.layer_ms.push_back(lt.elapsed_ms());
    if (variant_series != nullptr) {
      variant_series->record(layer, static_cast<double>(variant));
      density_series->record(layer, density);
    }
  }

  result.stages.add("feed-forward", total.elapsed_ms());
  result.diagnostics["gather_layers"] = gather_picks;
  result.diagnostics["scatter_layers"] = scatter_picks;
  if (metrics::enabled()) {
    auto& registry = metrics::MetricsRegistry::global();
    registry.counter("xy2021.gather_layers")
        .add(static_cast<std::int64_t>(gather_picks));
    registry.counter("xy2021.scatter_layers")
        .add(static_cast<std::int64_t>(scatter_picks));
  }
  ws.mark_warm();
}

}  // namespace snicit::baselines
