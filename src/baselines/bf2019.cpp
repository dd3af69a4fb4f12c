#include "baselines/bf2019.hpp"

#include <algorithm>

#include "platform/common.hpp"
#include "platform/metrics.hpp"
#include "platform/thread_pool.hpp"
#include "platform/timer.hpp"
#include "platform/trace.hpp"
#include "sparse/spmm.hpp"

namespace snicit::baselines {

Bf2019Engine::Bf2019Engine(std::size_t partitions,
                           sparse::SpmmPolicy policy)
    : partitions_(partitions), policy_(policy) {}

dnn::RunResult Bf2019Engine::run(const dnn::SparseDnn& net,
                                 const dnn::DenseMatrix& input) {
  dnn::RunResult result;
  run_into(net, input, ws_, result);
  return result;
}

void Bf2019Engine::run_into(const dnn::SparseDnn& net,
                            const dnn::DenseMatrix& input,
                            platform::Workspace& ws,
                            dnn::RunResult& result) {
  SNICIT_TRACE_SPAN("bf2019.run", "engine");
  net.ensure_csc();  // model preparation, outside the clock
  result.begin_run();

  const std::size_t rows = input.rows();
  const std::size_t batch = input.cols();
  const std::size_t layers = net.num_layers();
  const std::size_t parts =
      partitions_ != 0
          ? std::min(partitions_, std::max<std::size_t>(1, batch))
          : std::min(platform::ThreadPool::global().size(),
                     std::max<std::size_t>(1, batch));

  result.layer_ms.reserve(layers);
  result.diagnostics["partitions"] = static_cast<double>(parts);
  if (platform::metrics::enabled()) {
    platform::metrics::MetricsRegistry::global()
        .gauge("bf2019.partitions")
        .set(static_cast<double>(parts));
  }

  platform::Stopwatch total;
  if (layers == 0) {
    result.output.reset(rows, batch, sparse::ZeroFill::kNo);
    std::copy_n(input.data(), rows * batch, result.output.data());
    result.stages.add("feed-forward", total.elapsed_ms());
    ws.mark_warm();
    return;
  }

  // Double buffers shared by all partitions: partitions own disjoint
  // column ranges, so there is no overlap.
  auto& ping =
      ws.mat(platform::Workspace::kPing, rows, batch, sparse::ZeroFill::kNo);
  std::copy_n(input.data(), rows * batch, ping.data());
  auto& pong =
      ws.mat(platform::Workspace::kPong, rows, batch, sparse::ZeroFill::kNo);
  dnn::DenseMatrix* cur = &ping;
  dnn::DenseMatrix* nxt = &pong;
  const std::size_t chunk = (batch + parts - 1) / parts;

  // Per-partition column lists are layer-invariant: build them once per
  // run, in reusable workspace storage.
  auto& part_cols = ws.index_lists();
  part_cols.resize(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t lo = p * chunk;
    const std::size_t hi = std::min(batch, lo + chunk);
    auto& cols = part_cols[p];
    cols.clear();
    for (std::size_t j = lo; j < hi; ++j) {
      cols.push_back(static_cast<sparse::Index>(j));
    }
  }

  // Density probe for the kernel policy, re-estimated per layer on the
  // first partition's columns (partitions see statistically identical
  // activations — inputs are shuffled).
  auto& probe = ws.vec(platform::Workspace::kColumns,
                       std::min<std::size_t>(batch,
                                             sparse::kDensityProbeColumns));
  for (std::size_t j = 0; j < probe.size(); ++j) {
    probe[j] = static_cast<sparse::Index>(j);
  }

  for (std::size_t layer = 0; layer < layers; ++layer) {
    SNICIT_TRACE_SPAN("bf_layer", "bf2019");
    platform::Stopwatch lt;
    const auto& w = net.weight(layer);
    const auto& w_csc = net.weight_csc(layer);
    const double density = sparse::estimate_column_density(
        *cur, std::span<const sparse::Index>(probe.data(), probe.size()));
    dnn::DenseMatrix* dst = nxt;
    if (layer + 1 == layers) {
      // Last layer writes straight into the caller's result — every
      // column belongs to exactly one partition, so the matrix is fully
      // covered.
      result.output.reset(rows, batch, sparse::ZeroFill::kNo);
      dst = &result.output;
    }
    const sparse::BiasAct epi{net.bias(layer), 0.0f, net.ymax()};
    platform::ThreadPool::global().run_chunks(parts, [&](std::size_t p) {
      if (part_cols[p].empty()) return;
      // Inside a pool chunk nested parallelism is inline, so each
      // partition runs its chosen kernel serially — one "GPU" each. The
      // bias + clipped-ReLU epilogue is fused into the partition's kernel
      // store (bit-identical to the old global apply_bias_activation
      // pass, which touched every column exactly once — as the disjoint
      // partitions do).
      sparse::spmm_dispatch_cols_fused(w, &w_csc, *cur, part_cols[p], *dst,
                                       density, epi, policy_);
    });
    if (layer + 1 < layers) std::swap(cur, nxt);
    result.layer_ms.push_back(lt.elapsed_ms());
  }

  result.stages.add("feed-forward", total.elapsed_ms());
  ws.mark_warm();
}

}  // namespace snicit::baselines
