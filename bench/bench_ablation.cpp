// Ablations of SNICIT's design choices (the decisions §3 argues for):
//   1. sum downsampling on/off in centroid selection (§3.2.1)
//   2. ne_idx refresh cadence (§3.3.2: every layer vs every 200)
//   3. near-zero residue pruning on/off (§3.3.1)
//   4. load reduction off (post-convergence over ALL columns) — isolates
//      the contribution of skipping empty columns
//   5. dynamic threshold detection (future work, §5) vs fixed t
//   6. periodic re-clustering (§3.2.2 rejects it as too expensive —
//      measured here)
//   7. spGEMM + per-layer recompression vs load-reduced spMM (§3.3.1)
#include <cstdio>

#include "bench_util.hpp"
#include "dnn/reference.hpp"
#include "platform/timer.hpp"
#include "snicit/convert.hpp"
#include "snicit/engine.hpp"
#include "snicit/postconv.hpp"
#include "snicit/sample_prune.hpp"
#include "snicit/sampling.hpp"
#include "sparse/spgemm.hpp"
#include "sparse/spmm_policy.hpp"

namespace {

using namespace snicit;

core::SnicitParams base_params(int layers) {
  core::SnicitParams p;
  p.threshold_layer = bench::sdgc_threshold(layers);
  p.sample_size = 32;
  p.downsample_dim = 16;
  p.ne_refresh_interval = 5;
  return p;
}

double timed(const core::SnicitParams& p, const dnn::SparseDnn& net,
             const dnn::DenseMatrix& input, double* conv_ms = nullptr,
             double* post_ms = nullptr, double* centroids = nullptr) {
  core::SnicitEngine engine(p);
  const auto r = bench::run_engine(engine, net, input, 2);
  if (conv_ms != nullptr) *conv_ms = r.stages.get("conversion");
  if (post_ms != nullptr) *post_ms = r.stages.get("post-convergence");
  if (centroids != nullptr && r.diagnostics.count("centroids") != 0u) {
    *centroids = r.diagnostics.at("centroids");
  }
  return r.total_ms();
}

}  // namespace

int main() {
  bench::print_title("Ablations of SNICIT design choices");

  const auto grid = bench::sdgc_grid();
  // Use the deepest small-grid case: ablations matter most at depth.
  const auto& c = grid[3];
  auto wl = bench::make_sdgc_workload(c);
  std::printf("workload: %s, B=%zu\n\n", c.name.c_str(), c.batch);

  // 1. Sum downsampling.
  {
    auto with_ds = base_params(c.layers);
    auto without_ds = base_params(c.layers);
    without_ds.downsample_dim = 0;
    double conv_a = 0.0;
    double conv_b = 0.0;
    double cent_a = 0.0;
    double cent_b = 0.0;
    const double a = timed(with_ds, wl.net, wl.input, &conv_a, nullptr,
                           &cent_a);
    const double b = timed(without_ds, wl.net, wl.input, &conv_b, nullptr,
                           &cent_b);
    std::printf(
        "[1] sum downsampling  : on  %8.2f ms (conv %6.2f ms, %g "
        "centroids)\n",
        a, conv_a, cent_a);
    std::printf(
        "                        off %8.2f ms (conv %6.2f ms, %g "
        "centroids)\n",
        b, conv_b, cent_b);
  }

  // 2. ne_idx refresh cadence.
  {
    auto every = base_params(c.layers);
    every.ne_refresh_interval = 1;
    auto rare = base_params(c.layers);
    rare.ne_refresh_interval = 200;
    double post_a = 0.0;
    double post_b = 0.0;
    const double a = timed(every, wl.net, wl.input, nullptr, &post_a);
    const double b = timed(rare, wl.net, wl.input, nullptr, &post_b);
    std::printf(
        "[2] ne_idx refresh    : 1   %8.2f ms (post %6.2f ms)\n", a, post_a);
    std::printf(
        "                        200 %8.2f ms (post %6.2f ms)\n", b, post_b);
  }

  // 3. Near-zero residue pruning.
  {
    auto off = base_params(c.layers);
    auto on = base_params(c.layers);
    on.prune_threshold = 0.05f;
    double post_a = 0.0;
    double post_b = 0.0;
    const double a = timed(off, wl.net, wl.input, nullptr, &post_a);
    const double b = timed(on, wl.net, wl.input, nullptr, &post_b);
    std::printf(
        "[3] residue pruning   : off %8.2f ms (post %6.2f ms)\n", a, post_a);
    std::printf(
        "                        on  %8.2f ms (post %6.2f ms)\n", b, post_b);
  }

  // 4. Load reduction: compare against t = l (no compression at all).
  {
    auto with_comp = base_params(c.layers);
    auto no_comp = base_params(c.layers);
    no_comp.threshold_layer = c.layers;  // pure feed-forward
    const double a = timed(with_comp, wl.net, wl.input);
    const double b = timed(no_comp, wl.net, wl.input);
    std::printf(
        "[4] compression       : on  %8.2f ms | off (t=l) %8.2f ms -> "
        "%.2fx\n",
        a, b, b / a);
  }

  // 5. Dynamic threshold (future work) vs the fixed default.
  {
    auto fixed = base_params(c.layers);
    auto dynamic = base_params(c.layers);
    dynamic.auto_threshold = true;
    dynamic.threshold_layer = c.layers;  // bound only
    dynamic.record_trace = true;
    const double a = timed(fixed, wl.net, wl.input);
    core::SnicitEngine dyn_engine(dynamic);
    const auto r = bench::run_engine(dyn_engine, wl.net, wl.input, 2);
    std::printf(
        "[5] threshold choice  : fixed t=%d %8.2f ms | dynamic t=%d %8.2f "
        "ms\n",
        fixed.threshold_layer, a, dyn_engine.last_trace().threshold_layer,
        r.total_ms());
  }
  // 6. Periodic re-clustering: the paper's §3.2.2 position is that fresh
  // centroids cost more than they save — quantify it.
  {
    auto never = base_params(c.layers);
    auto every20 = base_params(c.layers);
    every20.reconvert_interval = 20;
    const double a = timed(never, wl.net, wl.input);
    const double b = timed(every20, wl.net, wl.input);
    std::printf(
        "[6] re-clustering     : off %8.2f ms | every 20 layers %8.2f ms "
        "(overhead %.1f%%)\n",
        a, b, 100.0 * (b - a) / a);
  }

  // 7. spGEMM alternative for the post-convergence multiply (§3.3.1
  // rejects it: per-layer recompression overhead + irregularity). Measure
  // one post-convergence layer both ways on a converted batch.
  {
    const auto params = base_params(c.layers);
    const auto y_t = dnn::reference_forward(
        wl.net, wl.input, 0,
        static_cast<std::size_t>(params.threshold_layer));
    const auto f = core::build_sample_matrix(y_t, params.sample_size,
                                             params.downsample_dim);
    auto batch = core::convert_to_compressed(
        y_t, core::prune_samples(f, params.eta, params.epsilon), 0.0f);
    const auto layer = static_cast<std::size_t>(params.threshold_layer);
    wl.net.ensure_csc();
    dnn::DenseMatrix scratch(y_t.rows(), y_t.cols());

    const double load_reduced = platform::time_best_ms([&] {
      // The scalar scatter arm, forced (it never reads the density).
      sparse::spmm_dispatch_cols(wl.net.weight(layer),
                                 &wl.net.weight_csc(layer), batch.yhat,
                                 batch.ne_idx, scratch, /*density=*/1.0,
                                 {sparse::SpmmVariant::kScatter});
    });
    const double spgemm_ms = platform::time_best_ms([&] {
      // The spGEMM route must recompress Ŷ every layer, then multiply.
      const auto yhat_csc = sparse::dense_to_csc(batch.yhat);
      sparse::spgemm(wl.net.weight_csc(layer), yhat_csc, scratch);
    });
    std::printf(
        "[7] post-conv multiply: load-reduced spMM %8.2f ms | spGEMM "
        "(+recompress) %8.2f ms -> %.2fx slower\n",
        load_reduced, spgemm_ms, spgemm_ms / load_reduced);
  }
  return 0;
}
