#include "baselines/autotune.hpp"

#include <limits>
#include <vector>

#include "platform/common.hpp"
#include "platform/thread_pool.hpp"
#include "platform/timer.hpp"
#include "sparse/spmm.hpp"

namespace snicit::baselines {

namespace {

void run_arm(sparse::SpmmVariant variant, const sparse::SpmmPolicy& base,
             const dnn::SparseDnn& net, std::size_t layer,
             const dnn::DenseMatrix& in, dnn::DenseMatrix& out,
             double density, bool use_ell) {
  if (variant == sparse::SpmmVariant::kGatherScalar && use_ell) {
    // The scalar-gather arm runs on the regular ELL layout when the
    // weight grid allows it, matching the analytic engines.
    sparse::spmm_ell(net.weight_ell(layer), in, out);
    return;
  }
  sparse::SpmmPolicy forced = base;
  forced.variant = variant;
  sparse::spmm_dispatch(net.weight(layer), &net.weight_csc(layer), in, out,
                        density, forced);
}

}  // namespace

AutotuneEngine::AutotuneEngine(AutotuneOptions options)
    : options_(options) {
  SNICIT_CHECK(options_.trial_rounds >= 1, "trial_rounds must be >= 1");
  SNICIT_CHECK(options_.low_density <= options_.high_density,
               "density buckets must be ordered");
}

std::vector<sparse::SpmmVariant> AutotuneEngine::arm_list() const {
  std::vector<sparse::SpmmVariant> arms = {
      sparse::SpmmVariant::kGatherScalar,
      sparse::SpmmVariant::kGatherSimd,
      sparse::SpmmVariant::kScatter,
      sparse::SpmmVariant::kScatterSimd,
  };
  // The row-parallel arm is only a distinct point when the pool has more
  // than one worker; with one it is gather-SIMD plus overhead.
  if (platform::ThreadPool::global().size() > 1) {
    arms.push_back(sparse::SpmmVariant::kGatherThreaded);
  }
  return arms;
}

dnn::RunResult AutotuneEngine::run(const dnn::SparseDnn& net,
                                   const dnn::DenseMatrix& input) {
  net.ensure_csc();
  const bool use_ell = net.weight_ell(0).padding_ratio() <= 0.1;
  if (use_ell) net.ensure_ell();

  const auto arms = arm_list();
  const int num_arms = static_cast<int>(arms.size());
  const bool forced =
      options_.policy.variant != sparse::SpmmVariant::kAuto;
  committed_ = {-1, -1, -1};
  if (forced) {
    const int v = static_cast<int>(options_.policy.variant);
    committed_ = {v, v, v};
  }

  // Per bucket: best time seen per arm during trials, next arm to trial.
  struct BucketState {
    std::vector<double> best_ms;
    std::vector<int> trials;
    int next_arm = 0;
  };
  std::array<BucketState, 3> buckets;
  for (auto& b : buckets) {
    b.best_ms.assign(static_cast<std::size_t>(num_arms),
                     std::numeric_limits<double>::infinity());
    b.trials.assign(static_cast<std::size_t>(num_arms), 0);
  }

  const std::size_t probe_n =
      std::min(options_.density_probe_columns,
               std::max<std::size_t>(1, input.cols()));
  std::vector<sparse::Index> probe(probe_n);
  for (std::size_t j = 0; j < probe_n; ++j) {
    probe[j] = static_cast<sparse::Index>(j);
  }

  dnn::RunResult result;
  result.layer_ms.reserve(net.num_layers());
  platform::Stopwatch total;
  dnn::DenseMatrix cur = input;
  dnn::DenseMatrix next(input.rows(), input.cols());

  for (std::size_t layer = 0; layer < net.num_layers(); ++layer) {
    const double density = sparse::estimate_column_density(cur, probe);
    const int bucket = density < options_.low_density ? 0
                       : density < options_.high_density ? 1
                                                         : 2;
    auto& state = buckets[static_cast<std::size_t>(bucket)];

    const int committed = committed_[static_cast<std::size_t>(bucket)];
    const bool trialling = committed < 0;
    const int arm_idx = trialling ? state.next_arm : -1;
    const sparse::SpmmVariant variant =
        trialling ? arms[static_cast<std::size_t>(arm_idx)]
                  : static_cast<sparse::SpmmVariant>(committed);

    platform::Stopwatch lt;
    run_arm(variant, options_.policy, net, layer, cur, next, density,
            use_ell);
    const double ms = lt.elapsed_ms();

    if (trialling) {
      state.best_ms[static_cast<std::size_t>(arm_idx)] =
          std::min(state.best_ms[static_cast<std::size_t>(arm_idx)], ms);
      if (++state.trials[static_cast<std::size_t>(arm_idx)] >=
          options_.trial_rounds) {
        state.next_arm = arm_idx + 1;
      }
      if (state.next_arm >= num_arms) {
        // All arms trialled: commit to the fastest.
        int best = 0;
        for (int a = 1; a < num_arms; ++a) {
          if (state.best_ms[static_cast<std::size_t>(a)] <
              state.best_ms[static_cast<std::size_t>(best)]) {
            best = a;
          }
        }
        committed_[static_cast<std::size_t>(bucket)] =
            static_cast<int>(arms[static_cast<std::size_t>(best)]);
      }
    }

    sparse::apply_bias_activation(next, net.bias(layer), net.ymax());
    std::swap(cur, next);
    result.layer_ms.push_back(ms);
  }

  result.stages.add("feed-forward", total.elapsed_ms());
  for (int b = 0; b < 3; ++b) {
    result.diagnostics["bucket" + std::to_string(b) + "_arm"] =
        committed_[static_cast<std::size_t>(b)];
  }
  result.output = std::move(cur);
  return result;
}

}  // namespace snicit::baselines
