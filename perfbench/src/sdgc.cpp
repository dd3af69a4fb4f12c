// `sdgc` workload: the scaled Table 3 row for paper 4096-480, radixnet
// 1024 neurons x 120 layers (fan-in 32), B = 512 clustered binary inputs
// cycled from three seeded batches, with the paper's SDGC parameters.
// XY-2021 must reproduce the exact reference bit for bit; SNICIT must repeat
// its own set-up output and match the reference's SDGC categories.
// Pre-convergence spMM and the post-convergence path carry almost all of
// SNICIT's time here; conversion is ~1.5 %.
#include <algorithm>
#include <memory>

#include "baselines/xy2021.hpp"
#include "batch.hpp"
#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "helpers.hpp"
#include "platform/timer.hpp"
#include "radixnet/radixnet.hpp"

namespace perfbench {

namespace {

constexpr int kNeurons = 1024;
constexpr int kLayers = 120;
constexpr std::size_t kBatch = 512;
constexpr std::size_t kInputBatches = 3;
constexpr std::size_t kPoolColumns = 4096;

BatchWorkload build_sdgc(std::uint64_t seed) {
  BatchWorkload wl;
  snicit::platform::Stopwatch sw;
  snicit::radixnet::RadixNetOptions net;
  net.neurons = kNeurons;
  net.layers = kLayers;
  net.fanin = 32;
  // One fixed net, like the Table 3 row it stands for, so runs at
  // different workload seeds time the same model; the seed draws the
  // input batches.
  net.seed = 42;
  wl.net = snicit::radixnet::make_radixnet(net);
  wl.times.net_s = sw.elapsed_ms() / 1000.0;

  sw.reset();
  wl.net.ensure_csc();
  wl.net.ensure_ell();
  wl.times.mirrors_s = sw.elapsed_ms() / 1000.0;

  // The batches are seeded draws from one pool of clustered inputs with
  // fixed class prototypes. Prototypes drawn per seed changed how many
  // clusters the batch converged into, which split batch times into two
  // groups about 20 % apart across seeds.
  sw.reset();
  snicit::data::SdgcInputOptions pool_options;
  pool_options.neurons = kNeurons;
  pool_options.batch = kPoolColumns;
  pool_options.classes = 10;
  pool_options.seed = 11;
  const DenseMatrix pool = snicit::data::make_sdgc_input(pool_options).features;
  const std::vector<std::size_t> order =
      seeded_permutation(kPoolColumns, derive_seed(seed, 10));
  for (std::size_t k = 0; k < kInputBatches; ++k) {
    DenseMatrix batch(kNeurons, kBatch);
    for (std::size_t j = 0; j < kBatch; ++j) {
      std::copy_n(pool.col(order[k * kBatch + j]), kNeurons, batch.col(j));
    }
    wl.inputs.push_back(std::move(batch));
  }
  wl.times.inputs_s = sw.elapsed_ms() / 1000.0;

  sw.reset();
  for (const auto& input : wl.inputs) {
    wl.reference.push_back(snicit::dnn::reference_forward(wl.net, input));
  }
  wl.times.reference_s = sw.elapsed_ms() / 1000.0;

  // Table 3 parameters: t = 30, s = 32, n = 16, eps = eta = 0.03, no
  // pruning, ne_idx refreshed every 5 layers.
  wl.params.threshold_layer = 30;
  wl.params.sample_size = 32;
  wl.params.downsample_dim = 16;
  wl.params.eta = 0.03f;
  wl.params.epsilon = 0.03f;
  wl.params.prune_threshold = 0.0f;
  wl.params.ne_refresh_interval = 5;
  wl.baseline_name = "XY-2021";
  wl.make_baseline = [] {
    return std::make_unique<snicit::baselines::Xy2021Engine>();
  };
  wl.serve_probe_rps = 500.0;
  return wl;
}

}  // namespace

void run_sdgc(const RunConfig& cfg, Report& report) {
  run_batch_workload(build_sdgc, cfg, report);
}

}  // namespace perfbench
