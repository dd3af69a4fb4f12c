// `medium` workload: Table 4 net D (256 neurons x 12 layers, 55 % dense
// weights, CIFAR-like), trained in set-up, run on B = 1000 held-out
// samples with the paper's medium-scale parameters. SNIG-2020 is
// the baseline and must reproduce the exact reference bit for bit. Here
// conversion is a large share of SNICIT's time (most samples survive
// Algorithm 1), the weights have no fixed fan-in, and pruning changes the
// output, so SNICIT must repeat its own bits and keep its accuracy loss
// within the Table 4 envelope.
#include <algorithm>
#include <memory>

#include "baselines/snig2020.hpp"
#include "batch.hpp"
#include "data/synthetic.hpp"
#include "dnn/reference.hpp"
#include "helpers.hpp"
#include "platform/timer.hpp"
#include "train/loss.hpp"
#include "train/mlp.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTrain = 1200;
constexpr std::size_t kTest = 1000;

/// The held-out samples in an order drawn from `seed`: SNICIT samples
/// the first s columns, so the order is what the seed varies.
snicit::data::Dataset shuffled(const snicit::data::Dataset& d,
                               std::uint64_t seed) {
  const std::vector<std::size_t> order = seeded_permutation(d.size(), seed);
  snicit::data::Dataset out;
  out.num_classes = d.num_classes;
  out.features.reset(d.dim(), d.size());
  for (std::size_t j = 0; j < order.size(); ++j) {
    std::copy_n(d.features.col(order[j]), d.dim(), out.features.col(j));
    out.labels.push_back(d.labels[order[j]]);
  }
  return out;
}

BatchWorkload build_medium(std::uint64_t seed) {
  BatchWorkload wl;
  snicit::platform::Stopwatch sw;
  // Net D is one fixed net, as in Table 4: its corpus and initialisation
  // seeds are constants (those bench_table4_medium trains D with), so runs
  // at different workload seeds time the same model. The workload seed
  // orders the held-out batch. A net trained per seed moved SNICIT's batch
  // time by up to 1.8x and its accuracy loss past the envelope.
  // The CIFAR-like corpus: 32x32x3 inputs, denser and noisier than the
  // MNIST-like nets, with pixel-flip noise.
  snicit::data::ClusteredOptions corpus;
  corpus.classes = 10;
  corpus.count = kTrain + kTest;
  corpus.dim = 3072;
  corpus.active_fraction = 0.4;
  corpus.noise = 0.45;
  corpus.flip_prob = 0.10;
  corpus.class_separation = 0.35;
  corpus.seed = 9202;
  const auto data = snicit::data::make_clustered_dataset(corpus);
  const auto train_set = data.slice(0, kTrain);
  auto test_set = std::make_shared<snicit::data::Dataset>(
      shuffled(data.slice(kTrain, kTrain + kTest), derive_seed(seed, 1)));
  wl.times.inputs_s = sw.elapsed_ms() / 1000.0;

  sw.reset();
  snicit::train::MlpOptions mlp_options;
  mlp_options.in_dim = train_set.dim();
  mlp_options.hidden = 256;
  mlp_options.sparse_layers = 12;
  mlp_options.classes = 10;
  mlp_options.density = 0.55;
  mlp_options.ymax = 1.0f;
  mlp_options.seed = 1000 + 256 + 12;
  auto mlp = std::make_shared<snicit::train::SparseMlp>(mlp_options);
  snicit::train::TrainOptions train;
  train.epochs = 10;
  train.batch_size = 50;
  train.adam.lr = 1e-3f;
  mlp->fit(train_set, train);
  wl.net = mlp->to_sparse_dnn("D 256-12");
  wl.times.net_s = sw.elapsed_ms() / 1000.0;

  sw.reset();
  wl.net.ensure_csc();
  wl.net.ensure_ell();
  wl.times.mirrors_s = sw.elapsed_ms() / 1000.0;

  sw.reset();
  wl.inputs.push_back(mlp->hidden_input(test_set->features));
  wl.times.inputs_s += sw.elapsed_ms() / 1000.0;

  sw.reset();
  wl.reference.push_back(snicit::dnn::reference_forward(wl.net, wl.inputs[0]));
  wl.times.reference_s = sw.elapsed_ms() / 1000.0;

  wl.accuracy = [mlp, test_set](const DenseMatrix& out) {
    return snicit::train::accuracy(mlp->logits_from_hidden(out),
                                   test_set->labels);
  };
  wl.exact_accuracy = wl.accuracy(wl.reference[0]);
  // bench_table4_medium's bar; the paper's worst loss is 1.43 pp.
  wl.max_accuracy_loss_pp = 3.0;

  // Medium-scale parameters: t = largest even <= l/2, s = 128, no
  // downsampling, eps = eta = 0.03, prune 0.05, ne_idx every layer.
  wl.params.threshold_layer = 6;
  wl.params.sample_size = 128;
  wl.params.downsample_dim = 0;
  wl.params.eta = 0.03f;
  wl.params.epsilon = 0.03f;
  wl.params.prune_threshold = 0.05f;
  wl.params.ne_refresh_interval = 1;
  wl.baseline_name = "SNIG-2020";
  wl.make_baseline = [] {
    return std::make_unique<snicit::baselines::Snig2020Engine>();
  };
  wl.serve_probe_rps = 1000.0;
  return wl;
}

}  // namespace

void run_medium(const RunConfig& cfg, Report& report) {
  run_batch_workload(build_medium, cfg, report);
}

}  // namespace perfbench
