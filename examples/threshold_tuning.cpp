// Choosing the threshold layer t (paper §4.1.4 / §4.2.3 and the §5
// future-work feature): sweeps t manually, prints the runtime curve, then
// lets the dynamic ConvergenceDetector pick t automatically and compares.
//
//   ./threshold_tuning [neurons] [layers] [batch]
#include <cstdio>
#include <cstdlib>

#include "data/synthetic.hpp"
#include "radixnet/radixnet.hpp"
#include "snicit/convergence.hpp"
#include "snicit/engine.hpp"

int main(int argc, char** argv) {
  using namespace snicit;

  const sparse::Index neurons = argc > 1 ? std::atoi(argv[1]) : 1024;
  const int layers = argc > 2 ? std::atoi(argv[2]) : 96;
  const std::size_t batch =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 256;

  radixnet::RadixNetOptions net_opt;
  net_opt.neurons = neurons;
  net_opt.layers = layers;
  const auto net = radixnet::make_radixnet(net_opt);
  data::SdgcInputOptions in_opt;
  in_opt.neurons = static_cast<std::size_t>(neurons);
  in_opt.batch = batch;
  const auto input = data::make_sdgc_input(in_opt).features;
  net.ensure_csc();

  std::printf("== manual sweep: runtime vs t on %d-%d, B=%zu ==\n", neurons,
              layers, batch);
  std::printf("%6s | %10s | %10s\n", "t", "runtime ms", "centroids");
  double best_ms = -1.0;
  int best_t = 0;
  for (int t = 0; t <= layers; t += layers / 8) {
    core::SnicitParams params;
    params.threshold_layer = t;
    core::SnicitEngine engine(params);
    const auto r = engine.run(net, input);
    std::printf("%6d | %10.2f | %10.0f\n", t, r.total_ms(),
                r.diagnostics.count("centroids")
                    ? r.diagnostics.at("centroids")
                    : 0.0);
    if (best_ms < 0.0 || r.total_ms() < best_ms) {
      best_ms = r.total_ms();
      best_t = t;
    }
  }
  std::printf("manual best: t=%d (%.2f ms)\n", best_t, best_ms);

  std::printf("\n== dynamic threshold (ConvergenceDetector, §5) ==\n");
  core::SnicitParams dyn;
  dyn.auto_threshold = true;
  dyn.threshold_layer = layers;  // upper bound only
  dyn.record_trace = true;
  core::SnicitEngine engine(dyn);
  const auto r = engine.run(net, input);
  std::printf("detector picked t=%d, runtime %.2f ms (manual best %.2f "
              "ms at t=%d)\n",
              engine.last_trace().threshold_layer, r.total_ms(), best_ms,
              best_t);
  std::printf("\nper-layer clustering distance during pre-convergence:\n");
  const auto& trace = engine.last_trace();
  for (std::size_t i = 0; i < trace.change_fraction.size(); ++i) {
    std::printf("  layer %3zu: %.3f%s\n", i + 1, trace.change_fraction[i],
                trace.change_fraction[i] <= core::kConvergenceLevel
                    ? "  <- clustered"
                    : "");
  }
  return 0;
}
