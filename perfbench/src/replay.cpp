#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>

#include "helpers.hpp"
#include "platform/metrics.hpp"
#include "platform/timer.hpp"
#include "platform/trace.hpp"
#include "platform/workspace.hpp"
#include "snicit/parallel_stream.hpp"
#include "snicit/postconv.hpp"
#include "snicit/recovery.hpp"
#include "snicit/sample_prune.hpp"
#include "snicit/sampling.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_policy.hpp"

namespace perfbench {

namespace core = snicit::core;
namespace sparse = snicit::sparse;
using Clock = std::chrono::steady_clock;

namespace {

// Arms named by the per-layer metrics; an arm a later library drops
// simply reads 0.
constexpr const char* kArms[] = {"gather",  "gather_simd", "gather_threaded",
                                 "tiled",   "scatter",     "scatter_simd"};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Runs `fn` inside a span and returns its wall time in ms.
template <typename Fn>
double timed(SpanRecorder* spans, const char* name, int parent,
             std::uint64_t group, Fn&& fn) {
  const auto start = Clock::now();
  fn();
  const auto end = Clock::now();
  if (spans != nullptr) {
    spans->add(name, spans->us(start), spans->us(end), parent, group);
  }
  return ms_between(start, end);
}

/// The engine's density probe: the first 16 of the listed columns.
double probe_density(const DenseMatrix& y,
                     std::span<const sparse::Index> columns) {
  return sparse::estimate_column_density(
      y, columns.first(std::min<std::size_t>(columns.size(), 16)));
}

template <typename Field>
double median_of(const std::vector<ReplayStats>& replays, Field field) {
  std::vector<double> v;
  v.reserve(replays.size());
  for (const ReplayStats& r : replays) v.push_back(field(r));
  return median(std::move(v));
}

}  // namespace

void replay_snicit(const SparseDnn& net, const DenseMatrix& input,
                   const core::SnicitParams& params, ReplayScratch& s,
                   SpanRecorder* spans, std::uint64_t group,
                   ReplayStats& st, DenseMatrix& out) {
  st = ReplayStats{};
  const auto begin = Clock::now();
  const int root = spans != nullptr ? spans->open("replay.batch", -1, group) : -1;
  const std::size_t layers = net.num_layers();
  const std::size_t rows = input.rows();
  const std::size_t cols = input.cols();
  const std::size_t t = static_cast<std::size_t>(
      std::clamp<int>(params.threshold_layer, 0, static_cast<int>(layers)));
  // The engine's kernel policy under PreKernel::kAuto (the default the
  // workloads use) is params.spmm as it stands.
  const sparse::SpmmPolicy& policy = params.spmm;

  s.ping.reset(rows, cols, sparse::ZeroFill::kNo);
  std::copy_n(input.data(), rows * cols, s.ping.data());
  s.pong.reset(rows, cols, sparse::ZeroFill::kNo);
  DenseMatrix* cur = &s.ping;
  DenseMatrix* nxt = &s.pong;
  std::vector<sparse::Index> prefix(std::min<std::size_t>(cols, 16));
  std::iota(prefix.begin(), prefix.end(), 0);

  // --- pre-convergence: fused spMM per layer ---
  for (std::size_t i = 0; i < t; ++i) {
    const auto& w = net.weight(i);
    const sparse::BiasAct epi{net.bias(i), 0.0f, net.ymax()};
    sparse::SpmmVariant v{};
    st.pre_ms += timed(spans, "sparse.spmm_fused", root, group, [&] {
      v = sparse::spmm_dispatch_fused(w, &net.weight_csc(i), *cur, *nxt,
                                      probe_density(*cur, prefix), epi,
                                      policy);
    });
    ++st.arms[sparse::to_string(v)];
    const double nnz = static_cast<double>(w.nnz());
    const double b = static_cast<double>(cols);
    st.pre_flops += 2.0 * nnz * b;
    // Weights (value + column index), one activation read per multiply,
    // one output write per element.
    st.pre_bytes += nnz * 8.0 + nnz * b * 4.0 + static_cast<double>(rows) * b * 4.0;
    std::swap(cur, nxt);
  }

  if (t >= layers) {
    st.recovery_ms = timed(spans, "snicit.recovery", root, group, [&] {
      out.reset(rows, cols, sparse::ZeroFill::kNo);
      std::copy_n(cur->data(), rows * cols, out.data());
    });
  } else {
    // --- conversion ---
    auto& batch = s.batch;
    st.sample_ms = timed(spans, "snicit.sample", root, group, [&] {
      core::build_sample_matrix_into(*cur, params.sample_size,
                                     params.downsample_dim, s.f);
    });
    st.prune_ms = timed(spans, "snicit.prune", root, group, [&] {
      core::prune_samples_into(s.f, params.eta, params.epsilon, s.centroids);
    });
    st.convert_ms = timed(spans, "snicit.convert", root, group, [&] {
      core::convert_into(*cur, s.centroids, params.prune_threshold, batch);
    });
    st.centroids = s.centroids.size();
    for (std::size_t j = 0; j < batch.batch(); ++j) {
      if (!batch.is_centroid(j)) st.residue_nnz += batch.yhat.column_nonzeros(j);
    }

    // --- post-convergence: load-reduced spMM, then the Eq. 5 update ---
    s.scratch.reset(rows, cols, sparse::ZeroFill::kNo);
    int since_refresh = 0;
    for (std::size_t i = t; i < layers; ++i) {
      const auto& w = net.weight(i);
      const auto* csc = &net.weight_csc(i);
      st.post_cols += batch.ne_idx.size();
      // The layer call repeats this multiply into the same columns, so
      // measuring it separately leaves the batch untouched.
      sparse::SpmmVariant v{};
      st.post_spmm_ms += timed(spans, "sparse.spmm_cols", root, group, [&] {
        v = sparse::spmm_dispatch_cols(w, csc, batch.yhat, batch.ne_idx,
                                       s.scratch,
                                       probe_density(batch.yhat, batch.ne_idx),
                                       policy);
      });
      ++st.arms[sparse::to_string(v)];
      bool diverged = false;
      st.post_layer_ms += timed(spans, "snicit.post_layer", root, group, [&] {
        st.pruned += core::post_convergence_layer(
            w, csc, net.bias(i), net.ymax(), params.prune_threshold, batch,
            s.scratch, policy, params.divergence_guard ? &diverged : nullptr);
      });
      if (diverged) {
        st.fallback = true;
        break;
      }
      ++st.post_layers;
      st.active_cols += static_cast<std::size_t>(
          std::count(batch.ne_rec.begin(), batch.ne_rec.end(), 1));
      if (++since_refresh >= params.ne_refresh_interval) {
        st.refresh_ms += timed(spans, "snicit.refresh", root, group,
                               [&] { batch.refresh_ne_idx(); });
        since_refresh = 0;
      }
    }

    // --- recovery ---
    st.recovery_ms = timed(spans, "snicit.recovery", root, group,
                           [&] { core::recover_into(batch, out); });
  }
  if (spans != nullptr) spans->close(root);
  st.wall_ms = ms_between(begin, Clock::now());
}

void EngineSamples::add(double ms, const snicit::dnn::RunResult& run) {
  run_ms.push_back(ms);
  for (const auto& e : run.stages.entries()) stage_ms[e.name].push_back(e.ms);
  if (run.fallback_layer >= 0) ++fallbacks;
}

void add_snicit_layer_metrics(Report& report,
                              const std::vector<ReplayStats>& replays,
                              const EngineSamples& engine,
                              std::size_t batch_cols) {
  const ReplayStats& last = replays.back();
  const double post_layers =
      static_cast<double>(std::max<std::size_t>(last.post_layers, 1));
  const double pre_ms = median_of(replays, [](const auto& r) { return r.pre_ms; });
  const double post_spmm_ms =
      median_of(replays, [](const auto& r) { return r.post_spmm_ms; });
  const double post_layer_ms =
      median_of(replays, [](const auto& r) { return r.post_layer_ms; });

  report.add("sparse.pre_ms", pre_ms, "ms", "batch_ms_min");
  report.add("sparse.pre_gflops", last.pre_flops / (pre_ms * 1e6), "GFLOP/s",
             "peak_gedges_per_s");
  report.add("sparse.pre_bytes", last.pre_bytes, "bytes", "peak_gedges_per_s");
  report.add("sparse.post_ms", post_spmm_ms, "ms", "batch_ms_min");
  report.add("sparse.post_cols", static_cast<double>(last.post_cols), "count",
             "batch_ms_min");
  for (const char* arm : kArms) {
    const auto it = last.arms.find(arm);
    report.add(std::string("sparse.arm.") + arm,
               it == last.arms.end() ? 0.0 : static_cast<double>(it->second),
               "count", "batch_ms_min");
  }

  report.add("snicit.sample_ms",
             median_of(replays, [](const auto& r) { return r.sample_ms; }), "ms",
             "batch_ms_min");
  report.add("snicit.prune_ms",
             median_of(replays, [](const auto& r) { return r.prune_ms; }), "ms",
             "batch_ms_min");
  report.add("snicit.convert_ms",
             median_of(replays, [](const auto& r) { return r.convert_ms; }),
             "ms", "batch_ms_min");
  report.add("snicit.centroids", static_cast<double>(last.centroids), "count",
             "batch_ms_min");
  report.add("snicit.residue_nnz", static_cast<double>(last.residue_nnz),
             "count", "batch_ms_min");

  report.add("snicit.post_spmm_ms", post_spmm_ms / post_layers, "ms/layer",
             "batch_ms_min");
  report.add("snicit.update_ms",
             median_of(replays,
                       [](const auto& r) { return r.post_layer_ms - r.post_spmm_ms; }) /
                 post_layers,
             "ms/layer", "batch_ms_min");
  report.add("snicit.refresh_ms",
             median_of(replays, [](const auto& r) { return r.refresh_ms; }),
             "ms", "batch_ms_min");
  report.add("snicit.post_layer_ms", post_layer_ms / post_layers, "ms/layer",
             "batch_ms_min");
  report.add("snicit.active_cols_mean",
             static_cast<double>(last.active_cols) / post_layers, "count",
             "peak_gedges_per_s");
  report.add("snicit.load_reduction",
             static_cast<double>(batch_cols) * post_layers /
                 static_cast<double>(std::max<std::size_t>(last.post_cols, 1)),
             "x", "peak_gedges_per_s");
  report.add("snicit.pruned_residues", static_cast<double>(last.pruned),
             "count", "batch_ms_min");
  report.add("snicit.recovery_ms",
             median_of(replays, [](const auto& r) { return r.recovery_ms; }),
             "ms", "batch_ms_min");

  // Stage shares of the untraced engine runs (RunResult.stages), each
  // run's stage over that run's wall time.
  const double run_ms = median(engine.run_ms);
  const auto share = [&](const char* stage) {
    const auto it = engine.stage_ms.find(stage);
    if (it == engine.stage_ms.end()) return 0.0;
    std::vector<double> shares;
    for (std::size_t i = 0; i < it->second.size() && i < engine.run_ms.size(); ++i) {
      shares.push_back(100.0 * it->second[i] / engine.run_ms[i]);
    }
    return median(std::move(shares));
  };
  report.add("snicit.share.pre", share("pre-convergence"), "%", "batch_ms_min");
  report.add("snicit.share.conversion", share("conversion"), "%",
             "batch_ms_min");
  report.add("snicit.share.post", share("post-convergence"), "%",
             "batch_ms_min");
  report.add("snicit.share.recovery", share("recovery"), "%", "batch_ms_min");
  report.add("snicit.unattributed_ms",
             run_ms - median_of(replays, [](const auto& r) { return r.attributed_ms(); }),
             "ms", "batch_ms_min");
  std::size_t fallbacks = engine.fallbacks;
  for (const ReplayStats& r : replays) fallbacks += r.fallback ? 1 : 0;
  report.add("snicit.fallbacks", static_cast<double>(fallbacks), "count",
             "batch_ms_min");
}

double observability_overhead_pct(snicit::dnn::InferenceEngine& engine,
                                  const SparseDnn& net,
                                  const std::vector<DenseMatrix>& inputs,
                                  snicit::platform::Workspace& ws,
                                  snicit::dnn::RunResult& run, int pairs) {
  namespace trace = snicit::platform::trace;
  namespace metrics = snicit::platform::metrics;
  std::vector<double> on;
  std::vector<double> off;
  for (int p = 0; p < pairs; ++p) {
    for (int half = 0; half < 2; ++half) {
      // Alternate which side runs first, so drift favours neither.
      const bool observed = (half == 0) == (p % 2 == 0);
      trace::set_enabled(observed);
      metrics::set_enabled(observed);
      snicit::platform::Stopwatch sw;
      engine.run_into(net, inputs[static_cast<std::size_t>(p) % inputs.size()],
                      ws, run);
      const double ms = sw.elapsed_ms();
      trace::set_enabled(false);
      metrics::set_enabled(false);
      trace::clear();
      (observed ? on : off).push_back(ms);
    }
  }
  return (median(on) / median(off) - 1.0) * 100.0;
}

void add_stream_metrics(Report& report, snicit::dnn::InferenceEngine& engine,
                        const SparseDnn& net, const DenseMatrix& columns,
                        int rounds, SpanRecorder* spans) {
  core::ParallelStreamOptions options;
  options.batch_size = 16;
  options.workers = 2;
  const core::ParallelStreamExecutor executor(options);
  std::vector<double> round_ms;
  std::vector<double> overhead_ms;
  for (int r = 0; r < rounds; ++r) {
    const auto start = Clock::now();
    const core::StreamResult result = executor.run(engine, net, columns);
    const auto end = Clock::now();
    if (spans != nullptr) {
      spans->add("stream.round", spans->us(start), spans->us(end), -1,
                 static_cast<std::uint64_t>(r));
    }
    // Batch 0 runs inline before the workers start; the rest overlap.
    double critical = result.batch_ms.empty() ? 0.0 : result.batch_ms[0];
    double tail = 0.0;
    for (std::size_t j = 1; j < result.batch_ms.size(); ++j) {
      tail = std::max(tail, result.batch_ms[j]);
    }
    round_ms.push_back(ms_between(start, end));
    overhead_ms.push_back(round_ms.back() - critical - tail);
    report.check(result.complete() &&
                     result.outputs.cols() == columns.cols(),
                 "stream executor round output");
  }
  report.add("stream.round_ms", median(round_ms), "ms",
             "probe.latency_ms_p99");
  report.add("stream.round_overhead_ms", median(overhead_ms), "ms",
             "probe.latency_ms_p99");
}

void add_platform_metrics(Report& report, double obs_overhead_pct,
                          double traced_ms, double untraced_ms,
                          std::size_t steady_allocs) {
  report.add("platform.workspace_mb",
             static_cast<double>(
                 snicit::platform::Workspace::global_bytes_reserved()) /
                 1e6,
             "MB", "peak_rss_mb");
  report.add("platform.steady_allocs", static_cast<double>(steady_allocs),
             "count", "batch_ms_min");
  report.add("platform.obs_overhead_pct", obs_overhead_pct, "%",
             "batch_ms_min");
  report.add("trace.overhead_pct", (traced_ms / untraced_ms - 1.0) * 100.0,
             "%", "batch_ms_min");
}

void add_setup_metrics(Report& report, const SetupTimes& times) {
  report.add("setup.net_s", times.net_s, "s", "setup_s");
  report.add("setup.mirrors_s", times.mirrors_s, "s", "setup_s");
  report.add("setup.inputs_s", times.inputs_s, "s", "setup_s");
  report.add("setup.reference_s", times.reference_s, "s", "setup_s");
  report.add("setup.warmup_s", times.warmup_s, "s", "setup_s");
}

}  // namespace perfbench
