// snicit_cli — the library's command-line front end. Subcommands:
//
//   generate   build a Radix-Net-style network + input batch and write
//              them as SDGC TSV files
//              --neurons N --layers L --batch B --out PREFIX [--mixed-radix]
//   run        run inference on TSV files (or a generated workload) with a
//              chosen engine and report timing + categories
//              --engine snicit|xy2021|snig2020|bf2019|serial|reference
//              [--net PREFIX --neurons N --layers L --bias B] [--batch B]
//              [--threshold T] [--auto-threshold] [--stream CHUNK]
//              [--trace-out FILE] [--metrics-out FILE]
//   analyze    print the per-layer convergence trace of a workload
//              (Figure 1-style: density, saturation, distinct columns)
//   verify-manifest
//              hash every weight file a model manifest pins (sha256) and
//              report mismatches without loading anything — the
//              pre-deployment integrity gate (exit 4 on any mismatch)
//   serve-replay
//              play a seeded load script through the virtual-clock
//              replayer and print its decision/output digests; with
//              --journal it doubles as the crash victim of the chaos
//              lane (--pace-ms widens the SIGKILL window,
//              --halt-after-batches simulates one)
//   replay-journal
//              recover a crashed serve run from its write-ahead journal:
//              replay the script to completion, partition answered vs
//              resubmitted requests, cross-check journaled output
//              digests (exit 4 on any divergence)
//
// Everything defaults to a generated workload so each subcommand runs out
// of the box: `snicit_cli run --engine snicit`. Unknown flags are hard
// errors (exit 2), never silently ignored: a typo like "--worker 4" would
// otherwise run serial and report the wrong numbers.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/autotune.hpp"
#include "baselines/bf2019.hpp"
#include "baselines/serial.hpp"
#include "baselines/snig2020.hpp"
#include "baselines/xy2021.hpp"
#include "data/synthetic.hpp"
#include "dnn/analysis.hpp"
#include "dnn/reference.hpp"
#include "platform/cli.hpp"
#include "platform/fault_injection.hpp"
#include "platform/metrics.hpp"
#include "platform/shutdown.hpp"
#include "platform/trace.hpp"
#include "radixnet/mixed_radix.hpp"
#include "radixnet/radixnet.hpp"
#include "radixnet/sdgc_io.hpp"
#include "serve/dynamic_batcher.hpp"
#include "serve/journal.hpp"
#include "serve/load_replay.hpp"
#include "serve/load_script.hpp"
#include "serve/router.hpp"
#include "snicit/engine.hpp"
#include "snicit/parallel_stream.hpp"
#include "snicit/stream.hpp"
#include "snicit/warm_cache.hpp"

namespace {

using namespace snicit;

// Flag vocabulary per subcommand (workload flags are shared by all).
const std::vector<std::string> kWorkloadFlags = {
    "neurons", "layers", "batch", "seed", "mixed-radix",
    "net",     "input",  "bias"};

std::vector<std::string> known_flags(const std::string& cmd) {
  std::vector<std::string> flags = kWorkloadFlags;
  if (cmd == "generate") {
    flags.push_back("out");
  } else if (cmd == "run") {
    for (const char* f :
         {"engine", "threshold", "sample-size", "downsample", "prune",
          "auto-threshold", "stream", "workers", "queue", "trace-out",
          "metrics-out", "spmm", "faults", "faults-seed",
          "max-attempts", "deadline-ms", "serve-requests", "batch-timeout",
          "packer", "models", "admission-depth", "admission-work-ms",
          "record-script", "journal", "journal-fsync", "self-sigterm",
          "save-state", "restore-state"}) {
      flags.push_back(f);
    }
  } else if (cmd == "serve-replay" || cmd == "replay-journal") {
    for (const char* f :
         {"engine", "threshold", "sample-size", "downsample", "prune",
          "spmm", "faults", "faults-seed", "script-shape",
          "requests", "mean-gap", "deadline-ms", "script-seed",
          "serve-requests", "batch-timeout", "packer", "admission-depth",
          "admission-work-ms", "journal", "journal-fsync"}) {
      flags.push_back(f);
    }
    if (cmd == "serve-replay") {
      for (const char* f :
           {"journal-features", "halt-after-batches", "pace-ms"}) {
        flags.push_back(f);
      }
    } else {
      flags.push_back("journal-only");
    }
  } else if (cmd == "verify-manifest") {
    flags.push_back("models");
  }
  return flags;
}

struct Workload {
  dnn::SparseDnn net;
  dnn::DenseMatrix input;
};

Workload build_workload(const platform::CliArgs& args) {
  const auto neurons =
      static_cast<sparse::Index>(args.get_int("neurons", 1024));
  const auto layers = static_cast<int>(args.get_int("layers", 48));
  const auto batch = static_cast<std::size_t>(args.get_int("batch", 256));

  dnn::SparseDnn net = [&] {
    if (args.has("net")) {
      const float bias = static_cast<float>(
          args.get_double("bias", radixnet::table1_bias(neurons)));
      return radixnet::load_network_tsv(args.get("net", ""), neurons, layers,
                                        bias, 32.0f);
    }
    if (args.has("mixed-radix")) {
      radixnet::MixedRadixOptions opt;
      opt.radices = radixnet::default_radices(neurons);
      opt.layers = layers;
      return radixnet::make_mixed_radix_net(opt);
    }
    radixnet::RadixNetOptions opt;
    opt.neurons = neurons;
    opt.layers = layers;
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    return radixnet::make_radixnet(opt);
  }();

  dnn::DenseMatrix input = [&] {
    if (args.has("input")) {
      return radixnet::load_matrix_tsv(args.get("input", ""),
                                       static_cast<std::size_t>(neurons),
                                       batch);
    }
    data::SdgcInputOptions in_opt;
    in_opt.neurons = static_cast<std::size_t>(neurons);
    in_opt.batch = batch;
    in_opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 42)) + 1;
    return data::make_sdgc_input(in_opt).features;
  }();
  return {std::move(net), std::move(input)};
}

// spMM kernel policy from flags on top of the environment: SNICIT_SPMM
// sets the baseline, --spmm overrides it.
sparse::SpmmPolicy cli_spmm_policy(const platform::CliArgs& args) {
  sparse::SpmmPolicy policy = sparse::SpmmPolicy::from_env();
  if (args.has("spmm")) {
    const std::string name = args.get("spmm", "auto");
    if (!sparse::apply_spmm_spec(name, policy)) {
      throw std::invalid_argument(
          "unknown --spmm spec '" + name +
          "' (expected VARIANT[+EPILOGUE] with VARIANT one of "
          "auto|gather|gather_simd|gather_threaded|scatter|scatter_simd "
          "and EPILOGUE fused|split, or a bare fused|split)");
    }
  }
  return policy;
}

std::unique_ptr<dnn::InferenceEngine> build_engine(
    const platform::CliArgs& args, const Workload& wl) {
  const std::string name = args.get("engine", "snicit");
  const sparse::SpmmPolicy policy = cli_spmm_policy(args);
  if (name == "xy2021") {
    baselines::Xy2021Options opt;
    opt.policy = policy;
    return std::make_unique<baselines::Xy2021Engine>(opt);
  }
  if (name == "snig2020") {
    return std::make_unique<baselines::Snig2020Engine>(0, 4, policy);
  }
  if (name == "bf2019") {
    return std::make_unique<baselines::Bf2019Engine>(0, policy);
  }
  if (name == "autotune") {
    baselines::AutotuneOptions opt;
    opt.policy = policy;
    return std::make_unique<baselines::AutotuneEngine>(opt);
  }
  if (name == "serial") return std::make_unique<baselines::SerialEngine>();
  if (name == "reference") return std::make_unique<dnn::ReferenceEngine>();
  if (name != "snicit" && name != "snicit-warm") {
    throw std::invalid_argument(
        "unknown engine '" + name +
        "' (expected snicit|snicit-warm|xy2021|snig2020|bf2019|autotune|"
        "serial|reference)");
  }
  core::SnicitParams params;
  const auto layers = static_cast<int>(wl.net.num_layers());
  params.threshold_layer = static_cast<int>(
      args.get_int("threshold", layers >= 120 ? 30 : layers / 2));
  params.sample_size = static_cast<int>(args.get_int("sample-size", 32));
  params.downsample_dim =
      static_cast<int>(args.get_int("downsample", 16));
  params.prune_threshold =
      static_cast<float>(args.get_double("prune", 0.0));
  params.auto_threshold = args.has("auto-threshold");
  params.spmm = policy;
  if (name == "snicit-warm") {
    if (params.auto_threshold) {
      throw std::invalid_argument(
          "snicit-warm pins the threshold layer (its cached centroids "
          "were captured at one t); --auto-threshold is unsupported");
    }
    return std::make_unique<core::WarmSnicitEngine>(params);
  }
  return std::make_unique<core::SnicitEngine>(params);
}

// Restores a warm engine's centroid cache before serving. Restore
// failures are *typed fallbacks*: a stale, corrupt, or mismatched
// snapshot logs why and the engine cold-starts — crash recovery must
// never turn an optimisation artifact into a new crash. Returns false
// only for the usage error of pointing the flags at a non-warm engine.
bool apply_restore_state(const platform::CliArgs& args,
                         dnn::InferenceEngine& engine,
                         const Workload& wl) {
  const std::string path = args.get("restore-state", "");
  if (path.empty()) return true;
  auto* warm = dynamic_cast<core::WarmSnicitEngine*>(&engine);
  if (warm == nullptr) {
    std::fprintf(stderr,
                 "error: --restore-state requires --engine snicit-warm\n");
    return false;
  }
  const auto restored = warm->restore_state(
      path, static_cast<std::size_t>(wl.net.neurons()));
  if (restored.ok()) {
    std::printf("restored warm state from %s (%zu centroid(s))\n",
                path.c_str(), warm->cache().size());
  } else {
    std::printf("warm-state restore: %s; cold-starting\n",
                restored.error().message.c_str());
  }
  return true;
}

// Saves the warm engine's centroid cache after a run. Save failures are
// reported but never flip the exit code — the run's answers were already
// delivered; only the *next* restart loses the warm start.
bool apply_save_state(const platform::CliArgs& args,
                      dnn::InferenceEngine& engine) {
  const std::string path = args.get("save-state", "");
  if (path.empty()) return true;
  auto* warm = dynamic_cast<core::WarmSnicitEngine*>(&engine);
  if (warm == nullptr) {
    std::fprintf(stderr,
                 "error: --save-state requires --engine snicit-warm\n");
    return false;
  }
  const auto saved = warm->save_state(path);
  if (saved.ok()) {
    std::printf("saved warm state (%zu centroid(s)) to %s\n",
                warm->cache().size(), path.c_str());
  } else {
    std::fprintf(stderr, "warm-state save failed: %s\n",
                 saved.error().message.c_str());
  }
  return true;
}

void usage();

// Serve policy shared by the single-model (--serve-requests) and
// multi-model (--models) paths. Returns false after printing a usage
// error when the packer name is unknown.
bool parse_serve_options(const platform::CliArgs& args,
                         serve::ServeOptions& opt) {
  opt.max_batch = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("serve-requests", 64), 1));
  opt.batch_timeout_ms =
      std::max(args.get_double("batch-timeout", 2.0), 0.0);
  opt.packer = args.get("packer", "similarity");
  opt.workers = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("workers", 1), 0));
  opt.queue_capacity = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("queue", 0), 0));
  opt.max_attempts = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("max-attempts", 5), 1));
  // Overload control: either admission flag switches the controller on.
  // --admission-depth caps queued-but-undispatched requests per tenant;
  // --admission-work-ms caps the estimated backlog the cost model prices.
  if (args.has("admission-depth") || args.has("admission-work-ms")) {
    opt.admission.enabled = true;
    opt.admission.max_queue_depth = static_cast<std::size_t>(
        std::max<std::int64_t>(args.get_int("admission-depth", 256), 0));
    opt.admission.max_backlog_ms =
        std::max(args.get_double("admission-work-ms", 0.0), 0.0);
  }
  const auto packers = serve::known_packers();
  if (std::find(packers.begin(), packers.end(), opt.packer) ==
      packers.end()) {
    std::fprintf(stderr, "error: unknown --packer '%s'\n",
                 opt.packer.c_str());
    usage();
    return false;
  }
  return true;
}

// Opens the write-ahead journal named by --journal (null when the flag
// is absent). Returns false after printing an error: a bad fsync policy
// is a usage error, an unopenable path a runtime error — either way a
// run that *asked* for durability must not silently run without it.
bool open_cli_journal(const platform::CliArgs& args,
                      std::shared_ptr<serve::JournalWriter>& journal,
                      int& exit_code) {
  const std::string path = args.get("journal", "");
  if (path.empty()) return true;
  const auto policy =
      serve::parse_fsync_policy(args.get("journal-fsync", "always"));
  if (!policy.ok()) {
    std::fprintf(stderr, "error: --journal-fsync: %s\n",
                 policy.error().message.c_str());
    exit_code = 2;
    return false;
  }
  auto opened = serve::JournalWriter::open(path, policy.value());
  if (!opened.ok()) {
    std::fprintf(stderr, "error: --journal: %s\n",
                 opened.error().message.c_str());
    exit_code = 1;
    return false;
  }
  journal = std::shared_ptr<serve::JournalWriter>(std::move(opened).value());
  return true;
}

// The seeded script serve-replay and replay-journal share. Both sides of
// the kill-replay harness MUST pass identical script flags: the script
// is the anchor that makes the replay bit-identical to the oracle.
bool cli_load_script(const platform::CliArgs& args,
                     std::size_t sample_pool,
                     serve::LoadScript& script) {
  serve::LoadScriptSpec spec;
  spec.shape = args.get("script-shape", "poisson");
  if (spec.shape != "poisson" && spec.shape != "burst" &&
      spec.shape != "ramp" && spec.shape != "storm") {
    std::fprintf(stderr,
                 "error: unknown --script-shape '%s' (expected "
                 "poisson|burst|ramp|storm)\n",
                 spec.shape.c_str());
    return false;
  }
  spec.tenants = {""};
  spec.requests_per_tenant = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("requests", 64), 1));
  spec.mean_gap_ms = std::max(args.get_double("mean-gap", 1.0), 0.0);
  spec.deadline_ms = std::max(args.get_double("deadline-ms", 0.0), 0.0);
  spec.seed = static_cast<std::uint64_t>(
      std::max<std::int64_t>(args.get_int("script-seed", 1), 0));
  spec.samples = sample_pool;
  script = serve::make_load_script(spec);
  return true;
}

// Virtual-clock replay policy from flags (the serve-replay/replay-journal
// analogue of parse_serve_options).
bool cli_replay_options(const platform::CliArgs& args,
                        serve::ReplayOptions& opt) {
  opt.max_batch = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("serve-requests", 16), 1));
  opt.batch_timeout_ms =
      std::max(args.get_double("batch-timeout", 2.0), 0.0);
  opt.packer = args.get("packer", "similarity");
  if (args.has("admission-depth") || args.has("admission-work-ms")) {
    opt.admission.enabled = true;
    opt.admission.max_queue_depth = static_cast<std::size_t>(
        std::max<std::int64_t>(args.get_int("admission-depth", 256), 0));
    opt.admission.max_backlog_ms =
        std::max(args.get_double("admission-work-ms", 0.0), 0.0);
  }
  const auto packers = serve::known_packers();
  if (std::find(packers.begin(), packers.end(), opt.packer) ==
      packers.end()) {
    std::fprintf(stderr, "error: unknown --packer '%s'\n",
                 opt.packer.c_str());
    return false;
  }
  return true;
}

// Arms --faults/--faults-seed (same grammar as SNICIT_FAULTS); a typo'd
// spec is a usage error, not a silently fault-free drill.
bool arm_cli_faults(const platform::CliArgs& args) {
  if (!args.has("faults")) return true;
  const auto armed = platform::fault::FaultRegistry::global().configure(
      args.get("faults", ""),
      static_cast<std::uint64_t>(args.get_int("faults-seed", 42)));
  if (!armed.ok()) {
    std::fprintf(stderr, "error: --faults: %s\n",
                 armed.error().message.c_str());
    return false;
  }
  return true;
}

// Writes the recorded submission trace in the load-script text form so a
// live traffic shape can be replayed deterministically afterwards.
bool write_recorded_script(const serve::LoadScriptRecorder& recorder,
                           const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string text = recorder.script().to_text();
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

int cmd_generate(const platform::CliArgs& args) {
  const auto wl = build_workload(args);
  const std::string prefix = args.get("out", "snicit-workload");
  std::printf("writing %zu layer files + input to %s-*.tsv\n",
              wl.net.num_layers(), prefix.c_str());
  radixnet::save_network_tsv(wl.net, prefix);
  radixnet::save_matrix_tsv(wl.input, prefix + "-input.tsv");
  std::printf("done: %s (%lld connections)\n", wl.net.name().c_str(),
              static_cast<long long>(wl.net.connections()));
  return 0;
}

void usage();

int cmd_run(const platform::CliArgs& args) {
  // Observability: --trace-out / --metrics-out switch the runtime flags on
  // for this run and dump the capture on exit (chrome://tracing JSON and a
  // counters/gauges/series document respectively).
  const std::string trace_out = args.get("trace-out", "");
  const std::string metrics_out = args.get("metrics-out", "");
  if (!trace_out.empty()) {
    platform::trace::clear();
    platform::trace::set_enabled(true);
  }
  if (!metrics_out.empty()) {
    platform::metrics::MetricsRegistry::global().reset();
    platform::metrics::set_enabled(true);
  }
  const auto write_observability = [&] {
    if (!trace_out.empty()) {
      if (platform::trace::write_chrome_trace(trace_out)) {
        std::printf("wrote %zu trace events to %s\n",
                    platform::trace::event_count(), trace_out.c_str());
      } else {
        std::fprintf(stderr, "failed to write trace to %s\n",
                     trace_out.c_str());
      }
    }
    if (!metrics_out.empty()) {
      auto& registry = platform::metrics::MetricsRegistry::global();
      if (registry.write_json(metrics_out)) {
        std::printf("wrote metrics dump to %s\n", metrics_out.c_str());
      } else {
        std::fprintf(stderr, "failed to write metrics to %s\n",
                     metrics_out.c_str());
      }
    }
  };

  // --faults arms the deterministic fault-injection registry for this
  // run (same spec grammar as SNICIT_FAULTS); a malformed spec is a
  // usage error, not a silently fault-free drill.
  if (!arm_cli_faults(args)) return 2;

  // --self-sigterm N raises SIGTERM after the N-th submission — the
  // deterministic stand-in for an operator's kill that the exit-code
  // regression tests drive. Serving paths install the handler so a real
  // SIGTERM/SIGINT takes the same graceful-drain path.
  const std::int64_t self_sigterm =
      args.has("self-sigterm") ? args.get_int("self-sigterm", 0) : -1;

  if (args.has("models")) {
    // Multi-model serving: load every model of the manifest into a
    // registry and route an interleaved request stream through per-tenant
    // lanes sharing one worker budget.
    if (!args.has("serve-requests")) {
      std::fprintf(stderr,
                   "error: --models requires --serve-requests "
                   "(multi-model serving is request-level)\n");
      usage();
      return 2;
    }
    serve::ServeOptions opt;
    if (!parse_serve_options(args, opt)) return 2;
    int journal_exit = 0;
    std::shared_ptr<serve::JournalWriter> journal;
    if (!open_cli_journal(args, journal, journal_exit)) return journal_exit;
    opt.journal = journal;
    platform::ShutdownController::global().reset();
    platform::ShutdownController::global().install();
    const double deadline_ms =
        std::max(args.get_double("deadline-ms", 0.0), 0.0);

    serve::ModelRegistry registry;
    const auto loaded = registry.load_manifest(args.get("models", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.error().message.c_str());
      // Corrupt/tampered artifacts (sha256 mismatch, bad weight bytes)
      // exit 4 so deploy scripts can tell integrity from a typo'd flag.
      return loaded.error().code == platform::ErrorCode::kBadModelFile ? 4
                                                                       : 2;
    }
    const auto ids = registry.ids();
    std::printf("serving %zu model(s):", ids.size());
    for (const auto& id : ids) {
      const auto model = registry.find(id);
      std::printf(" %s(%s)", id.c_str(), model->prototype->name().c_str());
    }
    std::printf("\n");

    // One synthetic input batch per model, --batch requests each,
    // submitted round-robin so tenants genuinely interleave.
    const auto batch = static_cast<std::size_t>(
        std::max<std::int64_t>(args.get_int("batch", 256), 1));
    std::vector<dnn::DenseMatrix> inputs;
    for (const auto& id : ids) {
      const auto model = registry.find(id);
      data::SdgcInputOptions in_opt;
      in_opt.neurons = static_cast<std::size_t>(model->net->neurons());
      in_opt.batch = batch;
      in_opt.seed = model->spec.seed + 1;
      inputs.push_back(data::make_sdgc_input(in_opt).features);
    }

    serve::RouterOptions ropt;
    ropt.serve = opt;
    serve::Router router(registry, ropt);
    serve::LoadScriptRecorder recorder;
    const std::string record_path = args.get("record-script", "");
    bool submit_failed = false;
    bool intake_closed = false;
    std::size_t rejected = 0;
    std::size_t submitted = 0;
    for (std::size_t j = 0; j < batch && !submit_failed && !intake_closed;
         ++j) {
      for (std::size_t m = 0; m < ids.size(); ++m) {
        if (self_sigterm >= 0 &&
            submitted == static_cast<std::size_t>(self_sigterm)) {
          std::raise(SIGTERM);
        }
        ++submitted;
        const auto& input = inputs[m];
        std::vector<float> features(input.col(j),
                                    input.col(j) + input.rows());
        // The script records the *offered* load (including what admission
        // refuses) — replaying it reproduces the same overload.
        if (!record_path.empty()) {
          recorder.record(ids[m], j, serve::Priority::kStandard,
                          deadline_ms);
        }
        const auto sub =
            router.submit(ids[m], std::move(features), deadline_ms);
        if (!sub.ok()) {
          if (sub.error().code ==
              platform::ErrorCode::kRejectedOverload) {
            ++rejected;  // fast-fail is the contract; keep offering load
            continue;
          }
          if (sub.error().code == platform::ErrorCode::kQueueClosed &&
              platform::ShutdownController::global().requested()) {
            // The signal closed intake mid-stream: stop offering load and
            // let accepted requests drain — the graceful path, not an
            // error.
            intake_closed = true;
            break;
          }
          std::fprintf(stderr, "error: submit to '%s' failed: %s\n",
                       ids[m].c_str(), sub.error().message.c_str());
          submit_failed = true;
          break;
        }
      }
    }
    const auto report = router.finish();
    if (!record_path.empty()) {
      if (write_recorded_script(recorder, record_path)) {
        std::printf("recorded %zu arrival(s) to %s\n", recorder.size(),
                    record_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write load script to %s\n",
                     record_path.c_str());
      }
    }
    std::printf(
        "served %zu tenant(s) in %.2f ms (%zu shared worker(s), max batch "
        "%zu, packer %s)\n",
        report.tenants.size(), report.wall_ms,
        std::max<std::size_t>(opt.workers, 1), opt.max_batch,
        opt.packer.c_str());
    bool complete = !submit_failed;
    std::size_t shed = 0;
    int max_level = 0;
    for (const auto& [id, tenant] : report.tenants) {
      shed += tenant.shed_requests;
      max_level = std::max(max_level, tenant.max_brownout_level);
      std::printf(
          "  %-16s %5zu req / %4zu round(s) / %4zu batch(es)  fill %.2f  "
          "latency p50 %.2f ms p95 %.2f ms%s\n",
          id.c_str(), tenant.requests, tenant.rounds, tenant.batches,
          tenant.mean_fill(), tenant.latency.p50(), tenant.latency.p95(),
          tenant.complete() ? "" : "  [INCOMPLETE]");
      if (!tenant.complete()) {
        complete = false;
        std::printf(
            "    %zu failed request(s), %zu timed out, %zu shed\n",
            tenant.failed_requests, tenant.timed_out_requests,
            tenant.shed_requests);
      }
    }
    if (opt.admission.enabled) {
      // Intake rejections are overload control *working* — fast-failed
      // before acceptance, so they never flip the exit code. Sheds hit
      // accepted requests and count against complete() like any failure.
      std::printf(
          "overload control: %zu rejected at intake, %zu shed, max "
          "brownout level %d (%s)\n",
          rejected, shed, max_level,
          serve::to_string(static_cast<serve::BrownoutLevel>(max_level)));
    }
    std::size_t journal_errors = 0;
    for (const auto& [id, tenant] : report.tenants) {
      journal_errors += tenant.journal_errors;
    }
    if (journal != nullptr) {
      journal->close();
      if (journal_errors > 0) {
        std::fprintf(stderr, "warning: %zu journal append(s) failed\n",
                     journal_errors);
      }
    }
    if (report.drained_on_signal) {
      std::printf("drained on signal: intake closed, accepted requests "
                  "served, report flushed\n");
    }
    write_observability();
    // Precedence: lost work (3) always beats a clean signal drain (5) —
    // an operator's kill that still lost requests must read as loss.
    if (!complete) return 3;
    return report.drained_on_signal ? 5 : 0;
  }

  const auto wl = build_workload(args);
  auto engine = build_engine(args, wl);
  wl.net.ensure_csc();
  if (!apply_restore_state(args, *engine, wl)) return 2;

  std::printf("running %s on %s, batch %zu\n", engine->name().c_str(),
              wl.net.name().c_str(), wl.input.cols());

  if (args.has("serve-requests")) {
    // Request-level serving: every input column is submitted as an
    // individual request and the dynamic batcher re-forms engine batches
    // under the max-batch / batch-timeout policy with the chosen packer.
    serve::ServeOptions opt;
    if (!parse_serve_options(args, opt)) return 2;
    int journal_exit = 0;
    std::shared_ptr<serve::JournalWriter> journal;
    if (!open_cli_journal(args, journal, journal_exit)) return journal_exit;
    opt.journal = journal;
    platform::ShutdownController::global().reset();
    platform::ShutdownController::global().install();
    // In serve mode --deadline-ms is the per-request latency budget.
    const double deadline_ms =
        std::max(args.get_double("deadline-ms", 0.0), 0.0);

    serve::DynamicBatcher batcher(*engine, wl.net, opt);
    serve::LoadScriptRecorder recorder;
    const std::string record_path = args.get("record-script", "");
    std::size_t rejected = 0;
    for (std::size_t j = 0; j < wl.input.cols(); ++j) {
      if (self_sigterm >= 0 &&
          j == static_cast<std::size_t>(self_sigterm)) {
        std::raise(SIGTERM);
      }
      std::vector<float> features(wl.input.col(j),
                                  wl.input.col(j) + wl.input.rows());
      if (!record_path.empty()) {
        recorder.record("", j, serve::Priority::kStandard, deadline_ms);
      }
      const auto id = batcher.submit(std::move(features), deadline_ms);
      if (!id.ok()) {
        if (id.error().code == platform::ErrorCode::kRejectedOverload) {
          ++rejected;  // typed fast-fail under overload; keep offering
          continue;
        }
        if (id.error().code == platform::ErrorCode::kQueueClosed &&
            platform::ShutdownController::global().requested()) {
          break;  // signal closed intake; drain what was accepted
        }
        std::fprintf(stderr, "error: submit failed: %s\n",
                     id.error().message.c_str());
        break;
      }
    }
    const auto report = batcher.finish();
    if (!record_path.empty()) {
      if (write_recorded_script(recorder, record_path)) {
        std::printf("recorded %zu arrival(s) to %s\n", recorder.size(),
                    record_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write load script to %s\n",
                     record_path.c_str());
      }
    }
    std::printf(
        "served %zu request(s) as %zu round(s) / %zu engine batch(es) "
        "(max batch %zu, timeout %.2f ms, packer %s, %zu worker(s))\n",
        report.requests, report.rounds, report.batches, opt.max_batch,
        opt.batch_timeout_ms, opt.packer.c_str(),
        std::max<std::size_t>(opt.workers, 1));
    std::printf(
        "batch fill %.2f, packing similarity %.3f, throughput %.0f "
        "requests/s\n",
        report.mean_fill(), report.mean_similarity(), report.throughput());
    std::printf("queue wait: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
                report.queue_wait.p50(), report.queue_wait.p95(),
                report.queue_wait.p99());
    std::printf("request latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
                report.latency.p50(), report.latency.p95(),
                report.latency.p99());
    if (opt.admission.enabled) {
      std::printf(
          "overload control: %zu rejected at intake, %zu shed, max "
          "brownout level %d (%s)\n",
          rejected, report.shed_requests, report.max_brownout_level,
          serve::to_string(static_cast<serve::BrownoutLevel>(
              report.max_brownout_level)));
    }
    auto& fault_registry = platform::fault::FaultRegistry::global();
    if (report.retries > 0 || report.degraded_batches > 0 ||
        !report.complete() || fault_registry.armed()) {
      std::printf(
          "fault tolerance: %zu retr%s, %zu degraded batch(es), "
          "%zu failed request(s), %zu timed-out request(s)\n",
          report.retries, report.retries == 1 ? "y" : "ies",
          report.degraded_batches, report.failed_requests,
          report.timed_out_requests);
      for (const auto& result : report.results) {
        if (!result.ok()) {
          std::printf("  request %zu failed: [%s] %s\n", result.id,
                      platform::to_string(result.code),
                      result.message.c_str());
        }
      }
      if (fault_registry.armed()) {
        std::printf("  armed faults: %s (seed %llu)\n",
                    fault_registry.spec().c_str(),
                    static_cast<unsigned long long>(fault_registry.seed()));
      }
    }
    if (journal != nullptr) {
      journal->close();
      if (report.journal_errors > 0) {
        std::fprintf(stderr, "warning: %zu journal append(s) failed\n",
                     report.journal_errors);
      }
    }
    if (report.drained_on_signal) {
      std::printf("drained on signal: intake closed, accepted requests "
                  "served, report flushed\n");
    }
    if (!apply_save_state(args, *engine)) return 2;
    write_observability();
    // Precedence: lost work (3) always beats a clean signal drain (5).
    if (!report.complete()) return 3;
    return report.drained_on_signal ? 5 : 0;
  }

  if (args.has("stream")) {
    core::ParallelStreamOptions opt;
    opt.batch_size =
        static_cast<std::size_t>(args.get_int("stream", 256));
    opt.workers = static_cast<std::size_t>(
        std::max<std::int64_t>(args.get_int("workers", 1), 0));
    opt.queue_capacity = static_cast<std::size_t>(
        std::max<std::int64_t>(args.get_int("queue", 0), 0));
    opt.max_attempts = static_cast<std::size_t>(
        std::max<std::int64_t>(args.get_int("max-attempts", 5), 1));
    opt.batch_deadline_ms = args.get_double("deadline-ms", 0.0);
    const core::ParallelStreamExecutor executor(opt);
    const auto streamed = executor.run(*engine, wl.net, wl.input);
    std::printf("%zu batches of <= %zu on %zu worker(s): total %.2f ms, "
                "mean %.2f ms, throughput %.0f samples/s\n",
                streamed.batches, opt.batch_size,
                std::max<std::size_t>(opt.workers, 1), streamed.total_ms,
                streamed.mean_batch_ms(),
                streamed.throughput(wl.input.cols()));
    std::printf("batch latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
                streamed.latency.p50(), streamed.latency.p95(),
                streamed.latency.p99());
    // Fault-tolerance ledger: what was retried, degraded, or lost. Lost
    // batches (zeroed output columns) make the run exit nonzero so fault
    // drills in scripts cannot silently pass.
    auto& fault_registry = platform::fault::FaultRegistry::global();
    if (streamed.retries > 0 || streamed.degraded_batches > 0 ||
        !streamed.failures.empty() || fault_registry.armed()) {
      std::printf(
          "fault tolerance: %zu retr%s, %zu degraded batch(es), "
          "%zu lost batch(es)\n",
          streamed.retries, streamed.retries == 1 ? "y" : "ies",
          streamed.degraded_batches, streamed.lost_batches());
      for (const auto& failure : streamed.failures) {
        std::printf("  batch %zu lost after %zu attempt(s): [%s] %s\n",
                    failure.batch, failure.attempts,
                    platform::to_string(failure.code),
                    failure.message.c_str());
      }
      if (fault_registry.armed()) {
        std::printf("  armed faults: %s (seed %llu)\n",
                    fault_registry.spec().c_str(),
                    static_cast<unsigned long long>(fault_registry.seed()));
      }
    }
    write_observability();
    return streamed.complete() ? 0 : 3;
  }

  const auto result = engine->run(wl.net, wl.input);
  std::printf("total: %.2f ms\n", result.total_ms());
  for (const auto& stage : result.stages.entries()) {
    std::printf("  %-20s %10.2f ms\n", stage.name.c_str(), stage.ms);
  }
  for (const auto& [key, value] : result.diagnostics) {
    std::printf("  %-20s %10g\n", key.c_str(), value);
  }
  const auto cats = dnn::sdgc_categories(result.output, 1e-3f);
  std::size_t active = 0;
  for (int c : cats) active += static_cast<std::size_t>(c);
  std::printf("active outputs: %zu / %zu\n", active, cats.size());
  if (!apply_save_state(args, *engine)) return 2;
  write_observability();
  return 0;
}

int cmd_verify_manifest(const platform::CliArgs& args) {
  if (!args.has("models")) {
    std::fprintf(stderr, "error: verify-manifest requires --models FILE\n");
    usage();
    return 2;
  }
  const std::string path = args.get("models", "");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open model manifest '%s'\n",
                 path.c_str());
    return 4;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto specs = serve::ModelRegistry::parse_manifest_text(text.str());
  if (!specs.ok()) {
    std::fprintf(stderr, "error: %s\n", specs.error().message.c_str());
    return 4;
  }
  int rc = 0;
  std::size_t pinned = 0;
  for (const auto& spec : specs.value()) {
    const auto verified = serve::ModelRegistry::verify_artifacts(spec);
    if (!verified.ok()) {
      std::printf("%-16s FAIL  %s\n", spec.id.c_str(),
                  verified.error().message.c_str());
      rc = 4;
    } else if (verified.value() == 0) {
      std::printf("%-16s unpinned (no sha256 in manifest)\n",
                  spec.id.c_str());
    } else {
      std::printf("%-16s ok    %zu weight file(s) verified\n",
                  spec.id.c_str(), verified.value());
      ++pinned;
    }
  }
  std::printf("%zu model(s), %zu pinned, %s\n", specs.value().size(),
              pinned, rc == 0 ? "all verified" : "INTEGRITY FAILURE");
  return rc;
}

// Builds the single-tenant replay substrate + script + options the
// serve-replay and replay-journal subcommands share, then hands off.
int cmd_serve_replay(const platform::CliArgs& args) {
  if (!arm_cli_faults(args)) return 2;
  const auto wl = build_workload(args);
  auto engine = build_engine(args, wl);
  wl.net.ensure_csc();

  serve::LoadScript script;
  if (!cli_load_script(args, wl.input.cols(), script)) return 2;
  serve::ReplayOptions opt;
  if (!cli_replay_options(args, opt)) return 2;

  int journal_exit = 0;
  std::shared_ptr<serve::JournalWriter> journal;
  if (!open_cli_journal(args, journal, journal_exit)) return journal_exit;
  opt.journal = journal.get();
  opt.journal_features = args.has("journal-features");
  opt.halt_after_batches = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("halt-after-batches", 0), 0));
  opt.pace_ms = std::max(args.get_double("pace-ms", 0.0), 0.0);

  serve::LoadReplayer replayer(opt);
  replayer.add_tenant("", *engine, wl.net, wl.input);
  const auto report = replayer.run(script);
  if (journal != nullptr) journal->close();

  std::printf(
      "replayed %s script (%zu event(s), seed %llu) on %s: %zu "
      "completed, %zu rejected, %zu shed, %zu batch(es)%s\n",
      script.name.c_str(), script.events.size(),
      static_cast<unsigned long long>(script.seed), engine->name().c_str(),
      report.completed(), report.rejected(), report.shed(),
      report.batches.size(),
      report.halted ? "  [HALTED mid-run]" : "");
  if (report.journal_errors > 0) {
    std::fprintf(stderr, "warning: %zu journal append(s) failed\n",
                 report.journal_errors);
  }
  std::printf("decision digest %016llx\n",
              static_cast<unsigned long long>(report.decision_digest()));
  std::printf("output digest %016llx\n",
              static_cast<unsigned long long>(report.output_digest()));
  return 0;
}

int cmd_replay_journal(const platform::CliArgs& args) {
  if (!args.has("journal")) {
    std::fprintf(stderr, "error: replay-journal requires --journal FILE\n");
    usage();
    return 2;
  }
  if (!arm_cli_faults(args)) return 2;
  const auto contents = serve::read_journal(args.get("journal", ""));
  if (!contents.ok()) {
    std::fprintf(stderr, "error: %s\n", contents.error().message.c_str());
    return 4;
  }
  if (contents.value().truncated_tail) {
    std::printf("journal tail recovered: %s\n",
                contents.value().truncation_reason.c_str());
  }
  std::printf("journal: %zu admit(s), %zu completion(s)\n",
              contents.value().admits.size(),
              contents.value().completes.size());

  const auto wl = build_workload(args);
  auto engine = build_engine(args, wl);
  wl.net.ensure_csc();

  serve::ReplayOptions opt;
  if (!cli_replay_options(args, opt)) return 2;
  std::map<std::string, serve::JournalTenant> tenants;
  tenants[""] = serve::JournalTenant{engine.get(), &wl.net, &wl.input};

  serve::LoadScript script;
  const bool journal_only = args.has("journal-only");
  if (!journal_only &&
      !cli_load_script(args, wl.input.cols(), script)) {
    return 2;
  }
  const auto replayed = serve::replay_journal(
      contents.value(), journal_only ? nullptr : &script, tenants, opt);
  if (!replayed.ok()) {
    std::fprintf(stderr, "error: %s\n", replayed.error().message.c_str());
    return 4;
  }
  const auto& result = replayed.value();
  std::printf(
      "recovered: %zu answered pre-crash (suppressed), %zu resubmitted "
      "and served by replay\n",
      result.suppressed.size(), result.resubmitted.size());
  if (result.digest_mismatches > 0) {
    std::fprintf(stderr,
                 "error: %zu journaled completion(s) disagree with the "
                 "replayed outputs — pre-crash and replay diverged\n",
                 result.digest_mismatches);
  }
  std::printf("decision digest %016llx\n",
              static_cast<unsigned long long>(result.decision_digest()));
  std::printf("output digest %016llx\n",
              static_cast<unsigned long long>(result.output_digest()));
  return result.digest_mismatches == 0 ? 0 : 4;
}

int cmd_analyze(const platform::CliArgs& args) {
  const auto wl = build_workload(args);
  std::printf("per-layer trace of %s (batch %zu):\n", wl.net.name().c_str(),
              wl.input.cols());
  std::printf("%6s %10s %10s %10s\n", "layer", "density", "saturated",
              "distinct");
  for (const auto& row : dnn::layer_trace(wl.net, wl.input)) {
    std::printf("%6zu %10.4f %10.4f %10zu\n", row.layer, row.density,
                row.saturated_fraction, row.distinct_columns);
  }
  return 0;
}

void usage() {
  std::printf(
      "usage: snicit_cli <generate|run|analyze> [options]\n"
      "  common:   --neurons N --layers L --batch B --seed S\n"
      "            --mixed-radix | --net PREFIX --input FILE --bias B\n"
      "  generate: --out PREFIX\n"
      "  run:      --engine snicit|xy2021|snig2020|bf2019|autotune|serial|"
      "reference\n"
      "            --threshold T --sample-size S --downsample N --prune P\n"
      "            --auto-threshold --stream CHUNK --workers N --queue C\n"
      "            --spmm VARIANT[+fused|+split] | fused | split\n"
      "              (VARIANT: auto|gather|gather_simd|gather_threaded|"
      "scatter|scatter_simd;\n"
      "               the epilogue arm picks fused bias+ReLU stores vs a "
      "separate pass)\n"
      "            --trace-out FILE (chrome://tracing JSON)\n"
      "            --metrics-out FILE (workload counters/series JSON)\n"
      "            --faults SPEC (deterministic fault drill, e.g.\n"
      "              worker_throw:0.05,nan_tile:0.01 — same grammar as\n"
      "              SNICIT_FAULTS) --faults-seed S (default 42)\n"
      "            --max-attempts N (per-batch retry budget, default 5)\n"
      "            --deadline-ms D (per-batch deadline, 0 = none;\n"
      "              in serve mode: per-request latency budget)\n"
      "            --serve-requests [B] (request-level serving: submit\n"
      "              every input column as an individual request; B is the\n"
      "              max engine batch the dynamic batcher packs, default "
      "64)\n"
      "            --batch-timeout MS (serve round fill window, default "
      "2.0)\n"
      "            --packer fifo|similarity (serve batch packing "
      "strategy)\n"
      "            --admission-depth N (overload control: per-tenant cap\n"
      "              on queued requests; refused submits fast-fail with\n"
      "              rejected_overload + a retry-after hint)\n"
      "            --admission-work-ms MS (cap on estimated queued work\n"
      "              priced by the EWMA cost model; either admission flag\n"
      "              enables the controller and the brownout ladder)\n"
      "            --record-script FILE (record the offered submission\n"
      "              stream as a load script replayable by the overload\n"
      "              conformance harness)\n"
      "            --models FILE (multi-model serving: JSON manifest\n"
      "              {\"models\":[{\"id\":...,\"engine\":...,...}]}; routes\n"
      "              --batch requests per model through per-tenant lanes\n"
      "              sharing the --workers budget; needs --serve-requests)\n"
      "            --journal FILE (write-ahead request journal: admits\n"
      "              before batching, terminal outcomes on resolve)\n"
      "            --journal-fsync none|always (default always)\n"
      "            --self-sigterm N (raise SIGTERM after the N-th\n"
      "              submission: deterministic graceful-drain drill)\n"
      "            --save-state FILE / --restore-state FILE (snicit-warm\n"
      "              centroid-cache snapshot; a stale or corrupt snapshot\n"
      "              cold-starts, never crashes)\n"
      "  analyze:  (common options only)\n"
      "  verify-manifest: --models FILE (hash pinned weight files; exit 4\n"
      "              on any sha256 mismatch or unreadable artifact)\n"
      "  serve-replay: deterministic virtual-clock serve of a seeded load\n"
      "              script; prints decision/output digests\n"
      "            --script-shape poisson|burst|ramp|storm --requests N\n"
      "            --mean-gap MS --script-seed S --deadline-ms D\n"
      "            --serve-requests B --batch-timeout MS --packer P\n"
      "            --admission-depth N --admission-work-ms MS\n"
      "            --journal FILE --journal-fsync none|always\n"
      "            --journal-features (journal each admit's sample column)\n"
      "            --halt-after-batches K (simulated SIGKILL between\n"
      "              rounds) --pace-ms MS (real sleep per batch: widens\n"
      "              the chaos lane's kill window)\n"
      "  replay-journal: recover a crashed serve-replay run\n"
      "            --journal FILE (required) + the SAME workload/script\n"
      "              flags as the crashed run (the script anchors the\n"
      "              bit-identical replay); --journal-only reconstructs\n"
      "              the script from journaled admits instead\n"
      "exit codes: 0 ok, 1 runtime error, 2 usage error, 3 lost batches /"
      " failed requests,\n"
      "            4 integrity failure (sha256/journal digest mismatch), "
      "5 drained on signal\n");
}

}  // namespace

int main(int argc, char** argv) {
  const platform::CliArgs args(argc, argv);
  const std::string cmd = args.positional(0, "");
  const bool known_cmd = cmd == "generate" || cmd == "run" ||
                         cmd == "analyze" || cmd == "verify-manifest" ||
                         cmd == "serve-replay" || cmd == "replay-journal";
  if (known_cmd) {
    const auto unknown = args.unknown_options(known_flags(cmd));
    if (!unknown.empty()) {
      for (const auto& name : unknown) {
        std::fprintf(stderr, "error: unknown flag '--%s' for '%s'\n",
                     name.c_str(), cmd.c_str());
      }
      usage();
      return 2;
    }
  }
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "verify-manifest") return cmd_verify_manifest(args);
    if (cmd == "serve-replay") return cmd_serve_replay(args);
    if (cmd == "replay-journal") return cmd_replay_journal(args);
  } catch (const std::invalid_argument& e) {
    // Bad flag *values* (unknown engine, malformed spec) are usage
    // errors, same as unknown flags — deploy scripts branch on 2 vs 1.
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return cmd.empty() ? 0 : 2;
}
