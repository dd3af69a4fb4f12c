// bench_overload — offered-load sweep for the overload-control layer,
// measured on the deterministic load-replay harness (virtual clock, no
// sleeps): every number here is an exact function of (script, options).
//
// Sweep: offered load x in {0.5, 1, 2, 4} times the virtual server's
// capacity, each cell replayed twice — admission control off (the
// uncontrolled blocking baseline) and on. The quantity defended is
// goodput: in-budget completions per virtual second. Uncontrolled
// overload exhibits congestion collapse (the queue grows without bound,
// queue wait crosses every deadline, and the server finishes work that is
// already too late); admission caps the backlog so accepted work still
// completes inside its budget.
//
// Isolation cell: a bursting "bully" tenant dumps its whole stream at
// once next to a Poisson "victim". With the bully's per-tenant depth
// quota set to 0 the victim's replay must be *bit-identical* to its
// no-flood oracle (same script filtered to victim events); with a normal
// quota the victim's p95 stays bounded.
//
//   bench_overload [--requests N] [--max-batch B] [--timeout MS]
//                  [--deadline MS] [--depth D] [--loads 0.5,1,2,4]
//                  [--sheddable F] [--seed S] [--json FILE] [--check]
//
// --check exits nonzero unless (a) goodput with admission at 2x offered
// load strictly beats the uncontrolled baseline, and (b) the quota-0
// flood leaves the victim's acceptance rate at 1.0 with p95 exactly
// equal to the no-flood oracle.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/serial.hpp"
#include "bench_util.hpp"
#include "data/synthetic.hpp"
#include "platform/cli.hpp"
#include "platform/json.hpp"
#include "radixnet/radixnet.hpp"
#include "serve/load_replay.hpp"

namespace {

using namespace snicit;

struct Row {
  std::string cell;       // "sweep" | "flood"
  double load = 0.0;      // offered-load multiple of capacity
  bool admission = false;
  std::string tenant;     // "" = all tenants pooled
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t late = 0;
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  double accept_rate = 1.0;
  double p95_ms = 0.0;
  double goodput = 0.0;   // in-budget completions / virtual second
  int max_level = 0;
  double makespan_ms = 0.0;
};

std::vector<double> parse_loads(const std::string& text,
                                std::vector<double> fallback) {
  if (text.empty()) return fallback;
  std::vector<double> loads;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    try {
      const double x = std::stod(item);
      if (x > 0.0) loads.push_back(x);
    } catch (const std::exception&) {
    }
  }
  return loads.empty() ? fallback : loads;
}

void print_row(const Row& row) {
  std::printf(
      "%5s %5.2fx %9s %8s | %5zu %5zu %5zu %5zu %5zu %5zu | %6.2f %8.2f "
      "%7.1f  L%d\n",
      row.cell.c_str(), row.load, row.admission ? "admission" : "none",
      row.tenant.empty() ? "all" : row.tenant.c_str(), row.submitted,
      row.completed, row.late, row.timed_out, row.rejected, row.shed,
      row.accept_rate, row.p95_ms, row.goodput, row.max_level);
}

Row pooled_row(const std::string& cell, double load, bool admission,
               const serve::ReplayReport& report) {
  Row row;
  row.cell = cell;
  row.load = load;
  row.admission = admission;
  row.submitted = report.submitted();
  row.completed = report.completed();
  row.rejected = report.rejected();
  row.shed = report.shed();
  for (const auto& [id, t] : report.tenants) {
    row.late += t.late;
    row.timed_out += t.timed_out;
  }
  row.accept_rate =
      row.submitted == 0
          ? 1.0
          : 1.0 - static_cast<double>(row.rejected) /
                      static_cast<double>(row.submitted);
  row.goodput = report.goodput_per_s();
  row.max_level = report.max_brownout_level;
  row.makespan_ms = report.makespan_ms;
  // Pooled p95 over every served request.
  platform::QuantileTracker latency;
  for (const auto& r : report.requests) {
    if (r.served()) latency.add(r.latency_ms);
  }
  row.p95_ms = latency.p95();
  return row;
}

Row tenant_row(const std::string& cell, double load, bool admission,
               const std::string& id, const serve::ReplayReport& report) {
  Row row;
  row.cell = cell;
  row.load = load;
  row.admission = admission;
  row.tenant = id;
  const auto& t = report.tenant(id);
  row.submitted = t.submitted;
  row.completed = t.completed;
  row.late = t.late;
  row.rejected = t.rejected;
  row.shed = t.shed;
  row.timed_out = t.timed_out;
  row.accept_rate = t.accept_rate();
  row.p95_ms = t.latency.p95();
  row.goodput = report.makespan_ms <= 0.0
                    ? 0.0
                    : 1000.0 * static_cast<double>(t.completed) /
                          report.makespan_ms;
  row.max_level = report.max_brownout_level;
  row.makespan_ms = report.makespan_ms;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const platform::CliArgs args(argc, argv);
  const bench::ObservabilityScope observability;
  bench::print_title(
      "Overload-control sweep: offered load x admission policy "
      "(virtual-clock replay)");

  const bool check = args.has("check");
  const auto requests = static_cast<std::size_t>(
      args.get_int("requests", bench::large_scale() ? 1024 : 256));
  const auto max_batch = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("max-batch", 16), 1));
  const double timeout_ms = std::max(args.get_double("timeout", 2.0), 0.0);
  const double deadline_ms =
      std::max(args.get_double("deadline", 10.0), 0.1);
  const auto depth = static_cast<std::size_t>(
      std::max<std::int64_t>(args.get_int("depth", 32), 1));
  const double sheddable =
      std::min(std::max(args.get_double("sheddable", 0.25), 0.0), 1.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto loads =
      parse_loads(args.get("loads", ""), {0.5, 1.0, 2.0, 4.0});
  const std::string json_out = args.get("json", "");

  // The replayer needs a real (net, samples, engine) triple per tenant
  // even though the sweeps run scheduling-only; keep it tiny.
  radixnet::RadixNetOptions net_opt;
  net_opt.neurons = 64;
  net_opt.layers = 4;
  net_opt.seed = seed;
  dnn::SparseDnn net = radixnet::make_radixnet(net_opt);
  net.ensure_csc();
  data::SdgcInputOptions in_opt;
  in_opt.neurons = 64;
  in_opt.batch = 64;
  in_opt.seed = seed + 1;
  const dnn::DenseMatrix samples = data::make_sdgc_input(in_opt).features;
  baselines::SerialEngine engine;

  const auto make_options = [&](bool admission) {
    serve::ReplayOptions opt;
    opt.max_batch = max_batch;
    opt.batch_timeout_ms = timeout_ms;
    opt.run_engines = false;  // scheduling-only: big grids, zero noise
    if (admission) {
      opt.admission.enabled = true;
      opt.admission.max_queue_depth = depth;
    }
    return opt;
  };

  // Virtual capacity: ms of service bought per request at full batches.
  const double per_request_ms =
      serve::kReplayServiceColMs +
      serve::kReplayServiceBaseMs / static_cast<double>(max_batch);

  std::printf(
      "%zu requests/cell, max batch %zu, fill timeout %.1f ms, deadline "
      "%.1f ms, depth cap %zu, sheddable fraction %.2f, capacity %.3f "
      "ms/request\n",
      requests, max_batch, timeout_ms, deadline_ms, depth, sheddable,
      per_request_ms);
  std::printf(
      "\n%5s %6s %9s %8s | %5s %5s %5s %5s %5s %5s | %6s %8s %7s\n",
      "cell", "load", "policy", "tenant", "subm", "done", "late", "tout",
      "rej", "shed", "accept", "p95 ms", "good/s");

  std::vector<Row> rows;
  double goodput_controlled_2x = -1.0;
  double goodput_uncontrolled_2x = -1.0;

  // --- Offered-load sweep -------------------------------------------
  for (const double load : loads) {
    serve::LoadScriptSpec spec;
    spec.shape = "poisson";
    spec.tenants = {"t0"};
    spec.requests_per_tenant = requests;
    spec.mean_gap_ms = per_request_ms / load;
    spec.deadline_ms = deadline_ms;
    spec.sheddable_fraction = sheddable;
    spec.seed = seed;
    spec.samples = samples.cols();
    const serve::LoadScript script = serve::make_load_script(spec);
    for (const bool admission : {false, true}) {
      serve::LoadReplayer replayer(make_options(admission));
      replayer.add_tenant("t0", engine, net, samples);
      const auto report = replayer.run(script);
      const Row row = pooled_row("sweep", load, admission, report);
      print_row(row);
      rows.push_back(row);
      if (std::abs(load - 2.0) < 1e-9) {
        (admission ? goodput_controlled_2x : goodput_uncontrolled_2x) =
            row.goodput;
      }
    }
  }

  // --- Flood isolation cell -----------------------------------------
  // One burst script: tenant 0 ("bully") dumps everything at t=0, the
  // "victim" keeps Poisson arrivals at half capacity. The oracle replays
  // the same script with the bully's events filtered out, so the
  // victim's offered stream is bitwise the same in both runs.
  serve::LoadScriptSpec flood_spec;
  flood_spec.shape = "burst";
  flood_spec.tenants = {"bully", "victim"};
  flood_spec.requests_per_tenant = requests;
  flood_spec.mean_gap_ms = per_request_ms / 0.5;
  flood_spec.deadline_ms = deadline_ms;
  flood_spec.seed = seed;
  flood_spec.samples = samples.cols();
  const serve::LoadScript flood = serve::make_load_script(flood_spec);
  serve::LoadScript oracle = flood;
  oracle.events.erase(
      std::remove_if(oracle.events.begin(), oracle.events.end(),
                     [](const serve::LoadEvent& e) {
                       return e.tenant == "bully";
                     }),
      oracle.events.end());

  const auto run_flood = [&](const serve::LoadScript& script,
                             std::size_t bully_quota, bool with_bully) {
    serve::ReplayOptions opt = make_options(true);
    opt.admission.tenant_depth["bully"] = bully_quota;
    serve::LoadReplayer replayer(opt);
    if (with_bully) replayer.add_tenant("bully", engine, net, samples);
    replayer.add_tenant("victim", engine, net, samples);
    return replayer.run(script);
  };

  const auto oracle_report = run_flood(oracle, 0, false);
  const auto cutoff_report = run_flood(flood, 0, true);
  const auto capped_report = run_flood(flood, depth, true);

  const Row oracle_row =
      tenant_row("flood", 0.5, true, "victim", oracle_report);
  Row cutoff_row = tenant_row("flood", 0.5, true, "victim", cutoff_report);
  cutoff_row.tenant = "victim*";  // next to a quota-0 bully
  Row capped_row = tenant_row("flood", 0.5, true, "victim", capped_report);
  capped_row.tenant = "victim+";  // next to a depth-capped bully
  print_row(oracle_row);
  print_row(cutoff_row);
  print_row(capped_row);
  print_row(tenant_row("flood", 0.5, true, "bully", capped_report));
  rows.push_back(oracle_row);
  rows.push_back(cutoff_row);
  rows.push_back(capped_row);

  const bool victim_isolated =
      cutoff_row.accept_rate == 1.0 &&
      cutoff_row.p95_ms == oracle_row.p95_ms &&
      cutoff_row.completed == oracle_row.completed;
  const double capped_ratio =
      capped_row.p95_ms / std::max(oracle_row.p95_ms, 1e-9);

  std::printf(
      "\nisolation: quota-0 flood leaves victim %s (p95 %.2f ms vs "
      "oracle %.2f ms); depth-capped flood p95 x%.2f\n",
      victim_isolated ? "bit-identical" : "PERTURBED", cutoff_row.p95_ms,
      oracle_row.p95_ms, capped_ratio);
  if (goodput_controlled_2x >= 0.0 && goodput_uncontrolled_2x >= 0.0) {
    std::printf(
        "goodput at 2x offered load: %.1f/s uncontrolled -> %.1f/s with "
        "admission (x%.2f)\n",
        goodput_uncontrolled_2x, goodput_controlled_2x,
        goodput_controlled_2x / std::max(goodput_uncontrolled_2x, 1e-9));
  }
  bench::print_note(
      "virtual-clock replay: goodput counts in-budget completions only — "
      "uncontrolled overload serves requests that already missed their "
      "deadline, admission fast-fails them at intake instead");

  if (!json_out.empty()) {
    platform::JsonWriter json;
    json.begin_array();
    for (const auto& row : rows) {
      json.begin_object();
      json.key("cell").value(row.cell);
      json.key("load").value(row.load);
      json.key("admission").value(row.admission);
      json.key("tenant").value(row.tenant);
      json.key("submitted").value(row.submitted);
      json.key("completed").value(row.completed);
      json.key("late").value(row.late);
      json.key("timed_out").value(row.timed_out);
      json.key("rejected").value(row.rejected);
      json.key("shed").value(row.shed);
      json.key("accept_rate").value(row.accept_rate);
      json.key("p95_ms").value(row.p95_ms);
      json.key("goodput_per_s").value(row.goodput);
      json.key("max_brownout_level")
          .value(static_cast<std::int64_t>(row.max_level));
      json.key("makespan_ms").value(row.makespan_ms);
      json.end_object();
    }
    json.end_array();
    std::ofstream out(json_out);
    out << json.str() << "\n";
    if (out.good()) {
      std::printf("wrote %zu rows to %s\n", rows.size(), json_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
    }
  }

  if (check) {
    bool ok = true;
    if (!(goodput_controlled_2x > goodput_uncontrolled_2x)) {
      std::fprintf(stderr,
                   "check failed: goodput with admission at 2x load "
                   "(%.1f/s) must strictly beat the uncontrolled "
                   "baseline (%.1f/s)\n",
                   goodput_controlled_2x, goodput_uncontrolled_2x);
      ok = false;
    }
    if (!victim_isolated) {
      std::fprintf(stderr,
                   "check failed: a quota-0 flood must leave the victim "
                   "tenant bit-identical to its no-flood oracle\n");
      ok = false;
    }
    if (!ok) return 1;
    std::printf("check passed: admission defends goodput under overload "
                "and per-tenant quotas isolate the victim\n");
  }
  return 0;
}
