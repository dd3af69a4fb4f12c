// perfbench: runs one workload of the SNICIT benchmark, prints every
// metric by name with its unit, a host fingerprint, and as its last line
// one JSON result object.
//
//   perfbench --workload sdgc|medium --seed N --seconds S --trace 0|1
//             [--spans-out PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports per-layer metrics and writes its spans to PATH
// (default .bench_out/spans-<workload>-seed<N>.json). Exit status: 0 when
// every output check passed, 1 when one failed, 2 on bad arguments, 3
// when the workload could not run.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "bench.hpp"
#include "host.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  if (++failed <= 10) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

}  // namespace perfbench

namespace {

using perfbench::Metric;

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload sdgc|medium --seed N "
               "--seconds S --trace 0|1 [--spans-out PATH]\n",
               problem.c_str());
  return 2;
}

double json_number(double v) { return std::isfinite(v) ? v : 0.0; }

const Metric* find(const std::vector<Metric>& metrics,
                   const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string spans_out;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        cfg.workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
      } else if (flag == "--spans-out") {
        spans_out = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad number in the arguments");
  }
  if (cfg.workload != "sdgc" && cfg.workload != "medium") {
    return usage("--workload must be sdgc or medium");
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  if (spans_out.empty()) {
    spans_out = ".bench_out/spans-" + cfg.workload + "-seed" +
                std::to_string(cfg.seed) + ".json";
  }

  perfbench::SpanRecorder spans;
  if (cfg.trace) cfg.spans = &spans;
  perfbench::Report report;
  try {
    if (cfg.workload == "sdgc") {
      perfbench::run_sdgc(cfg, report);
    } else {
      perfbench::run_medium(cfg, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s failed: %s\n",
                 cfg.workload.c_str(), e.what());
    return 3;
  }

  if (cfg.trace) {
    if (spans.write_json(spans_out)) {
      std::printf("spans: %zu written to %s\n", spans.size(),
                  spans_out.c_str());
      std::printf("\n%-30s %14s\n", "span (self time)", "ms, whole run");
      for (const auto& [name, ms] : spans.self_ms_by_name()) {
        std::printf("%-30s %14.3f\n", name.c_str(), ms);
      }
    } else {
      std::fprintf(stderr, "perfbench: could not write %s\n",
                   spans_out.c_str());
    }
    std::printf("\n%-30s %14s %-9s   moves (value in this run)\n",
                "per-layer metric", "value", "unit");
    for (const Metric& m : report.metrics) {
      const Metric* e2e = find(report.context, m.moves);
      std::printf("%-30s %14.6g %-9s   %s", m.name.c_str(), m.value,
                  m.unit.c_str(), m.moves.c_str());
      if (e2e != nullptr) std::printf(" (%.6g %s)", e2e->value, e2e->unit.c_str());
      std::printf("\n");
    }
  } else {
    std::printf("\n%-30s %14s %s\n", "end-to-end metric", "value", "unit");
    for (const Metric& m : report.metrics) {
      std::printf("%-30s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("checks: %zu attempted, %zu failed\n", report.attempted,
              report.failed);
  std::printf("fingerprint %s\n",
              perfbench::fingerprint_json(cfg.workload, cfg.seed).c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), json_number(m.value),
                m.unit.c_str());
  }
  std::printf("}}\n");
  return report.failed == 0 ? 0 : 1;
}
