// The open-loop serving probe of the traced runs: seeded single-sample
// Poisson requests submitted to serve::DynamicBatcher, each timed from when
// it was due.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "bench.hpp"
#include "dnn/engine.hpp"
#include "serve/request.hpp"

namespace perfbench {

/// Everything the probe measured.
struct ProbeStats {
  std::size_t failed = 0;
  std::vector<double> latency_ms;   // from due time, in due order
  std::vector<double> queue_ms;     // submit -> collected into a round
  std::vector<double> overhead_ms;  // latency - queue - engine batch
  std::vector<double> submit_us;    // submit call duration
  std::vector<double> late_ms;      // generator lateness at submit
  std::vector<double> engine_ms;    // per engine batch
  std::vector<double> fill;         // per engine batch
  std::vector<double> similarity;   // per engine batch
  std::set<std::size_t> rounds;
  snicit::serve::ServeReport report;
};

/// Offers Poisson requests at `rate_rps` for `duration_ms` to a
/// DynamicBatcher serving `engine` (similarity packer, max batch 16, 2 ms
/// timeout, 2 workers); each request is a column of `pool` drawn from
/// `seed`. Each request is one checked operation: it must be served with
/// a full output column.
ProbeStats run_probe(snicit::dnn::InferenceEngine& engine,
                     const snicit::dnn::SparseDnn& net,
                     const snicit::dnn::DenseMatrix& pool, double rate_rps,
                     double duration_ms, std::uint64_t seed,
                     SpanRecorder* spans, Report& report);

/// serve.* per-layer metrics.
void add_serve_metrics(Report& report, const ProbeStats& probe);

}  // namespace perfbench
