// The open-loop serving probe of the traced runs: seeded single-sample
// Poisson requests into serve::DynamicBatcher, each timed from when it was
// due.
#include "serve.hpp"

#include <chrono>
#include <thread>

#include "helpers.hpp"
#include "platform/rng.hpp"
#include "serve/dynamic_batcher.hpp"

namespace perfbench {

namespace dnn = snicit::dnn;
namespace serve = snicit::serve;
using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void wait_until(Clock::time_point target) {
  // sleep_for overshoots by tens of microseconds: sleep through most of
  // the gap, spin the rest.
  for (auto now = Clock::now(); now < target; now = Clock::now()) {
    const auto left = target - now;
    if (left > std::chrono::microseconds(300)) {
      std::this_thread::sleep_for(left - std::chrono::microseconds(200));
    }
  }
}

}  // namespace

ProbeStats run_probe(dnn::InferenceEngine& engine, const dnn::SparseDnn& net,
                     const DenseMatrix& pool, double rate_rps,
                     double duration_ms, std::uint64_t seed,
                     SpanRecorder* spans, Report& report) {
  serve::ServeOptions options;
  options.max_batch = 16;
  options.batch_timeout_ms = 2.0;
  options.packer = "similarity";
  options.workers = 2;

  struct Sent {
    double due_ms;     // from the probe start
    double submit_ms;  // submit call start, from the probe start
    double submit_us;  // submit call duration
  };
  std::vector<Sent> sent;
  ProbeStats probe;
  snicit::platform::Rng pick(derive_seed(seed, 40));
  const std::size_t rows = pool.rows();
  const std::vector<double> due =
      poisson_schedule(rate_rps, duration_ms, derive_seed(seed, 100));

  serve::DynamicBatcher batcher(engine, net, options);
  const auto t0 = Clock::now();
  const double t0_us = spans != nullptr ? spans->us(t0) : 0.0;
  for (const double d : due) {
    wait_until(t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(d)));
    const std::size_t column = pick.next_below(pool.cols());
    std::vector<float> features(pool.col(column), pool.col(column) + rows);
    const auto start = Clock::now();
    auto id = batcher.submit(std::move(features));
    const auto end = Clock::now();
    if (!id.ok()) {
      ++probe.failed;
      report.check(false, "submit refused: " + id.error().message);
      continue;
    }
    const std::size_t rid = id.value();
    if (sent.size() <= rid) sent.resize(rid + 1);
    sent[rid] = {d, ms_between(t0, start), ms_between(start, end) * 1000.0};
  }
  {
    ScopedSpan finish(spans, "serve.finish", -1, 0);
    probe.report = batcher.finish();
  }

  for (const serve::RequestResult& r : probe.report.results) {
    if (r.id >= sent.size()) continue;
    const Sent& q = sent[r.id];
    const bool ok = r.ok() && r.output.size() == rows;
    report.check(ok, "served request " + std::to_string(r.id));
    if (!ok) ++probe.failed;
    const double latency = latency_from_due_ms(q.due_ms, q.submit_ms, r.latency_ms);
    probe.latency_ms.push_back(latency);
    probe.queue_ms.push_back(r.queue_ms);
    probe.overhead_ms.push_back(r.latency_ms - r.queue_ms - r.batch_ms);
    probe.submit_us.push_back(q.submit_us);
    probe.late_ms.push_back(q.submit_ms - q.due_ms);
    probe.rounds.insert(r.round);
    if (spans != nullptr) {
      const double submit = t0_us + q.submit_ms * 1000.0;
      const int req = spans->add("serve.request", t0_us + q.due_ms * 1000.0,
                                 t0_us + (q.due_ms + latency) * 1000.0, -1, r.id);
      spans->add("serve.submit", submit, submit + q.submit_us, req, r.id);
      spans->add("serve.queue", submit, submit + r.queue_ms * 1000.0, req, r.id);
      const double done = submit + r.latency_ms * 1000.0;
      spans->add("serve.engine", done - r.batch_ms * 1000.0, done, req, r.id);
    }
  }
  for (const serve::ServeBatchRecord& b : probe.report.batch_log) {
    probe.engine_ms.push_back(b.engine_ms);
    probe.fill.push_back(b.fill);
    probe.similarity.push_back(b.similarity);
  }
  return probe;
}

void add_serve_metrics(Report& report, const ProbeStats& probe) {
  report.add("serve.queue_ms_p50", quantile(probe.queue_ms, 0.5), "ms",
             "probe.latency_ms_p50");
  report.add("serve.queue_ms_p99", quantile(probe.queue_ms, 0.99), "ms",
             "probe.latency_ms_p99");
  report.add("serve.engine_ms_p50", quantile(probe.engine_ms, 0.5), "ms",
             "probe.latency_ms_p50");
  report.add("serve.engine_ms_p99", quantile(probe.engine_ms, 0.99), "ms",
             "probe.latency_ms_p99");
  report.add("serve.round_overhead_ms_p99", quantile(probe.overhead_ms, 0.99),
             "ms", "probe.latency_ms_p99");
  report.add("serve.fill_mean", mean(probe.fill), "ratio",
             "probe.latency_ms_p99");
  report.add("serve.similarity_mean", mean(probe.similarity), "ratio",
             "probe.latency_ms_p50");
  report.add("serve.rounds", static_cast<double>(probe.rounds.size()), "count",
             "probe.latency_ms_p99");
  report.add("serve.submit_us_p99", quantile(probe.submit_us, 0.99), "us",
             "probe.latency_ms_p99");
  report.add("serve.gen_late_ms_p99", quantile(probe.late_ms, 0.99), "ms",
             "probe.latency_ms_p99");
  report.add("serve.retries", static_cast<double>(probe.report.retries),
             "count", "probe.latency_ms_p99");
  report.add("serve.failed", static_cast<double>(probe.failed), "count",
             "probe.latency_ms_p99");
}

}  // namespace perfbench
