// Benchmarks the spMM kernel family (the XY-2021-style optimisation
// space) over a kernel x density x batch grid and emits a machine-readable
// JSON report — the data behind the cost model in sparse/spmm_policy.hpp.
//
//   bench_spmm_kernels [--out FILE] [--check] [--neurons N] [--reps R]
//
// Each cell additionally times the kernel's fused-epilogue form against
// the split A/B (kernel, then a separate apply_bias_activation sweep)
// and counts heap allocations during a steady-state fused run — the two
// claims of the fused-epilogue/zero-allocation PR, measured.
//
// Without --out the JSON goes to stdout; a human-readable table always
// goes to stderr. --check turns the run into a regression gate: exit
// nonzero if, at density >= 0.1, any optimized kernel is slower (beyond
// a noise tolerance) than its scalar family baseline, any fused form is
// slower than its split counterpart, or any steady-state kernel run
// touches the heap at all.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "platform/cli.hpp"
#include "platform/json.hpp"
#include "platform/rng.hpp"
#include "platform/thread_pool.hpp"
#include "platform/timer.hpp"
#include "radixnet/radixnet.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_policy.hpp"

// ---------------------------------------------------------------------
// Allocation counting: every operator new in this binary bumps the
// counter; the steady-state probe snapshots it around a warm kernel run.
// The hooks route through malloc/aligned_alloc and never allocate
// themselves (which is also why free() is the right deallocator, despite
// GCC's -Wmismatched-new-delete heuristic).
// ---------------------------------------------------------------------
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::size_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded ? rounded : a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace snicit;

struct Workload {
  sparse::CsrMatrix w;
  sparse::CscMatrix w_csc;
  sparse::DenseMatrix y;
  sparse::DenseMatrix out;
  std::vector<float> bias;
};

Workload make_workload(int neurons, std::size_t batch, double y_density,
                       std::uint64_t seed) {
  radixnet::RadixNetOptions opt;
  opt.neurons = neurons;
  opt.layers = 1;
  opt.fanin = 32;
  opt.seed = seed;
  auto net = radixnet::make_radixnet(opt);
  Workload wl{net.weight(0), sparse::CscMatrix::from_csr(net.weight(0)),
              sparse::DenseMatrix(static_cast<std::size_t>(neurons), batch),
              sparse::DenseMatrix(static_cast<std::size_t>(neurons), batch),
              std::vector<float>(static_cast<std::size_t>(neurons))};
  platform::Rng rng(seed + 1);
  for (std::size_t i = 0; i < wl.y.rows() * wl.y.cols(); ++i) {
    if (rng.next_bool(y_density)) wl.y.data()[i] = rng.uniform(0.0f, 32.0f);
  }
  for (auto& b : wl.bias) b = rng.uniform(-0.5f, 0.5f);
  return wl;
}

const std::vector<sparse::SpmmVariant>& kernel_grid() {
  using V = sparse::SpmmVariant;
  static const std::vector<sparse::SpmmVariant> kernels = {
      V::kGatherScalar, V::kGatherSimd, V::kGatherThreaded,
      V::kScatter,      V::kScatterSimd,
  };
  return kernels;
}

void run_kernel(sparse::SpmmVariant v, Workload& wl) {
  switch (v) {
    case sparse::SpmmVariant::kGatherScalar:
      sparse::spmm_gather(wl.w, wl.y, wl.out);
      break;
    case sparse::SpmmVariant::kGatherSimd:
      sparse::spmm_gather_simd(wl.w, wl.y, wl.out);
      break;
    case sparse::SpmmVariant::kGatherThreaded:
      sparse::spmm_gather_threaded(wl.w, wl.y, wl.out);
      break;
    case sparse::SpmmVariant::kScatter:
      sparse::spmm_scatter(wl.w_csc, wl.y, wl.out);
      break;
    default:
      sparse::spmm_scatter_simd(wl.w_csc, wl.y, wl.out);
      break;
  }
}

void run_kernel_fused(sparse::SpmmVariant v, Workload& wl,
                      const sparse::BiasAct& epi) {
  switch (v) {
    case sparse::SpmmVariant::kGatherScalar:
      sparse::spmm_gather_fused(wl.w, wl.y, wl.out, epi);
      break;
    case sparse::SpmmVariant::kGatherSimd:
      sparse::spmm_gather_simd_fused(wl.w, wl.y, wl.out, epi);
      break;
    case sparse::SpmmVariant::kGatherThreaded:
      sparse::spmm_gather_threaded_fused(wl.w, wl.y, wl.out, epi);
      break;
    case sparse::SpmmVariant::kScatter:
      sparse::spmm_scatter_fused(wl.w_csc, wl.y, wl.out, epi);
      break;
    default:
      sparse::spmm_scatter_simd_fused(wl.w_csc, wl.y, wl.out, epi);
      break;
  }
}

/// The split A/B arm the fused kernels replace: kernel, then a second
/// read-modify-write sweep over the whole output.
void run_kernel_split_epilogue(sparse::SpmmVariant v, Workload& wl,
                               float ymax) {
  run_kernel(v, wl);
  sparse::apply_bias_activation(wl.out, wl.bias, ymax);
}

/// Min-of-reps timing: one warmup, then enough repetitions that the total
/// measured time is well above timer noise; the minimum is the cleanest
/// estimate of the kernel's cost on an otherwise idle core.
template <typename Fn>
double time_ms(Fn&& fn, int min_reps) {
  fn();  // warmup (faults pages, warms caches)
  platform::Stopwatch probe;
  fn();
  const double once_ms = std::max(probe.elapsed_ms(), 1e-4);
  const int reps = std::clamp(
      static_cast<int>(std::ceil(10.0 / once_ms)), min_reps, 400);
  double best = once_ms;
  for (int r = 0; r < reps; ++r) {
    platform::Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsed_ms());
  }
  return best;
}

/// Paired A/B timing for the fused-vs-split ratio gate. The two arms run
/// in alternating *blocks* of back-to-back reps: timing each arm in one
/// contiguous window let a slow machine phase inflate whichever arm it
/// happened to cover (flipping the ratio ±10 % run to run), while strict
/// rep-by-rep alternation made each rep start against the other arm's
/// cache footprint. Blocks give every arm warm back-to-back streaks in
/// several windows spread across the cell's measurement, so drift lands
/// on both arms and the min per arm still sees steady-state cache
/// behaviour. Returns {min A, min B}.
template <typename FnA, typename FnB>
std::pair<double, double> time_pair_ms(FnA&& a, FnB&& b, int min_reps) {
  a();
  b();  // warmup (faults pages, warms caches)
  platform::Stopwatch probe_a;
  a();
  const double once_a = probe_a.elapsed_ms();
  platform::Stopwatch probe_b;
  b();
  const double once_b = probe_b.elapsed_ms();
  // Budget on the slower arm: pairing a 10 us kernel with a 3 ms
  // reference must not schedule 400 reps of the reference.
  const double once_ms = std::max(std::max(once_a, once_b), 1e-4);
  const int reps = std::clamp(
      static_cast<int>(std::ceil(20.0 / once_ms)), min_reps, 400);
  const int block = std::max(2, reps / 4);
  double best_a = std::max(once_a, 1e-4);
  double best_b = std::max(once_b, 1e-4);
  for (int done = 0; done < reps; done += block) {
    const int n = std::min(block, reps - done);
    for (int r = 0; r < n; ++r) {
      platform::Stopwatch sw;
      a();
      best_a = std::min(best_a, sw.elapsed_ms());
    }
    for (int r = 0; r < n; ++r) {
      platform::Stopwatch sw;
      b();
      best_b = std::min(best_b, sw.elapsed_ms());
    }
  }
  return {best_a, best_b};
}

/// Heap allocations during one steady-state fused run. Two warmups grow
/// every thread-local scratch on this thread; the serial region keeps the
/// measured run inline (the engines' 1-thread determinism leg), so the
/// count is exactly what the kernel itself allocates: the gate wants 0.
std::size_t steady_allocs(sparse::SpmmVariant v, Workload& wl,
                          const sparse::BiasAct& epi) {
  platform::ScopedSerialRegion serial;
  run_kernel_fused(v, wl, epi);
  run_kernel_fused(v, wl, epi);
  const std::size_t before = alloc_count();
  run_kernel_fused(v, wl, epi);
  return alloc_count() - before;
}

struct Cell {
  sparse::SpmmVariant variant;
  double density;
  std::size_t batch;
  double ms;
  double speedup_vs_gather;  // scalar-gather ms at same (density, batch)
  double fused_ms;           // fused kernel incl. epilogue
  double split_ms;           // kernel + apply_bias_activation sweep
  double fused_speedup;      // split_ms / fused_ms
  std::size_t allocs;        // heap allocations, steady-state fused run
};

}  // namespace

int main(int argc, char** argv) {
  const platform::CliArgs args(argc, argv);
  const auto unknown =
      args.unknown_options({"out", "check", "neurons", "reps"});
  if (!unknown.empty()) {
    for (const auto& name : unknown) {
      std::fprintf(stderr, "error: unknown flag '--%s'\n", name.c_str());
    }
    std::fprintf(stderr,
                 "usage: bench_spmm_kernels [--out FILE] [--check] "
                 "[--neurons N] [--reps R]\n");
    return 2;
  }
  const int neurons = static_cast<int>(args.get_int("neurons", 1024));
  const int min_reps =
      std::max(1, static_cast<int>(args.get_int("reps", 5)));
  const bool check = args.has("check");
  const std::string out_path = args.get("out", "");
  constexpr float kYmax = 32.0f;

  const std::vector<double> densities = {0.02, 0.1, 0.3, 0.6, 1.0};
  const std::vector<std::size_t> batches = {8, 16, 64, 256};

  std::vector<Cell> cells;
  std::fprintf(stderr, "%-16s %8s %6s %10s %10s %10s %9s %7s\n", "kernel",
               "density", "batch", "ms", "vs_gather", "fused_ms",
               "vs_split", "allocs");
  for (double density : densities) {
    for (std::size_t batch : batches) {
      auto wl = make_workload(neurons, batch, density, 77);
      const sparse::BiasAct epi{wl.bias, 0.0f, kYmax};
      for (const auto variant : kernel_grid()) {
        // Each kernel is paired with its own scalar-gather reference
        // window (not the gather row's, measured seconds earlier): the
        // vs_gather gate is a ratio, and ratios of measurements from
        // separate windows inherit whichever machine phase each window
        // happened to land in.
        const auto [ms, gather_ms] = time_pair_ms(
            [&] { run_kernel(variant, wl); },
            [&] {
              run_kernel(sparse::SpmmVariant::kGatherScalar, wl);
            },
            min_reps);
        const auto [fused_ms, split_ms] = time_pair_ms(
            [&] { run_kernel_fused(variant, wl, epi); },
            [&] { run_kernel_split_epilogue(variant, wl, kYmax); },
            min_reps);
        const std::size_t allocs = steady_allocs(variant, wl, epi);
        cells.push_back({variant, density, batch, ms,
                         gather_ms / std::max(ms, 1e-9), fused_ms, split_ms,
                         split_ms / std::max(fused_ms, 1e-9), allocs});
        std::fprintf(stderr,
                     "%-16s %8.2f %6zu %10.4f %9.2fx %10.4f %8.2fx %7zu\n",
                     sparse::to_string(variant), density, batch, ms,
                     cells.back().speedup_vs_gather, fused_ms,
                     cells.back().fused_speedup, allocs);
      }
    }
  }

  platform::JsonWriter json;
  json.begin_object();
  json.key("neurons").value(static_cast<std::int64_t>(neurons));
  json.key("fanin").value(static_cast<std::int64_t>(32));
  json.key("simd_compiled").value(sparse::simd_compiled());
  json.key("threads").value(platform::ThreadPool::global().size());
  json.key("grid").begin_array();
  for (const auto& cell : cells) {
    json.begin_object();
    json.key("kernel").value(sparse::to_string(cell.variant));
    json.key("density").value(cell.density);
    json.key("batch").value(cell.batch);
    json.key("ms").value(cell.ms);
    json.key("speedup_vs_gather").value(cell.speedup_vs_gather);
    json.key("fused_ms").value(cell.fused_ms);
    json.key("split_epilogue_ms").value(cell.split_ms);
    json.key("fused_speedup").value(cell.fused_speedup);
    json.key("steady_state_allocs")
        .value(static_cast<std::int64_t>(cell.allocs));
    json.end_object();
  }
  json.end_array();
  json.end_object();

  if (out_path.empty()) {
    std::printf("%s\n", json.str().c_str());
  } else {
    std::ofstream out(out_path);
    out << json.str() << "\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }

  if (!check) return 0;

  // Regression gate, three clauses:
  //  1. at density >= 0.1 every optimized kernel must be at least as fast
  //     as the scalar gather reference, modulo timer noise;
  //  2. the fusion must never lose: per kernel, the geometric mean of
  //     fused-vs-split over the density >= 0.1 grid must be at least
  //     break-even (modulo noise), and no single cell may fall below a
  //     catastrophic floor. The per-cell clause alone proved flaky: the
  //     smallest cells run in ~10 us, where one unlucky scheduling phase
  //     shifts a single ratio by 15-20 % while every other cell of the
  //     kernel sits at 1.0-1.1x. A systematic fusion regression drags
  //     every cell and fails the geomean; an isolated 2 us anomaly does
  //     not.
  //  3. a steady-state kernel run must not allocate — any count > 0 means
  //     a hot path grew a buffer it should have reused.
  constexpr double kTolerance = 1.10;       // clauses 1 and 2 (geomean)
  constexpr double kCellFloor = 1.25;       // clause 2, per-cell floor
  int failures = 0;
  std::map<sparse::SpmmVariant, std::pair<double, int>> fused_logsum;
  for (const auto& cell : cells) {
    if (cell.allocs != 0) {
      std::fprintf(stderr,
                   "CHECK FAIL: %s allocated %zu time(s) in a steady-state "
                   "run at density %.2f, batch %zu\n",
                   sparse::to_string(cell.variant), cell.allocs,
                   cell.density, cell.batch);
      ++failures;
    }
    if (cell.density < 0.1) continue;
    if (cell.variant != sparse::SpmmVariant::kGatherScalar &&
        cell.speedup_vs_gather * kTolerance < 1.0) {
      std::fprintf(stderr,
                   "CHECK FAIL: %s only %.2fx vs scalar gather at "
                   "density %.2f, batch %zu\n",
                   sparse::to_string(cell.variant), cell.speedup_vs_gather,
                   cell.density, cell.batch);
      ++failures;
    }
    auto& [logsum, count] = fused_logsum[cell.variant];
    logsum += std::log(std::max(cell.fused_speedup, 1e-9));
    ++count;
    if (cell.fused_speedup * kCellFloor < 1.0) {
      std::fprintf(stderr,
                   "CHECK FAIL: %s fused only %.2fx vs split epilogue at "
                   "density %.2f, batch %zu\n",
                   sparse::to_string(cell.variant), cell.fused_speedup,
                   cell.density, cell.batch);
      ++failures;
    }
  }
  for (const auto& [variant, acc] : fused_logsum) {
    const double geomean = std::exp(acc.first / std::max(acc.second, 1));
    if (geomean * kTolerance < 1.0) {
      std::fprintf(stderr,
                   "CHECK FAIL: %s fused geomean only %.2fx vs split "
                   "epilogue over the density >= 0.1 grid\n",
                   sparse::to_string(variant), geomean);
      ++failures;
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "--check: %d regression(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr,
               "--check: optimized kernels hold their speedup, fused "
               "epilogues never lose to split, steady-state runs are "
               "allocation-free\n");
  return 0;
}
