#!/usr/bin/env sh
# CI perf lane: the regression gates behind the fused-epilogue /
# zero-allocation execution core.
#
#   1. bench_spmm_kernels --check — every optimized kernel holds its
#      speedup over scalar gather, every fused epilogue form is at least
#      as fast as its split counterpart at density >= 0.1, and a warm
#      kernel run performs zero heap allocations;
#   2. ctest -L allocfree — the workspace suite's steady-state proofs
#      (engine hot paths and warm DynamicBatcher rounds allocation-free);
#   3. bench_batching --check — the serving-side batching conformance
#      gate the execution core feeds.
#
# Every engine under every forced kernel arm and both epilogues is pinned
# by test_golden in tier1 (one golden digest per workload, whatever the
# arm), so this lane runs no per-arm tier1 loop.
#
#   scripts/ci_perf_lane.sh [build-dir]     (default: build-perf)
#
# The lane uses its own plain Release tree (no sanitizers: these are
# timing gates). Exits nonzero if configure, build, or any gate fails.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-perf"}

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=Release \
  -DSNICIT_BUILD_BENCH=ON \
  -DSNICIT_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)"

echo "== gate 1/3: spMM kernel grid (fused vs split, steady-state allocs) =="
"$build_dir/bench/bench_spmm_kernels" --check --reps 3 \
  --out "$build_dir/bench_spmm_kernels.json"

echo "== gate 2/3: allocfree-labelled steady-state proofs =="
ctest --test-dir "$build_dir" -L allocfree --output-on-failure

echo "== gate 3/3: batching conformance =="
"$build_dir/bench/bench_batching" --check

echo "perf lane clean: kernel, allocation and batching gates hold"
