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
#      gate the execution core feeds;
#   4. the tier1 suite once per fused kernel arm, forced via SNICIT_SPMM
#      ("VARIANT+fused"), so every engine runs every fused kernel — the
#      golden-digest suites inside tier1 then pin fused == split
#      bit-for-bit system-wide.
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

echo "== gate 1/4: spMM kernel grid (fused vs split, steady-state allocs) =="
"$build_dir/bench/bench_spmm_kernels" --check --reps 3 \
  --out "$build_dir/bench_spmm_kernels.json"

echo "== gate 2/4: allocfree-labelled steady-state proofs =="
ctest --test-dir "$build_dir" -L allocfree --output-on-failure

echo "== gate 3/4: batching conformance =="
"$build_dir/bench/bench_batching" --check

echo "== gate 4/4: tier1 under each forced fused kernel arm =="
for arm in gather gather_simd gather_threaded scatter scatter_simd; do
  echo "-- SNICIT_SPMM=${arm}+fused --"
  SNICIT_SPMM="${arm}+fused" \
    ctest --test-dir "$build_dir" -L tier1 --output-on-failure
done

echo "perf lane clean: kernel and allocation gates hold, tier1 passes under every fused arm"
