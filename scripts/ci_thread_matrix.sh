#!/usr/bin/env sh
# CI thread-matrix lane: tier1 must pass on any pool size, and the
# concurrency-heavy suites must not flake.
#
#   1. ctest -L tier1 with SNICIT_THREADS unset (the hardware default),
#      then set to 1, 2 and 4 — the pool size changes which arm the spMM
#      cost model picks and how every parallel loop splits its work, never
#      the answers;
#   2. ctest -L 'serve|fault|overload' --repeat until-fail:20 — the
#      serving, fault-drill and overload suites rerun until one fails, so
#      a timing flake shows up here rather than at random in tier1.
#
#   scripts/ci_thread_matrix.sh [build-dir]     (default: build-threads)
#
# The lane uses its own plain Release tree. Every leg runs even after an
# earlier one fails; the lane exits nonzero if configure, build, or any
# leg fails, and names the failed legs.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-threads"}
jobs=$(nproc 2>/dev/null || echo 4)

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$jobs"

failed=""

echo "== tier1, SNICIT_THREADS unset =="
(unset SNICIT_THREADS
 ctest --test-dir "$build_dir" -L tier1 -j "$jobs" --output-on-failure) ||
  failed="$failed tier1@default"

for threads in 1 2 4; do
  echo "== tier1, SNICIT_THREADS=$threads =="
  SNICIT_THREADS=$threads \
    ctest --test-dir "$build_dir" -L tier1 -j "$jobs" --output-on-failure ||
    failed="$failed tier1@$threads"
done

echo "== serve|fault|overload, repeated until a failure (max 20 runs) =="
ctest --test-dir "$build_dir" -L 'serve|fault|overload' -j "$jobs" \
  --repeat until-fail:20 --output-on-failure ||
  failed="$failed serve|fault|overload@repeat"

if [ -n "$failed" ]; then
  echo "thread matrix FAILED:$failed" >&2
  exit 1
fi
echo "thread matrix clean: tier1 passes at every pool size, serve/fault/overload held 20 repeats"
