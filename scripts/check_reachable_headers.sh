#!/usr/bin/env sh
# Reachability check: fails when a header under src/ is reached by no
# production path, that is, when nothing outside tests/ includes it except
# its own .cpp. Such a module is test-only code: delete it, or move it
# under tests/ as a fixture. The production paths are src/, bench/,
# examples/ and perfbench/.
#
#   scripts/check_reachable_headers.sh [repo-root]   (default: this repo)
#
# Prints each unreachable header and exits 1 if there is any.
set -eu

repo_root=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
cd "$repo_root"

status=0
for header in $(find src -name '*.hpp' | sort); do
  own=${header%.hpp}.cpp
  includers=$(grep -rlF --include='*.cpp' --include='*.hpp' \
                "#include \"${header#src/}\"" src bench examples perfbench |
              grep -vxF "$own" || true)
  if [ -z "$includers" ]; then
    echo "unreachable: $header (no includer outside tests/ but its own .cpp)"
    status=1
  fi
done
exit "$status"
