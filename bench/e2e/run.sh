#!/usr/bin/env bash
# ovcbench: builds ovcd and the load generator in Release into build-e2e/,
# then runs the end-to-end benchmark of served queries (README.md here).
#
#   bench/e2e/run.sh [--workload NAME ...] [--seed N] [--seconds S]
#                    [--warmup S] [--trace 0|1] [--trace-dir DIR]
#   bench/e2e/run.sh --smoke       # every workload for 1 s, oracle on
#   bench/e2e/run.sh --selftest    # exact counts repeat on one seed
#
# Without --workload it runs all four. Build output goes to stderr; the
# last line of stdout is the result JSON. Exits non-zero on any failed or
# wrong result, and when the repository sources are not next to it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src/server" ]]; then
  echo "run.sh: $root does not hold the repository sources" >&2
  exit 2
fi

args=()
while (($#)); do
  case "$1" in
    --smoke) args+=(--seconds 1 --warmup 0) ;;
    *) args+=("$1") ;;
  esac
  shift
done

generator=()
if command -v ninja >/dev/null 2>&1 && [[ ! -f "$build/Makefile" ]]; then
  generator=(-G Ninja)
fi
{
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target ovcbench -j "$(nproc)"
} >&2

build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build/CMakeCache.txt")"
if [[ "$build_type" != "Release" ]]; then
  echo "run.sh: $build is a '$build_type' build; timings need Release" >&2
  exit 2
fi

git_sha=unknown
git_dirty=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  git_sha="$(git -C "$root" rev-parse HEAD)"
  if [[ -n "$(git -C "$root" status --porcelain)" ]]; then
    git_dirty=true
  else
    git_dirty=false
  fi
fi

exec "$build/ovcbench" --ovcd "$build/ovc/ovcd" --work-dir "$build/work" \
  --build-type "$build_type" --git-sha "$git_sha" --git-dirty "$git_dirty" \
  "${args[@]}"
