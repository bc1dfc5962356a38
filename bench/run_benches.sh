#!/usr/bin/env bash
# Runs the key benchmarks with --benchmark_format=json and aggregates all
# results into a single JSON file. Committed aggregates are named
# BENCH_PR<n>.json at the repo root (the benchmark trajectory that
# tools/compare_bench.py reads). There is no default output name: pass -o
# or set $BENCH_OUT.
#
# Usage:
#   bench/run_benches.sh [-B build_dir] (-o out.json | $BENCH_OUT) [--smoke]
#
#   -B dir    build directory holding the bench binaries (default: build)
#   -o file   aggregate output path (default: $BENCH_OUT; without either
#             the script prints this usage and exits 2)
#   --smoke   CI mode: tiny --benchmark_min_time so the binaries and this
#             script are exercised end-to-end without burning CI minutes
#
# Benchmarks are built on demand if the binaries are missing. The subset
# includes the batched pipelines, the pq/sort suites the cost model's
# constants are calibrated from (see docs/COST_MODEL.md), run generation
# (cache-sized mini-runs against the single-tournament ablation baseline,
# on the shapes of the end-to-end sorts), the spill-I/O round trip (one
# prefix-truncated run file written and read back), the exchange
# merge (OVC vs plain, threaded), the planner's parallel sort shape at
# 1/2/4 workers (multi-worker scaling is bounded by the machine's core
# count), the SQL end-to-end suite, the serving-layer QPS suite (ovcd
# over loopback at 1/8/64 clients, plan cache cold vs warm -- see
# docs/SERVING.md), and the two overhead checks --
# profiling and metrics+tracing, each instrumented vs bare on the batched
# pipeline (see docs/OBSERVABILITY.md); tools/compare_bench.py enforces
# the 2% budget and cross-PR regressions on the committed aggregates.
#
# The aggregate's "context" records what the numbers need to be read:
# ovc_build_type (the repo's CMAKE_BUILD_TYPE from the build directory),
# git_sha and git_dirty, nproc, and loadavg (the 1-minute load before the
# first benchmark). It sets "dirty": true when the build is not Release or
# that load exceeds 0.25 x nproc; compare_bench.py reports a dirty
# aggregate as informational only.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT=${BENCH_OUT:-}
MIN_TIME=0.5
BENCHES=(bench_batch_pipeline bench_pq_merge bench_sort_ovc
         bench_run_generation bench_run_file bench_exchange_merge
         bench_parallel_sort bench_sql_e2e
         bench_profile_overhead bench_metrics_overhead bench_serving)

while [[ $# -gt 0 ]]; do
  case "$1" in
    -B) BUILD_DIR=$2; shift 2 ;;
    -o) OUT=$2; shift 2 ;;
    --smoke) MIN_TIME=0.01; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ -z "$OUT" ]]; then
  sed -n 's/^#   bench/usage: bench/p' "$0" >&2
  echo "run_benches.sh: name the aggregate with -o FILE or \$BENCH_OUT" >&2
  exit 2
fi

for bench in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/$bench" ]]; then
    echo "== building $bench"
    cmake --build "$BUILD_DIR" --target "$bench" -j "$(nproc)"
  fi
done

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Sampled before the first benchmark adds its own load.
export OVC_BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  "$BUILD_DIR/CMakeCache.txt")"
export OVC_NPROC="$(nproc)"
export OVC_LOADAVG="$(cut -d' ' -f1 /proc/loadavg)"
export OVC_GIT_SHA=unknown
export OVC_GIT_DIRTY=unknown
if git rev-parse --git-dir >/dev/null 2>&1; then
  OVC_GIT_SHA="$(git rev-parse HEAD)"
  if [[ -n "$(git status --porcelain)" ]]; then
    OVC_GIT_DIRTY=true
  else
    OVC_GIT_DIRTY=false
  fi
fi

for bench in "${BENCHES[@]}"; do
  echo "== running $bench (min_time=${MIN_TIME}s)"
  "$BUILD_DIR/$bench" \
    --benchmark_format=json \
    --benchmark_min_time="$MIN_TIME" \
    > "$tmpdir/$bench.json"
done

python3 - "$OUT" "$tmpdir" "${BENCHES[@]}" <<'PYEOF'
import json
import os
import sys
from datetime import datetime, timezone

out_path, tmpdir, benches = sys.argv[1], sys.argv[2], sys.argv[3:]

aggregate = {
    "generated_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "context": None,
    "benchmarks": [],
}
for bench in benches:
    with open(f"{tmpdir}/{bench}.json") as f:
        data = json.load(f)
    if aggregate["context"] is None:
        aggregate["context"] = data.get("context", {})
    for entry in data.get("benchmarks", []):
        entry = dict(entry)
        entry["binary"] = bench
        aggregate["benchmarks"].append(entry)

context = aggregate["context"] or {}
build_type = os.environ["OVC_BUILD_TYPE"]
nproc = int(os.environ["OVC_NPROC"])
loadavg = float(os.environ["OVC_LOADAVG"])
git_dirty = os.environ["OVC_GIT_DIRTY"]
context.update({
    "ovc_build_type": build_type,
    "git_sha": os.environ["OVC_GIT_SHA"],
    "git_dirty": {"true": True, "false": False}.get(git_dirty, git_dirty),
    "nproc": nproc,
    "loadavg": loadavg,
    "dirty": build_type != "Release" or loadavg > 0.25 * nproc,
})
aggregate["context"] = context

with open(out_path, "w") as f:
    json.dump(aggregate, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path} ({len(aggregate['benchmarks'])} benchmark entries"
      + (", dirty: not Release or loaded" if context["dirty"] else "") + ")")
PYEOF
