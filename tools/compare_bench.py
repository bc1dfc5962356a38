#!/usr/bin/env python3
"""Cross-PR benchmark regression and overhead-budget gate.

Each PR commits its benchmark aggregate as BENCH_PR<n>.json at the repo
root (written by bench/run_benches.sh). This tool keeps that trajectory
honest, deterministically -- it only reads *committed* aggregates, never
a freshly-run (noisy, CI-throttled) measurement:

 1. Regression check: the two highest-numbered committed aggregates are
    compared entry by entry on the benchmark names they share. The
    per-entry ratios are first normalized by their median (the uniform
    machine-speed shift between the two runs); an entry regresses when
    its real_time grew by more than --regression-pct (default 25%)
    beyond that shift. The gate is ENFORCED only when the median shift
    itself stays within --comparable-shift-pct (default 25%) -- i.e. the
    two aggregates plausibly came from comparable machines. When the
    trajectory hops containers (the committed history shows 1.3x-5x
    median shifts with per-entry spreads past 70% on *untouched*
    baselines like StdSortBaseline), per-entry wall-clock deltas measure
    the hardware, not the code, so the report is printed as
    informational instead of failing. The overhead-budget check below is
    immune to this: its pairs come from the same run on the same
    machine, so it is always enforced.

 2. Overhead-budget check: inside the newest aggregate, every
    instrumentation pair -- a `<base>_Bare` entry with a sibling
    `<base>_Profiled` or `<base>_Instrumented` -- must stay within
    --overhead-pct (default 2%), the observability budget documented in
    docs/OBSERVABILITY.md.

A dirty aggregate is informational only: bench/run_benches.sh marks its
context "dirty" when the build was not Release or the machine was loaded,
and an aggregate that records no such context predates the check and
cannot vouch for either. A check that reads a dirty aggregate prints its
findings without failing.

Usage:
  tools/compare_bench.py                  # auto-pick from the repo root
  tools/compare_bench.py NEW.json OLD.json
  tools/compare_bench.py --regression-pct 25 --overhead-pct 2

Exit status 0 when every check passes, 1 otherwise. Wired into
.github/workflows/ci.yml after the build step.
"""

import argparse
import json
import os
import re
import sys


def find_committed_aggregates(root):
    """Returns [(n, path)] for BENCH_PR<n>.json files, sorted by n."""
    found = []
    for name in os.listdir(root):
        m = re.fullmatch(r"BENCH_PR(\d+)\.json", name)
        if m:
            found.append((int(m.group(1)), os.path.join(root, name)))
    return sorted(found)


_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_entries(path):
    """Returns ({benchmark name: real_time in ns}, dirty).

    Suites mix ms/ns units. `dirty` is the context's flag, True when the
    aggregate records none.
    """
    with open(path) as f:
        data = json.load(f)
    dirty = (data.get("context") or {}).get("dirty", True)
    if dirty:
        print(f"note: {os.path.basename(path)} is dirty (not Release, "
              f"loaded, or no recorded context): its checks are "
              f"informational only")
    entries = {}
    for b in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if a run ever emits them.
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        if unit not in _UNIT_NS:
            sys.exit(f"error: {path}: unknown time unit {unit!r}")
        entries[b["name"]] = float(b["real_time"]) * _UNIT_NS[unit]
    return entries, dirty


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("aggregates", nargs="*",
                        help="NEW.json OLD.json (default: two newest "
                             "BENCH_PR<n>.json in the repo root)")
    parser.add_argument("--regression-pct", type=float, default=25.0)
    parser.add_argument("--overhead-pct", type=float, default=2.0)
    parser.add_argument("--comparable-shift-pct", type=float, default=25.0,
                        help="enforce the regression gate only when the "
                             "median machine shift stays within this")
    args = parser.parse_args()

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    if len(args.aggregates) == 2:
        new_path, old_path = args.aggregates
    elif not args.aggregates:
        committed = find_committed_aggregates(root)
        if len(committed) < 2:
            print("nothing to compare: fewer than two committed aggregates")
            return 0
        old_path, new_path = committed[-2][1], committed[-1][1]
    else:
        parser.error("pass exactly two aggregates, or none for auto-pick")

    new, new_dirty = load_entries(new_path)
    old, old_dirty = load_entries(old_path)
    failures = []
    notes = []

    # --- 1. cross-PR regressions on shared entries -------------------------
    shared = sorted(n for n in set(new) & set(old) if old[n] > 0)
    ratios = sorted(new[n] / old[n] for n in shared)
    machine_shift = ratios[len(ratios) // 2] if ratios else 1.0
    comparable = (abs(machine_shift - 1.0) * 100.0
                  <= args.comparable_shift_pct)
    worst = (0.0, None)
    regressions = []
    for name in shared:
        delta_pct = (new[name] / old[name] / machine_shift - 1.0) * 100.0
        if delta_pct > worst[0]:
            worst = (delta_pct, name)
        if delta_pct > args.regression_pct:
            regressions.append(
                f"regression: {name}: {old[name]:.0f}ns -> {new[name]:.0f}ns "
                f"(+{delta_pct:.1f}% beyond the {machine_shift:.2f}x median "
                f"shift, budget {args.regression_pct:.0f}%)")
    print(f"compared {len(shared)} shared entries: "
          f"{os.path.basename(old_path)} -> {os.path.basename(new_path)}, "
          f"median machine shift {machine_shift:.2f}x"
          + (f", worst +{worst[0]:.1f}% on {worst[1]}" if worst[1] else ""))
    if not comparable:
        print(f"note: {machine_shift:.2f}x median shift exceeds "
              f"{args.comparable_shift_pct:.0f}% -- different machine, "
              f"regression gate informational only")
    if comparable and not new_dirty and not old_dirty:
        failures.extend(regressions)
    else:
        notes.extend(regressions)

    # --- 2. instrumentation-overhead budgets in the newest aggregate -------
    pairs = 0
    for name, bare_time in sorted(new.items()):
        if not name.endswith("_Bare"):
            continue
        base = name[: -len("_Bare")]
        for suffix in ("_Profiled", "_Instrumented"):
            sibling = base + suffix
            if sibling not in new or bare_time <= 0:
                continue
            pairs += 1
            overhead_pct = (new[sibling] - bare_time) / bare_time * 100.0
            status = ("OK" if overhead_pct <= args.overhead_pct
                      else "OVER" if new_dirty else "FAIL")
            print(f"overhead {status}: {sibling} vs {name}: "
                  f"{overhead_pct:+.2f}% (budget {args.overhead_pct:.0f}%)")
            if overhead_pct > args.overhead_pct:
                (notes if new_dirty else failures).append(
                    f"overhead: {sibling}: {overhead_pct:+.2f}% over "
                    f"{name} exceeds {args.overhead_pct:.0f}% budget")
    if pairs == 0:
        failures.append("no _Bare/_Profiled|_Instrumented pairs found in "
                        + os.path.basename(new_path))

    for n in notes:
        print(f"info ({n})")
    for f in failures:
        print(f"FAIL: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
