#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the benchmark's acceptance rule takes it.

    python3 perfbench/spread.py --workload td_partial3 --seeds 1-10 [--sets 2]

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one after the
other, from the root of the checkout.  For each metric it prints the median
and the interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound.  With ``--sets 2`` it repeats the seeds and reports how much worse the
second median is than the first, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{out.stdout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["digest"] = next(line.split()[1] for line in lines if line.startswith("digest "))
    return values


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()
    seeds = seed_list(args.seeds)
    ok = True
    for workload in args.workload:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                print(f"  {workload} seed {seed}: {runs[-1]}", flush=True)
            sets.append(runs)
        print(f"{workload}: {len(seeds)} seeds x {args.sets} sets")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for runs in sets:
                values = [r[name] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spread = (q3 - q1) / med
                flag = "ok" if name == "setup_s" or spread < bound / 3 else "WIDE"
                ok &= flag == "ok"
                print(f"  {name:16s} median {med:<12.6g} spread {spread:7.4f}  bound/3 {bound / 3:.4f}  {flag}")
            if len(sets) == 2 and name == "width_sum":
                same = all(a[key] == b[key] for a, b in zip(*sets) for key in ("width_sum", "digest"))
                ok &= same
                print(f"  width_sum and digest {'identical' if same else 'DIFFER'} across the two sets")
            if len(medians) == 2:
                change = worse_by(medians[0], medians[1], metric["better"])
                flag = "ok" if change <= bound else "WORSE"
                ok &= flag == "ok"
                print(f"  {name:16s} second median worse by {change:+.4f}  bound {bound}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
