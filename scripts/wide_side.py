#!/usr/bin/env python3
"""Time the decomposition pipeline on the wide side, where merges have many rows.

The min-plus kernel ``ksec.oracle._minplus`` merges in one strided
reduction when ``oracle._strided`` admits the merge, and otherwise loops
over the narrower operand's columns.  A decomposition merge has one row
per coloring of a cluster, so perfbench's ``td_partial3`` (clusters of at
most 4 vertices) never merges more than 16 rows.  This script covers the
other side: ``random_partial_ktree`` instances with n = 700 and t = 6..9,
two seeds each, cut by ``ksection_td`` at k = 2 and k = 4.

    python3 scripts/wide_side.py                     # row caps 2, 16, 32 and none
    python3 scripts/wide_side.py --caps code         # the checkout's own rule
    python3 scripts/wide_side.py --src OTHER/src --caps code
    python3 scripts/wide_side.py --merges            # per-merge times by row count

A cap c replaces ``oracle._strided`` by "at most c rows", with the
kernel's other caps (512 output counts, 2^16 sums) kept; ``none`` drops
the row cap and ``code`` leaves the rule as the checkout has it.  Each
repetition times every instance under every cap in turn, best of
``--best`` calls; the median over ``--reps`` repetitions is printed, in
ms, with the section's width, which must not depend on the cap.

``--merges`` records the merges of every instance, keeps those inside
the other two caps, and times them by row count on each route (best of
``--best`` passes), which is what a row cap trades.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

OUT_CAP, SUM_CAP = 512, 1 << 16  # the kernel's caps other than rows


def instances(n: int):
    from ksec.instances import Xorshift64Star, random_partial_ktree

    for t in (6, 7, 8, 9):
        for seed in (1, 2):
            g, td = random_partial_ktree(n, t, Xorshift64Star(1000 * t + seed))
            for k in (2, 4):
                yield f"t{t} s{seed} k{k}", g, td, k


def rule(cap: str):
    """The ``_strided`` replacement for one ``--caps`` entry; None keeps the checkout's."""
    if cap == "code":
        return None
    rows_cap = float("inf") if cap == "none" else int(cap)
    return lambda rows, out_len, narrow: (
        rows <= rows_cap and out_len <= OUT_CAP and rows * out_len * narrow <= SUM_CAP
    )


def end_to_end(args, oracle, ksection_td) -> None:
    cases = list(instances(args.n))
    own = oracle._strided
    times = defaultdict(list)  # (case, cap) -> best time of each repetition
    widths = {}
    for _ in range(args.reps):
        for cap in args.caps:
            oracle._strided = rule(cap) or own
            for name, g, td, k in cases:
                best = float("inf")
                for _ in range(args.best):
                    t0 = perf_counter()
                    section, _ = ksection_td(g, td, k)
                    best = min(best, perf_counter() - t0)
                times[name, cap].append(best)
                if widths.setdefault(name, section.width) != section.width:
                    sys.exit(f"{name}: width {section.width} under cap {cap}, {widths[name]} before")
    oracle._strided = own
    print(f"{'instance':12}" + "".join(f"{'cap ' + c:>11}" for c in args.caps) + f"{'width':>8}")
    totals = dict.fromkeys(args.caps, 0.0)
    for name, *_ in cases:
        row = []
        for cap in args.caps:
            ms = 1000 * statistics.median(times[name, cap])
            totals[cap] += ms
            row.append(f"{ms:11.1f}")
        print(f"{name:12}" + "".join(row) + f"{widths[name]:8}")
    print(f"{'total':12}" + "".join(f"{totals[c]:11.1f}" for c in args.caps))


def per_merge(args, oracle, ksection_td) -> None:
    own_kernel, own_rule = oracle._minplus, oracle._strided
    merges = defaultdict(list)  # rows -> (a, b, lo, hi) of each merge inside the other caps

    def record(a, b, lo, hi):
        narrow = min(a.shape[1], b.shape[1])
        out_len = min(a.shape[1] + b.shape[1] - 1, hi + 1) - lo
        if out_len <= OUT_CAP and a.shape[0] * out_len * narrow <= SUM_CAP:
            merges[a.shape[0]].append((a.copy(), b.copy(), lo, hi))
        return own_kernel(a, b, lo, hi)

    oracle._minplus = record
    for _, g, td, k in instances(args.n):
        ksection_td(g, td, k)
    oracle._minplus = own_kernel

    def timed(strided: bool, calls) -> float:
        oracle._strided = lambda rows, out_len, narrow: strided
        best = float("inf")
        for _ in range(args.best):
            t0 = perf_counter()
            for a, b, lo, hi in calls:
                own_kernel(a, b, lo, hi)
            best = min(best, perf_counter() - t0)
        oracle._strided = own_rule
        return best

    print(f"{'rows':>5}{'merges':>8}{'loop ms':>10}{'strided ms':>12}{'change':>9}")
    for rows in sorted(merges):
        loop, strided = timed(False, merges[rows]), timed(True, merges[rows])
        print(
            f"{rows:5}{len(merges[rows]):8}{1000 * loop:10.2f}{1000 * strided:12.2f}"
            f"{100 * (strided / loop - 1):+8.1f}%"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--caps", nargs="+", default=["2", "16", "32", "none"])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--best", type=int, default=3)
    parser.add_argument("--n", type=int, default=700)
    parser.add_argument("--merges", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from ksec import oracle
    from ksec.engine import ksection_td

    (per_merge if args.merges else end_to_end)(args, oracle, ksection_td)


if __name__ == "__main__":
    main()
