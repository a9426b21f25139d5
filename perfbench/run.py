#!/usr/bin/env python3
"""Benchmark of certified k-sections through ksec's public library API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ksec checkout; the library is imported from ./src.
One process, one caller, closed loop: the next section call is issued only
after the previous one returned.  Every section is checked independently
(see check.py); a section that raises or fails the check counts as failed
and the run goes on.

--trace 0 times whole passes of the workload for about S seconds and prints
the end-to-end metrics.  --trace 1 runs the first pass twice, plain and with
spans around every layer boundary (spans.py), alternating in chunks, then
reruns its DP-heaviest calls with tracemalloc inside the exact DPs.  It
prints the per-layer metrics and the tracing overhead, and writes the spans
to .perfbench_out/.  Metric names and units come from BENCHMARK.json.  The
last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3  # set-up is repeated and its median reported

# On a shared machine the speed one process sees can drift by a fifth and
# more within a minute.  Every timing is therefore bracketed by runs of a
# fixed pure-Python reference loop and scaled to a machine on which that loop
# takes REF_S seconds.  Raw wall times are printed beside the scaled ones.
REF_S = 0.02
REF_ITERS = 200_000
BLOCK_S = 0.5  # section time between two reference runs
TRACE_CHUNKS = 20  # the traced run alternates plain and traced calls in this many chunks
MEMORY_CALLS = 3  # calls of the traced pass rerun under tracemalloc

import check  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import spans  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, splitmix64  # noqa: E402


def import_ksec():
    """Import ksec from ./src of the checkout; exit without a result if it is not there."""
    src = ROOT / "src"
    if not (src / "ksec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ksec sources at {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import ksec

    import_s = perf_counter() - t0
    if Path(ksec.__file__).resolve().parent != (src / "ksec").resolve():
        sys.exit(f"perfbench: imported ksec from {ksec.__file__}, not from {src}")
    return ksec, import_s


@dataclass
class Instance:
    graph: object
    td: object
    facts: check.InstanceFacts


def set_up(ksec, wl, seed: int):
    """Generate the workload's instances and round-trip them through the file formats.

    Returns (warm-up call, passes, instances by spec, median stage times,
    problems found in the round trip).
    """
    warm, passes = wl.layout(ksec, ksec.Xorshift64Star(splitmix64(seed)))
    specs = list(dict.fromkeys([warm[0]] + [spec for p in passes for spec, _ in p]))
    stages: dict[str, list[float]] = {
        "instances.generate_s": [], "graph.parse_gr_s": [], "treedec.parse_td_s": []
    }
    first = None
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        raw = [ksec.generate(spec) for spec in specs]
        t1 = perf_counter()
        graphs = [ksec.parse_gr(ksec.write_gr(g)) for g, _ in raw]
        t2 = perf_counter()
        tds = [None if td is None else ksec.parse_td(ksec.write_td(td, g.n)) for g, td in raw]
        t3 = perf_counter()
        for name, dt in zip(stages, (t1 - t0, t2 - t1, t3 - t2)):
            stages[name].append(dt)
        first = first or (raw, graphs, tds)
    raw, graphs, tds = first
    problems = []
    instances = {}
    for spec, (g0, td0), g, parsed in zip(specs, raw, graphs, tds):
        if g != g0:
            problems.append(f"{spec}: .gr round trip changed the graph")
        td = None
        if parsed is not None:
            td, n = parsed
            if n != g.n or td.bags != td0.bags or td.tree_edges != td0.tree_edges:
                problems.append(f"{spec}: .td round trip changed the decomposition")
        facts = check.tree_facts(g) if td is None else check.td_facts(ksec, g, td)
        instances[spec] = Instance(g, td, facts)
    medians = {name: statistics.median(v) for name, v in stages.items()}
    return warm, passes, instances, medians, problems


def reference_loop() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(REF_ITERS):
        acc += i * i % 7
    return perf_counter() - t0


class Clock:
    """Scales timings by the reference loop's speed measured just before and after them."""

    def __init__(self):
        self.last = reference_loop()
        self.pending: list[list] = []
        self.pending_s = 0.0

    def add(self, sample: list) -> None:
        """sample[0] is a raw time; sample[-1] receives the scaled time at the next flush."""
        self.pending.append(sample)
        self.pending_s += sample[0]
        if self.pending_s >= BLOCK_S:
            self.flush()

    def flush(self) -> None:
        now = reference_loop()
        scale = REF_S / ((self.last + now) / 2)
        for sample in self.pending:
            sample[-1] = sample[0] * scale
        self.last, self.pending, self.pending_s = now, [], 0.0


@dataclass
class Tally:
    """Outcome of every section call of a run."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    samples: list = field(default_factory=list)  # [raw s, n, scaled s] of each checked section
    width_sum: int = 0
    slack_max: float = 0.0
    digest: object = field(default_factory=hashlib.sha256)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)


def run_calls(ksec, calls, instances, tally: Tally, clock: Clock, record_output: bool,
              rec=None) -> list:
    """Issue the calls one after another; returns the samples of the checked ones.

    ``record_output`` adds the parts and widths to the digest and width_sum.
    """
    samples = []
    for spec, k in calls:
        inst = instances[spec]
        tally.attempted += 1
        if rec is not None:
            rec.section = tally.attempted
        t0 = perf_counter()
        try:
            if inst.td is None:
                section, report = ksec.engine.ksection_tree(inst.graph, k)
            else:
                section, report = ksec.engine.ksection_td(inst.graph, inst.td, k)
        except Exception as exc:  # a raising section is a failed one; the run goes on
            tally.fail(f"{spec.family} n={inst.graph.n} k={k} raised {exc!r}")
            continue
        finally:
            dt = perf_counter() - t0
            if rec is not None:
                rec.section = None
        reason = check.check_section(ksec, inst.graph, k, inst.facts, section, report)
        if reason is not None:
            tally.fail(f"{spec.family} n={inst.graph.n} k={k}: {reason}")
            continue
        samples.append([dt, inst.graph.n, None])
        clock.add(samples[-1])
        if report.binding_bound > 0:
            tally.slack_max = max(tally.slack_max, report.achieved / report.binding_bound)
        if record_output:
            tally.width_sum += section.width
            tally.digest.update(json.dumps([k, section.width, section.parts]).encode())
    clock.flush()
    tally.samples.extend(samples)
    return samples


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of the sorted values."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_q(n_min: int) -> float:
    """Highest quantile with at least 10 of n_min samples beyond it, not below the median.

    Fixed per workload from the samples every run takes, so the same
    percentile is compared across runs and commits.
    """
    return max(0.5, (n_min - 11) / (n_min - 1)) if n_min > 1 else 0.5


def doubling_ratio(samples) -> float:
    """2**slope of log(time) against log(n); 0 when n spans less than a factor of 1.5."""
    ns = [math.log(n) for _, n in samples]
    if not ns or max(ns) - min(ns) < math.log(1.5):
        return 0.0
    ts = [math.log(t) for t, _ in samples]
    mn, mt = statistics.fmean(ns), statistics.fmean(ts)
    slope = sum((x - mn) * (y - mt) for x, y in zip(ns, ts)) / sum((x - mn) ** 2 for x in ns)
    return 2.0 ** slope


def expected_digest(workload: str, seed: int) -> str | None:
    path = HERE / "expected.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def measure(ksec, passes, instances, seconds: float, tally: Tally, clock: Clock) -> int:
    """Every pass once, then whole passes again until the next would end after ``seconds``."""
    start = perf_counter()
    done = 0
    while True:
        run_calls(ksec, passes[done % len(passes)], instances, tally, clock, done < len(passes))
        done += 1
        elapsed = perf_counter() - start
        if done >= len(passes) and elapsed * (done + 1) / done > seconds:
            return done


def per_layer(rec, plain: list, traced: list, peak_alloc: int, stages: dict) -> dict:
    """The per-layer metrics of one traced pass; times are raw, except the overhead."""
    selfs = rec.self_times()
    calls = rec.calls()
    counts = rec.counts

    def layer(prefix: str) -> float:
        return sum((v for name, v in selfs.items() if name.startswith(prefix + ".")), 0.0)

    m = {
        "engine.self_s": layer("engine"),
        "engine.cuts": calls["treecut.diameter_preserving_cut"] + calls["tdcut.r_preserving_cut"],
        "engine.doubling_ratio": doubling_ratio([(t, n) for _, n, t in plain]),
        "graph.self_s": layer("graph"),
        "graph.components.calls": calls["graph.components"],
        "graph.induced_subgraph.calls": calls["graph.induced_subgraph"],
        "graph.induced_subgraph.edges_scanned": counts["graph.induced_subgraph.edges_scanned"],
        "graph.validate_forest.calls": calls["graph.validate_forest"],
        "graph.relative_diameter.self_s": selfs["graph.relative_diameter"],
        "graph.link_components.self_s": selfs["graph.link_components"],
        "labeling.self_s": layer("labeling"),
        "labeling.find_anchor.self_s": selfs["labeling.find_anchor"],
        "treecut.self_s": layer("treecut"),
        "treecut.dp_case_frac": rec.dp_case_frac(),
        "oracle.tree_dp.self_s": selfs["oracle.dp_min_size_cut_tree"],
        "oracle.tree_dp.calls": calls["oracle.dp_min_size_cut_tree"],
        "oracle.tree_dp.cells": counts["oracle.tree_dp.cells"],
        "oracle.td_dp.self_s": selfs["oracle.dp_min_size_cut_td"],
        "oracle.td_dp.calls": calls["oracle.dp_min_size_cut_td"],
        "oracle.td_dp.states": counts["oracle.td_dp.states"],
        "oracle.peak_alloc_mb": peak_alloc / 2**20,
        "treedec.make_nonredundant.self_s": selfs["treedec.make_nonredundant"],
        "treedec.make_nonredundant.calls": calls["treedec.make_nonredundant"],
        "treedec.make_nonredundant.nodes_in": counts["treedec.make_nonredundant.nodes_in"],
        "treedec.heaviest_path.self_s": selfs["treedec.heaviest_path"],
        "treedec.induced.self_s": selfs["treedec.induced"],
        "tdcut.self_s": layer("tdcut"),
        "bounds.self_s": layer("bounds"),
        "bounds.log_poly_holds.calls": calls["bounds.log_poly_holds"],
    }
    plain_s, traced_s = (sum(t for _, _, t in samples) for samples in (plain, traced))
    m["trace.overhead_s"] = traced_s - plain_s
    m["trace.overhead_frac"] = (traced_s - plain_s) / plain_s if plain_s else 0.0
    for tag in spans.TREECUT_CASES:
        m["treecut.case." + tag] = counts["treecut.case." + tag]
    for tag in spans.TDCUT_CASES:
        m["tdcut.case." + tag] = counts["tdcut.case." + tag]
    m.update(stages)
    return m


def missing_layers(rec, required) -> list[str]:
    names = rec.calls()
    return [r for r in required if not any(n == r or (r.endswith(".") and n.startswith(r)) for n in names)]


def emit(declared: list, values: dict, notes: dict, correct: bool, tally: Tally) -> None:
    """Print each metric with its unit and note, then the result line."""
    if set(values) != {d["name"] for d in declared}:
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ {d['name'] for d in declared})} "
                 "differ from BENCHMARK.json")
    for d in declared:
        print(f"{d['name']:40s} {values[d['name']]:>16.6g} {d['unit']:8s} {notes.get(d['name'], '')}")
    print(f"{'failed_frac':40s} {tally.failed / tally.attempted:>16.6g} ratio    "
          f"({tally.failed} of {tally.attempted} sections)")
    for err in tally.errors[:20]:
        print("FAILED", err)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"instance seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    declared_path = ROOT / "BENCHMARK.json"
    if not declared_path.is_file():
        sys.exit(f"perfbench: {declared_path} is missing")
    declared = json.loads(declared_path.read_text())
    ksec, import_s = import_ksec()
    wl = WORKLOADS[args.workload]

    ref_before = reference_loop()
    t0 = perf_counter()
    warm, passes, instances, stages, problems = set_up(ksec, wl, args.seed)
    set_up_wall = perf_counter() - t0
    setup_scale = REF_S / ((ref_before + reference_loop()) / 2)
    stages = {name: t * setup_scale for name, t in stages.items()}
    # The benchmark's own instances are long-lived; keep them out of the collector's scans.
    gc.collect()
    gc.freeze()
    tally = Tally()
    clock = Clock()
    warm_samples = run_calls(ksec, [warm], instances, tally, clock, record_output=False)
    warm_s = warm_samples[0][2] if warm_samples else 0.0
    setup_s = import_s * setup_scale + sum(stages.values()) + warm_s
    tally.samples.clear()
    correct = not problems
    tally.errors.extend(problems)

    n_calls = sum(len(p) for p in passes)
    print(f"workload {wl.name}, seed {args.seed}: {len(instances)} instances, "
          f"{n_calls} section calls in {len(passes)} passes; set-up with its "
          f"{SETUP_REPS} repetitions took {set_up_wall:.2f} s")
    print(f"times are scaled to a machine whose reference loop takes {REF_S} s "
          f"(it took {ref_before:.4f} s here before set-up)")

    if args.trace == 0:
        done = measure(ksec, passes, instances, args.seconds, tally, clock)
        if not tally.samples:  # every section failed; report zeros with correct = false
            tally.samples.append([0.0, 0, 0.0])
        times = [t for _, _, t in tally.samples]
        raw = [t for t, _, _ in tally.samples]
        q = tail_q(n_calls)
        values = {
            "section_s.p50": statistics.median(times),
            "section_s.tail": quantile(times, q),
            "vertices_per_s": sum(n for _, n, _ in tally.samples) / (sum(times) or 1.0),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "width_sum": tally.width_sum,
        }
        notes = {
            "section_s.p50": f"({len(times)} samples in {done} passes; raw {statistics.median(raw):.4g} s)",
            "section_s.tail": f"(p{100 * q:.4g} of {len(times)} samples; raw {quantile(raw, q):.4g} s"
                              + (")" if q > 0.5 else "; fewer than 21 per run, so no percentile "
                                 "above the median has 10 samples beyond it)"),
            "vertices_per_s": f"(raw {sum(n for _, n, _ in tally.samples) / (sum(raw) or 1.0):.6g})",
            "setup_s": f"(import {import_s * setup_scale:.3f} + generate/round trip {sum(stages.values()):.3f}, "
                       f"median of {SETUP_REPS} + first call {warm_s:.3f})",
            "width_sum": f"(over the first {len(passes)} passes)",
        }
        digest = tally.digest.hexdigest()
        want = expected_digest(wl.name, args.seed)
        status = ("no recorded digest for this seed" if want is None
                  else "matches the recorded digest" if want == digest
                  else f"DIFFERS from the recorded digest {want}")
        print(f"digest {digest} ({status})")
        emit(declared["end_to_end"], values, notes, correct and tally.failed == 0, tally)
        return 0

    # Plain and traced runs of the same calls alternate in chunks of about
    # TRACE_CHUNKS per pass, so that the host's drift falls on both alike.
    calls = passes[0]
    step = max(1, len(calls) // TRACE_CHUNKS)
    rec = spans.Recorder()
    tally_u, tally_t, tally_m = Tally(), Tally(), Tally()
    plain, traced = [], []
    for i in range(0, len(calls), step):
        chunk = calls[i : i + step]
        plain += run_calls(ksec, chunk, instances, tally_u, clock, record_output=True)
        undo, absent = spans.install(rec.wrap)
        try:
            traced += run_calls(ksec, chunk, instances, tally_t, clock, record_output=True, rec=rec)
        finally:
            spans.uninstall(undo)
    if absent:
        print(f"not in the library any more, so not traced: {', '.join(absent)}")
    # tracemalloc slows the DPs several times over, so only the calls that
    # spent the most time in a DP, where the tables are largest, run under it.
    dp_s = rec.dp_seconds_by_section()
    heavy = sorted(dp_s, key=dp_s.get, reverse=True)[:MEMORY_CALLS]
    alloc = spans.PeakAlloc()
    undo, _ = spans.install(alloc.wrap, {"oracle": spans.TARGETS["oracle"]})
    try:
        run_calls(ksec, [calls[sec - 1] for sec in sorted(heavy)], instances, tally_m, clock,
                  record_output=False)
    finally:
        spans.uninstall(undo)
    for t in (tally_u, tally_t, tally_m):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.errors.extend(t.errors)
    if tally_t.digest.hexdigest() != tally_u.digest.hexdigest():
        correct = False
        tally.errors.append("the traced pass returned other sections than the plain pass")

    missing = missing_layers(rec, wl.required)
    if missing:
        sys.exit(f"perfbench: the traced run recorded no calls of {missing} on {wl.name}")
    values = per_layer(rec, plain, traced, alloc.peak, stages)
    values["bounds.slack.max"] = tally_t.slack_max
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{wl.name}-seed{args.seed}.json"
    names = sorted({s[0] for s in rec.spans})
    index = {name: i for i, name in enumerate(names)}
    t0 = rec.spans[0][1] if rec.spans else 0.0
    spans_path.write_text(json.dumps({
        "fields": ["name", "start_ns", "end_ns", "parent", "section"],
        "names": names,
        "spans": [[index[name], round((start - t0) * 1e9), round((end - t0) * 1e9), parent, sec]
                  for name, start, end, parent, sec in rec.spans],
    }))
    print(f"{len(rec.spans)} spans written to {spans_path.relative_to(ROOT)}; plain pass "
          f"{sum(t for t, _, _ in plain):.3f} s, traced pass {sum(t for t, _, _ in traced):.3f} s (raw)")
    notes = {"engine.doubling_ratio": "(0: sizes span less than a factor of 1.5)"
             if values["engine.doubling_ratio"] == 0 else "(2**slope of log time on log n)"}
    emit(declared["per_layer"], values, notes, correct and tally.failed == 0, tally)
    return 0


if __name__ == "__main__":
    sys.exit(main())
