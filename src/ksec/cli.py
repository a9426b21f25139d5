"""Command-line front end: run sections, generate instances, benchmark.

Exit codes: 0 success, 2 malformed input, bad arguments or a file that
cannot be read or written, 3 internal invariant violation (a bug, never
expected), 4 resource guard tripped.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, fields

from . import engine, instances, oracle
from .errors import FormatError, InvariantViolation, KsecError, ResourceLimit
from .graph import Graph, parse_gr, require_tree, write_gr
from .labeling import _p_labeling
from .treedec import parse_td, write_td

RUNTIME_NOTE = (
    "note: inner exact-size cuts on trees search the cuts of at most 2 edges first, "
    "in O(N log N) for N vertices in few components; wider optima fall back to a "
    "dynamic program in O(N*min(m, N-m)), as do all inner cuts on decompositions; "
    "the linear-time subroutine behind the original O(kn) claim is not reproduced"
)


@dataclass
class RunRecord:
    """One benchmark row; serializes to a CSV line or a JSON object."""

    instance: str
    family: str
    n: int
    k: int
    max_degree: int
    diam: str = ""
    rel_diam: str = ""
    r: str = ""
    t: str = ""
    width: int = 0
    bound_tree: str = ""
    bound_tree_improved: str = ""
    bound_td: str = ""
    baseline_width: str = ""
    oracle_width: str = ""
    seconds: str = "0"

    @classmethod
    def csv_fields(cls) -> list[str]:
        return [f.name for f in fields(cls)]


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        return parse_gr(fh.read())


def _load_td(path: str, g: Graph):
    """Parse a .td file for ``g``; the library call it feeds checks T1-T3."""
    with open(path) as fh:
        td, declared_n = parse_td(fh.read())
    if declared_n != g.n:
        raise FormatError(0, f"decomposition declares {declared_n} vertices, graph has {g.n}")
    return td


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _fraction_str(fr) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _section_payload(section, report, traces) -> dict:
    """The ``--json`` payload of a tree or decomposition section."""
    return {
        "parts": [list(p) for p in section.parts],
        "width": section.width,
        "bounds": report.to_dict(),
        "trace": [t["case_tag"] for t in traces],
        "cuts": traces,
    }


def cmd_tree(args) -> int:
    g = _load_graph(args.input)
    section, report, traces = engine.ksection_tree_detailed(g, args.k)
    payload = _section_payload(section, report, traces)
    if args.oracle:
        _, opt = oracle.brute_min_ksection(g, args.k, limit=args.oracle_limit)
        payload["oracle_width"] = opt
    if args.json:
        _emit_json(payload, args.json)
    print(f"k-section of {args.input}: n={g.n} k={args.k} width={section.width}")
    print(f"bounds: tree={float(report.bound_tree):.3f} "
          f"improved={report.bound_tree_improved:.3f}")
    if "oracle_width" in payload:
        print(f"oracle minimum width: {payload['oracle_width']}")
    print(RUNTIME_NOTE)
    return 0


def cmd_td(args) -> int:
    g = _load_graph(args.graph)
    td = _load_td(args.td, g)
    section, report, traces = engine.ksection_td_detailed(g, td, args.k)
    payload = _section_payload(section, report, traces)
    if args.json:
        _emit_json(payload, args.json)
    print(
        f"k-section of {args.graph} with {args.td}: n={g.n} k={args.k} "
        f"width={section.width} r={_fraction_str(report.r)} t={report.t}"
    )
    print(f"bound: {report.bound_td:.3f}")
    print(RUNTIME_NOTE)
    return 0


def cmd_labeling(args) -> int:
    g = _load_graph(args.input)
    path = require_tree(g, "ksec labeling").path
    lab, _ = _p_labeling(g, path)
    payload = {
        "path": path,
        "label_of": {str(v): lab.label_of[v] for v in g.vertices()},
        "path_prefix": list(lab.path_prefix[1 : g.n + 1]),
    }
    _emit_json(payload, args.json)
    return 0


def cmd_gen(args) -> int:
    spec = instances.GeneratorSpec(
        family=args.family,
        seed=args.seed,
        n=args.n,
        max_degree=args.max_degree,
        arity=args.arity,
        height=args.height,
        t=args.t,
    )
    g, td = instances.generate(spec)
    stamp = f"family={args.family} seed={args.seed}"
    with open(args.out + ".gr", "w") as fh:
        fh.write(write_gr(g, comment=stamp))
    written = [args.out + ".gr"]
    if td is not None:
        with open(args.out + ".td", "w") as fh:
            fh.write(write_td(td, g.n, comment=stamp))
        written.append(args.out + ".td")
    print("wrote " + " ".join(written))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if hi else lo_i
    except ValueError:
        raise KsecError(f"bad range {text!r}; expected LO..HI") from None
    if hi_i < lo_i:
        raise KsecError(f"empty range {text!r}")
    return lo_i, hi_i


def _parse_klist(text: str | None) -> list[int]:
    """A comma list of k, by default 2,3,4."""
    if text is None:
        return [2, 3, 4]
    try:
        ks = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise KsecError(f"bad k list {text!r}") from None
    if not ks:
        raise KsecError("empty k list")
    return ks


def _write_records(records: list[RunRecord], csv_path: str | None) -> None:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=RunRecord.csv_fields())
    writer.writeheader()
    for rec in records:
        writer.writerow(asdict(rec))
    text = out.getvalue()
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tree_row(g: Graph, k: int, instance: str, family: str, baseline: bool = False) -> RunRecord:
    """One tree benchmark row; ``seconds`` times the section, and the baseline when asked."""
    t0 = time.perf_counter()
    section, report = engine.ksection_tree(g, k)
    base = str(engine.recursive_bisection_baseline(g, k).width) if baseline else ""
    return RunRecord(
        instance=instance,
        family=family,
        n=g.n,
        k=k,
        max_degree=report.max_degree,
        diam=str(report.diam),
        rel_diam=f"{report.diam + 1}/{g.n}",
        width=section.width,
        bound_tree=f"{float(report.bound_tree):.3f}",
        bound_tree_improved=f"{report.bound_tree_improved:.3f}",
        baseline_width=base,
        seconds=f"{time.perf_counter() - t0:.3f}",
    )


def cmd_bench(args) -> int:
    records: list[RunRecord] = []
    if args.suite == "adversarial":
        try:
            k = int(args.k if args.k is not None else 4)
        except ValueError:
            raise KsecError(f"adversarial suite takes a single k, got {args.k!r}") from None
        lo, hi = _parse_range(args.heights)
        for h in range(lo, hi + 1):
            g = instances.adversarial_ternary_path(h)
            records.append(
                _tree_row(g, k, f"adversarial-h{h}", "adversarial_ternary_path", baseline=True)
            )
    elif args.suite == "random-trees":
        rng = instances.Xorshift64Star(args.seed)
        lo, hi = _parse_range(args.n)
        ks = _parse_klist(args.k)
        for idx in range(args.count):
            n = rng.randint(lo, hi)
            g = instances.random_tree_maxdeg(n, args.max_degree, rng)
            for k in ks:
                rec = _tree_row(g, k, f"random-tree-{idx}", "random_tree_maxdeg")
                if args.oracle and n <= args.oracle_limit:
                    _, opt = oracle.brute_min_ksection(g, k, limit=args.oracle_limit)
                    rec.oracle_width = str(opt)
                records.append(rec)
    elif args.suite == "partial-ktrees":
        rng = instances.Xorshift64Star(args.seed)
        lo, hi = _parse_range(args.n)
        ks = _parse_klist(args.k)
        for idx in range(args.count):
            n = rng.randint(lo, hi)
            g, td = instances.random_partial_ktree(n, args.t, rng)
            for k in ks:
                t0 = time.perf_counter()
                section, report = engine.ksection_td(g, td, k)
                rec = RunRecord(
                    instance=f"partial-ktree-{idx}",
                    family="random_partial_ktree",
                    n=n,
                    k=k,
                    max_degree=report.max_degree,
                    r=_fraction_str(report.r),
                    t=str(report.t),
                    width=section.width,
                    bound_td=f"{report.bound_td:.3f}",
                    seconds=f"{time.perf_counter() - t0:.3f}",
                )
                records.append(rec)
    else:
        raise KsecError(f"unknown suite {args.suite!r}")
    _write_records(records, args.csv)
    return 0


def cmd_oracle(args) -> int:
    g = _load_graph(args.input if hasattr(args, "input") and args.input else args.graph)
    if args.oracle_cmd == "minksec":
        section, width = oracle.brute_min_ksection(g, args.k, limit=args.limit)
        print(f"MinSec({args.k}) = {width}")
        print("parts:", json.dumps([list(p) for p in section.parts]))
    elif args.oracle_cmd == "mincut":
        cut, width = oracle.dp_min_size_cut_tree(g, args.m)
        print(f"min width with |B|={args.m}: {width}")
        print("black:", json.dumps(sorted(cut.black)))
    else:  # mincut-td
        td = _load_td(args.td, g)
        cut, width = oracle.dp_min_size_cut_td(g, td, args.m, max_width=args.max_width)
        print(f"min width with |B|={args.m}: {width}")
        print("black:", json.dumps(sorted(cut.black)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksec",
        description="Balanced k-sections of bounded cut width in trees and "
        "tree-decomposed graphs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_tree = sub.add_parser("tree", help="k-section of a tree (.gr)")
    p_tree.add_argument("--input", required=True)
    p_tree.add_argument("-k", type=int, required=True)
    p_tree.add_argument("--json", help="write result JSON to this path")
    p_tree.add_argument("--oracle", action="store_true", help="also compute exact MinSec")
    p_tree.add_argument("--oracle-limit", type=int, default=14, dest="oracle_limit")
    p_tree.set_defaults(func=cmd_tree)

    p_td = sub.add_parser("td", help="k-section of a graph with a tree decomposition")
    p_td.add_argument("--graph", required=True)
    p_td.add_argument("--td", required=True)
    p_td.add_argument("-k", type=int, required=True)
    p_td.add_argument("--json")
    p_td.set_defaults(func=cmd_td)

    p_lab = sub.add_parser("labeling", help="dump the path labeling of a tree as JSON")
    p_lab.add_argument("--input", required=True)
    p_lab.add_argument("--json")
    p_lab.set_defaults(func=cmd_labeling)

    p_gen = sub.add_parser("gen", help="generate an instance (.gr, optional .td)")
    p_gen.add_argument("family", choices=instances.GeneratorSpec.FAMILIES)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True, help="output path prefix")
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--max-degree", type=int, dest="max_degree")
    p_gen.add_argument("--arity", type=int)
    p_gen.add_argument("--height", type=int)
    p_gen.add_argument("--t", type=int)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="benchmark suites, CSV output")
    p_bench.add_argument("suite", choices=["adversarial", "random-trees", "partial-ktrees"])
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--csv", help="write CSV here instead of stdout")
    p_bench.add_argument("--heights", default="4..7")
    p_bench.add_argument("-k", default=None, help="single k (adversarial) or comma list")
    p_bench.add_argument("--count", type=int, default=20)
    p_bench.add_argument("--n", default="50..500")
    p_bench.add_argument("--max-degree", type=int, default=6, dest="max_degree")
    p_bench.add_argument("--t", type=int, default=3)
    p_bench.add_argument("--oracle", action="store_true")
    p_bench.add_argument("--oracle-limit", type=int, default=14, dest="oracle_limit")
    p_bench.set_defaults(func=cmd_bench)

    p_or = sub.add_parser("oracle", help="exact ground-truth computations")
    or_sub = p_or.add_subparsers(dest="oracle_cmd", required=True)
    o_min = or_sub.add_parser("minksec")
    o_min.add_argument("--input", required=True)
    o_min.add_argument("-k", type=int, required=True)
    o_min.add_argument("--limit", type=int, default=14)
    o_min.set_defaults(func=cmd_oracle)
    o_cut = or_sub.add_parser("mincut")
    o_cut.add_argument("--input", required=True)
    o_cut.add_argument("-m", type=int, required=True)
    o_cut.set_defaults(func=cmd_oracle)
    o_cut_td = or_sub.add_parser("mincut-td")
    o_cut_td.add_argument("--graph", required=True)
    o_cut_td.add_argument("--td", required=True)
    o_cut_td.add_argument("-m", type=int, required=True)
    o_cut_td.add_argument("--max-width", type=int, default=12, dest="max_width")
    o_cut_td.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimit as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 4
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (KsecError, OSError) as exc:  # an OSError names the file it could not open
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
