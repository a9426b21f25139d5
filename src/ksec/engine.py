"""Assemble k-sections by iterating the preserving cuts.

The tree pipeline peels off one part at a time with
``diameter_preserving_cut`` (the relative diameter of the remainder
never drops); the decomposition pipeline does the same with
``r_preserving_cut``.  Each run returns the section together with a
``BoundReport`` evaluating every applicable width guarantee; the
guarantees are re-checked here and a violation raises
``InvariantViolation`` (CLI exit 3) because it can only mean a bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import bounds, oracle
from .errors import (
    InvariantViolation,
    KNotPowerOfTwo,
    KOutOfRange,
    SizesDontSum,
)
from .graph import (
    Graph,
    KSection,
    TreeSummary,
    cut_width,
    forest_summary,
    induced_subgraph,
    max_degree,
    require_forest,
    require_tree,
    summary_relative_diameter,
)
from .treecut import diameter_preserving_cut
from .treedec import (
    TreeDecomposition,
    heaviest_path,
    induced,
    relabel_clusters,
    require_decomposition,
    td_summary,
)
from .tdcut import r_preserving_cut


@dataclass(frozen=True)
class BoundReport:
    """The width guarantees evaluated for one instance."""

    n: int
    k: int
    max_degree: int
    achieved: int
    diam: int | None = None
    rel_diam: Fraction | None = None
    r: Fraction | None = None
    t: int | None = None
    bound_tree: Fraction | None = None
    bound_tree_improved: float | None = None
    bound_td: float | None = None

    @property
    def binding_bound(self) -> float:
        vals = [
            float(b)
            for b in (self.bound_tree, self.bound_tree_improved, self.bound_td)
            if b is not None
        ]
        return min(vals)

    @property
    def approx_ratio_vs_lower(self) -> float:
        """achieved / (k-1): every k-section of a connected graph cuts >= k-1 edges."""
        return self.achieved / max(1, self.k - 1)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "max_degree": self.max_degree,
            "achieved": self.achieved,
            "approx_ratio_vs_lower": self.approx_ratio_vs_lower,
            "binding_bound": self.binding_bound,
        }
        if self.diam is not None:
            out["diam"] = self.diam
        if self.rel_diam is not None:
            out["rel_diam"] = [self.rel_diam.numerator, self.rel_diam.denominator]
        if self.r is not None:
            out["r"] = [self.r.numerator, self.r.denominator]
        if self.t is not None:
            out["t"] = self.t
        if self.bound_tree is not None:
            out["bound_tree"] = float(self.bound_tree)
        if self.bound_tree_improved is not None:
            out["bound_tree_improved"] = self.bound_tree_improved
        if self.bound_td is not None:
            out["bound_td"] = self.bound_td
        return out


def _trivial_sections(g: Graph, k: int) -> KSection:
    """k >= n: singletons plus empty parts, no cutting needed."""
    parts = [[v] for v in g.vertices()] + [[] for _ in range(k - g.n)]
    return KSection.from_parts(g, parts)


def _peel(
    g: Graph, sizes: list[int], cutter, check_remainder=None
) -> tuple[list[tuple[int, ...]], list[int], list]:
    """Cut parts of the given sizes off g, one at a time.

    ``cutter(graph, m) -> (Cut, trace)`` must preserve the relevant
    shrinking invariant; the caller rechecks it, inside ``cutter`` or in
    ``check_remainder``, which receives each remainder graph.  Returns
    parts in original vertex ids, per-cut widths, and traces.
    """
    parts: list[tuple[int, ...]] = []
    widths: list[int] = []
    traces = []
    cur = g
    old_of = list(g.vertices())
    for m in sizes[:-1]:
        cut, trace = cutter(cur, m)
        if len(cut.black) != m:
            raise InvariantViolation(f"cut returned {len(cut.black)} vertices, wanted {m}")
        parts.append(tuple(sorted(old_of[u - 1] for u in cut.black)))
        widths.append(cut.width)
        traces.append(trace)
        keep = sorted(cut.white)
        nxt, sub_old = induced_subgraph(cur, keep)
        old_of = [old_of[u - 1] for u in sub_old]
        cur = nxt
        if check_remainder is not None:
            check_remainder(cur)
    parts.append(tuple(sorted(old_of)))
    return parts, widths, traces


def _peel_forest(
    forest: Graph, comps: list[TreeSummary], sizes: list[int]
) -> tuple[list[tuple[int, ...]], list[int], list]:
    """``_peel`` with the diameter-preserving cut; diam* never drops.

    ``comps`` is the forest summary of ``forest``.  Each remainder is
    summarized once: the summary feeds both the diam* check and the
    next cut.
    """
    floor = summary_relative_diameter(comps, forest.n)

    def cutter(g: Graph, m: int):
        return diameter_preserving_cut(g, m, comps)

    def check_remainder(rest: Graph) -> None:
        nonlocal comps, floor
        comps = forest_summary(rest)
        after = summary_relative_diameter(comps, rest.n)
        if after < floor:
            raise InvariantViolation("relative diameter decreased across a cut")
        floor = after

    return _peel(forest, sizes, cutter, check_remainder)


def ksection_tree(tree: Graph, k: int) -> tuple[KSection, BoundReport]:
    """k-section of a tree with width <= (k-1)(2 + 16n/diam)Δ.

    Also satisfies the polylog refinement of that bound; both are
    re-verified before returning.
    """
    section, report, _ = ksection_tree_detailed(tree, k)
    return section, report


def ksection_tree_detailed(tree: Graph, k: int) -> tuple[KSection, BoundReport, list]:
    """Like ksection_tree but also returns one trace dict per cut."""
    if not isinstance(k, int) or k < 2:
        raise KOutOfRange(f"k={k} must be an integer >= 2")
    summary = require_tree(tree, "ksection_tree")
    n = tree.n
    delta = max_degree(tree)
    diam = summary.diameter

    if k >= n:
        section = _trivial_sections(tree, k)
        traces = []
    else:
        sizes = oracle.balanced_sizes(n, k)
        parts, widths, traces = _peel_forest(tree, [summary], sizes)
        section = KSection.from_parts(tree, parts)
        if section.width != sum(widths):
            raise InvariantViolation("per-cut widths do not add up to the final width")

    _check_balance(section, n, k)
    report = _tree_report(section.width, n, k, diam, delta)
    return section, report, [t.to_dict() for t in traces]


def _check_balance(section: KSection, n: int, k: int) -> None:
    lo, hi = n // k, -(-n // k)
    for part in section.parts:
        if not (lo <= len(part) <= hi):
            raise InvariantViolation(f"part size {len(part)} outside [{lo},{hi}]")


def _tree_report(width: int, n: int, k: int, diam: int, delta: int) -> BoundReport:
    if diam == 0 or delta == 0:
        # single vertex or edgeless: nothing is cut, bounds are vacuous
        return BoundReport(n=n, k=k, max_degree=delta, achieved=width, diam=diam,
                           bound_tree=Fraction(0), bound_tree_improved=0.0)
    bound = bounds.ksection_tree_bound(k, n, diam, delta)
    improved = bounds.ksection_tree_bound_improved(k, n, diam, delta)
    if width > bound or not bounds.ksection_tree_bound_improved_holds(width, k, n, diam, delta):
        raise InvariantViolation(
            f"width {width} violates a guaranteed bound (n={n}, k={k}, diam={diam}, Δ={delta})"
        )
    return BoundReport(
        n=n,
        k=k,
        max_degree=delta,
        achieved=width,
        diam=diam,
        bound_tree=bound,
        bound_tree_improved=improved,
    )


def cut_prescribed_sizes(
    forest: Graph, sizes: list[int]
) -> tuple[tuple[tuple[int, ...], ...], BoundReport]:
    """Partition with exactly the prescribed part sizes, in the given order."""
    comps = require_forest(forest, "cut_prescribed_sizes")
    if not sizes or any(s <= 0 or not isinstance(s, int) for s in sizes):
        raise SizesDontSum("sizes must be positive integers")
    if sum(sizes) != forest.n:
        raise SizesDontSum(f"sizes sum to {sum(sizes)}, vertex count is {forest.n}")
    d0 = summary_relative_diameter(comps, forest.n)
    delta = max_degree(forest)
    parts, widths, _ = _peel_forest(forest, comps, sizes)
    width = cut_width(forest, [set(p) for p in parts])
    if width != sum(widths):
        raise InvariantViolation("per-cut widths do not add up to the final width")
    k = len(sizes)
    bound = (k - 1) * bounds.tree_cut_bound(d0, delta) if delta else Fraction(0)
    if width > bound:
        raise InvariantViolation("prescribed-size cut violates its bound")
    report = BoundReport(
        n=forest.n,
        k=k,
        max_degree=delta,
        achieved=width,
        rel_diam=d0,
        bound_tree=bound,
    )
    return tuple(parts), report


def ksection_td(g: Graph, td: TreeDecomposition, k: int) -> tuple[KSection, BoundReport]:
    """k-section of a graph with a given tree decomposition.

    Width <= (1/2)(k-1) t Δ (log2(1/r)^2 + 11 log2(1/r) + 24) with r and
    t read off the nonredundant form of the input decomposition.
    """
    section, report, _ = ksection_td_detailed(g, td, k)
    return section, report


def ksection_td_detailed(
    g: Graph, td: TreeDecomposition, k: int
) -> tuple[KSection, BoundReport, list]:
    """Like ksection_td but also returns one trace dict per cut."""
    if not isinstance(k, int) or k < 2:
        raise KOutOfRange(f"k={k} must be an integer >= 2")
    if g.n == 0:
        raise KOutOfRange("cannot section an empty graph")
    require_decomposition(td, g, "ksection_td")
    n = g.n
    delta = max_degree(g)
    summary = td_summary(td, n)
    t = summary.t
    r0 = summary.path.relative_weight

    if k >= n:
        section = _trivial_sections(g, k)
        traces = []
    else:
        sizes = oracle.balanced_sizes(n, k)
        # the input was checked once above; each remainder's decomposition is
        # derived from it and summarized only when a cut follows
        state = {"td": summary.td, "summary": summary, "floor": r0}

        def cutter(cur: Graph, m: int):
            summ = state["summary"] or td_summary(state["td"], cur.n)
            cut, trace = r_preserving_cut(cur, state["td"], m, summary=summ)
            keep = sorted(cut.white)
            remainder_td = induced(trace.normalized_td, cut.white)
            r_after = heaviest_path(remainder_td, len(keep)).relative_weight
            if r_after < state["floor"]:
                raise InvariantViolation("relative heaviest-path weight decreased")
            state["floor"] = r_after
            new_of = {old: i + 1 for i, old in enumerate(keep)}
            state["td"] = relabel_clusters(induced(state["td"], cut.white), new_of)
            state["summary"] = None
            return cut, trace

        parts, widths, traces = _peel(g, sizes, cutter)
        section = KSection.from_parts(g, parts)
        if section.width != sum(widths):
            raise InvariantViolation("per-cut widths do not add up to the final width")

    _check_balance(section, n, k)
    if delta == 0:
        report = BoundReport(n=n, k=k, max_degree=0, achieved=section.width,
                             r=r0, t=t, bound_td=0.0)
        return section, report, [t_.to_dict() for t_ in traces]
    bound_val = bounds.ksection_td_bound(k, r0, t, delta)
    if not bounds.ksection_td_bound_holds(section.width, k, r0, t, delta):
        raise InvariantViolation(
            f"width {section.width} violates the decomposition bound "
            f"(n={n}, k={k}, r={r0}, t={t}, Δ={delta})"
        )
    report = BoundReport(
        n=n,
        k=k,
        max_degree=delta,
        achieved=section.width,
        r=r0,
        t=t,
        bound_td=bound_val,
    )
    return section, report, [t_.to_dict() for t_ in traces]


def recursive_bisection_baseline(tree: Graph, k: int) -> KSection:
    """k-section by recursive exact minimum bisections (experimental foil).

    Each level cuts an exact minimum bisection of every current piece.
    Matches the optimum on paths but can be far off in general.
    """
    require_forest(tree, "recursive_bisection_baseline")
    if k < 1 or k & (k - 1):
        raise KNotPowerOfTwo(f"k={k} is not a power of two")
    if k > tree.n:
        raise KOutOfRange(f"k={k} exceeds vertex count {tree.n}")

    def rec(g: Graph, old_of: list[int], kk: int) -> list[tuple[int, ...]]:
        if kk == 1:
            return [tuple(sorted(old_of))]
        cut, _ = oracle.dp_min_size_cut_tree(g, g.n // 2)
        out = []
        for side in (sorted(cut.black), sorted(cut.white)):
            sub, sub_old = induced_subgraph(g, side)
            out.extend(rec(sub, [old_of[u - 1] for u in sub_old], kk // 2))
        return out

    parts = rec(tree, list(tree.vertices()), k)
    section = KSection.from_parts(tree, parts)
    _check_balance(section, tree.n, k)
    return section
