"""Assemble k-sections by iterating the preserving cuts.

Both pipelines share one peel loop, ``_peel``, which cuts off one part
at a time and summarizes each remainder once: the tree pipeline with
``diameter_preserving_cut`` and ``_forest_summary`` (the relative
diameter of the remainder never drops), the decomposition pipeline with
``r_preserving_cut`` and the ``td_summary`` of the cut's own nonredundant
decomposition induced on the live ids (its relative heaviest-path weight
never drops).  The floor is checked on the same summary that the next
cut receives.  Both are peeled in place, in the input's ids: each round
deletes the part's edges from a private copy of the adjacency and
summarizes the ids left, so no remainder is induced or relabeled.  A
decomposition cut relabels its inner set Ṽ for its exact DP; a tree cut
takes its exact inner cut, the small-width search's or the tree DP's,
in the input's ids and induces nothing.  Each run returns the
section together with a ``BoundReport`` evaluating every applicable
width guarantee; the guarantees are re-checked here and a violation
raises ``InvariantViolation`` (CLI exit 3) because it can only mean a
bug.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import filterfalse

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
    _forest_summary,
    induced_sorted,
    is_int,
    max_degree,
    read_ids,
    require_forest,
    require_tree,
    summary_relative_diameter,
)
from .treecut import _plain, diameter_preserving_cut
from .treedec import TreeDecomposition, induced, require_decomposition, td_summary
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
        """achieved / (p - 1), p = min(k, n): a k-section of a connected graph cuts >= p - 1 edges.

        Its p non-empty parts are joined by the cut edges, so at least p - 1 of them.
        """
        return self.achieved / max(1, min(self.k, self.n) - 1)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "k": self.k,
            "max_degree": self.max_degree,
            "achieved": self.achieved,
            "approx_ratio_vs_lower": self.approx_ratio_vs_lower,
            "binding_bound": self.binding_bound,
        }
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is None and value is not None:
                # the fields that default to None, when set; a Fraction is written as
                # [numerator, denominator], but bound_tree as a float
                out[f.name] = float(value) if f.name == "bound_tree" else _plain(value)
        return out


def _trivial_sections(g: Graph, k: int) -> KSection:
    """k >= n: n singletons, then k - n empty parts (``balanced_sizes`` checks k); no cutting."""
    sizes = oracle.balanced_sizes(g.n, k)
    return KSection.from_parts(g, [[v] for v in g.vertices()] + [[] for _ in sizes[g.n :]])


def _peel(
    g: Graph, summary, sizes: list[int], cut, summarize, measure
) -> tuple[KSection, list]:
    """Cut parts of the given sizes off g, one at a time, keeping a floor.

    ``summary`` describes g.  Each round calls ``cut(cur, summary, m) ->
    (Cut, trace)``, deletes the black side's edges from one private copy
    of g's adjacency (O(Σ deg(B ∪ N(B))) a round) and calls
    ``summarize(cur, summary, live)`` for the remainder's one summary:
    ``cur`` is g with every cut vertex isolated and ``live`` the ids left,
    ascending, so every round works in g's ids.  The round counts the
    edges it deletes, B's degrees plus its edges to the rest, halved, and
    builds ``cur`` with the edges left, so neither the forest check nor
    the cut's summary check scans the adjacency for them.  Nothing scans
    a count and keeps it: every ``cur`` shares the one adjacency list,
    which later rounds keep cutting, so a kept count would go stale.
    ``measure(summary, n)`` is the quantity the cut must not lower (diam*
    for trees, r for decompositions): it is read off that one summary,
    which then goes to the next cut.  The loop checks that every cut has
    |B| = m live ids (the pass that drops B from them must drop m), that
    its width counts B's edges to the rest, that the measure never drops
    and that the per-cut widths add up to the width of the section; a
    failure raises ``InvariantViolation``.  Returns the section, parts in
    the order of ``sizes``, and the per-cut traces.
    """
    parts, width, traces = [], 0, []
    adj, live, cur, edges = list(g.adj), list(g.vertices()), g, g.num_edges
    floor = measure(summary, g.n)
    for m in sizes[:-1]:
        c, trace = cut(cur, summary, m)
        black = c.black
        if len(black) != m:
            raise InvariantViolation(f"cut returned {len(black)} vertices, wanted {m}")
        rest = list(filterfalse(black.__contains__, live))
        if len(rest) != len(live) - m:
            stray = next(iter(black.difference(live)))
            raise InvariantViolation(f"cut returned vertex {stray!r}, which is not live")
        out = [w for b in black for w in adj[b] if w not in black]  # B's edges to the rest
        if len(out) != c.width:
            raise InvariantViolation(f"cut claims width {c.width}, but {len(out)} edges leave B")
        # B's degrees count its inner edges twice and its edges to the rest once
        edges -= (sum(map(len, map(adj.__getitem__, black))) + len(out)) // 2
        for b in black:
            adj[b] = ()
        for w in set(out):  # rebuilt once each: a hub of a decomposed graph may lose many edges
            adj[w] = tuple(filterfalse(black.__contains__, adj[w]))
        live, cur = rest, Graph._trusted(g.n, adj, edges)
        summary = summarize(cur, summary, live)
        parts.append(tuple(sorted(black)))
        width += c.width
        traces.append(trace)
        after = measure(summary, len(live))
        if after < floor:
            raise InvariantViolation(f"the remainder's measure fell from {floor} to {after}")
        floor = after
    parts.append(tuple(live))
    section = KSection.from_parts(g, parts)
    if section.width != width:
        raise InvariantViolation("per-cut widths do not add up to the final width")
    return section, traces


def _peel_forest(forest: Graph, comps: list, sizes: list[int]) -> tuple[KSection, list]:
    """``_peel`` of ``forest``, summarized by ``comps``, with the diameter-preserving cut."""
    return _peel(
        forest, comps, sizes,
        cut=lambda f, c, m: diameter_preserving_cut(f, m, c),
        summarize=lambda rest, _comps, live: _forest_summary(rest, live),
        measure=summary_relative_diameter,
    )


def ksection_tree(tree: Graph, k: int) -> tuple[KSection, BoundReport]:
    """k-section of a tree with width <= (k-1)(2 + 16n/diam)Δ.

    Also satisfies the polylog refinement of that bound; both are
    re-verified before returning.
    """
    section, report, _ = _ksection_tree(tree, k)
    return section, report


def ksection_tree_detailed(tree: Graph, k: int) -> tuple[KSection, BoundReport, list]:
    """Like ksection_tree but also returns one trace dict per cut."""
    section, report, traces = _ksection_tree(tree, k)
    return section, report, [t.to_dict() for t in traces]


def _ksection_tree(tree: Graph, k: int) -> tuple[KSection, BoundReport, list]:
    """``ksection_tree`` and its per-cut traces, as the cuts returned them."""
    if not is_int(k) or k < 2:
        raise KOutOfRange(f"k={k!r} must be an integer >= 2")
    summary = require_tree(tree, "ksection_tree")
    n = tree.n
    delta = max_degree(tree)
    diam = summary.diameter

    if k >= n:
        section = _trivial_sections(tree, k)
        traces = []
    else:
        section, traces = _peel_forest(tree, [summary], oracle.balanced_sizes(n, k))

    _check_balance(section, n, k)
    report = _tree_report(section.width, n, k, diam, delta)
    return section, report, traces


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
    sizes = read_ids(sizes, SizesDontSum, "cut_prescribed_sizes")
    if not sizes or any(not is_int(s) or s <= 0 for s in sizes):
        raise SizesDontSum("sizes must be positive integers")
    if sum(sizes) != forest.n:
        raise SizesDontSum(f"sizes sum to {sum(sizes)}, vertex count is {forest.n}")
    d0 = summary_relative_diameter(comps, forest.n)
    delta = max_degree(forest)
    section, _ = _peel_forest(forest, comps, sizes)
    k = len(sizes)
    bound = (k - 1) * bounds.tree_cut_bound(d0, delta)
    if section.width > bound:
        raise InvariantViolation("prescribed-size cut violates its bound")
    report = BoundReport(
        n=forest.n,
        k=k,
        max_degree=delta,
        achieved=section.width,
        rel_diam=d0,
        bound_tree=bound,
    )
    return section.parts, report


def ksection_td(g: Graph, td: TreeDecomposition, k: int) -> tuple[KSection, BoundReport]:
    """k-section of a graph with a given tree decomposition.

    Width <= (1/2)(k-1) t Δ (log2(1/r)^2 + 11 log2(1/r) + 24) with r and
    t read off the nonredundant form of the input decomposition.
    """
    section, report, _ = _ksection_td(g, td, k)
    return section, report


def ksection_td_detailed(
    g: Graph, td: TreeDecomposition, k: int
) -> tuple[KSection, BoundReport, list]:
    """Like ksection_td but also returns one trace dict per cut."""
    section, report, traces = _ksection_td(g, td, k)
    return section, report, [t.to_dict() for t in traces]


def _ksection_td(g: Graph, td: TreeDecomposition, k: int) -> tuple[KSection, BoundReport, list]:
    """``ksection_td`` and its per-cut traces, as the cuts returned them."""
    if not is_int(k) or k < 2:
        raise KOutOfRange(f"k={k!r} must be an integer >= 2")
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
        # the input was checked once above; each remainder's decomposition is the
        # cut's own normalized one induced on the live ids, so its clusters keep g's ids
        section, traces = _peel(
            g, summary, oracle.balanced_sizes(n, k),
            cut=lambda cur, s, m: r_preserving_cut(cur, s.td, m, summary=s),
            summarize=lambda _cur, s, live: td_summary(induced(s.td, live), len(live)),
            measure=lambda s, _n: s.path.relative_weight,
        )

    _check_balance(section, n, k)
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
    return section, report, traces


def recursive_bisection_baseline(tree: Graph, k: int) -> KSection:
    """k-section by recursive exact minimum bisections (experimental foil).

    Each level cuts an exact minimum bisection of every current piece.
    Matches the optimum on paths but can be far off in general.
    """
    if not is_int(k):
        raise KOutOfRange(f"k={k!r} must be an integer")
    require_forest(tree, "recursive_bisection_baseline")
    if k < 1 or k & (k - 1):
        raise KNotPowerOfTwo(f"k={k} is not a power of two")
    if k > tree.n:
        raise KOutOfRange(f"k={k} exceeds vertex count {tree.n}")

    def rec(g: Graph, old_of: list[int], kk: int) -> list[tuple[int, ...]]:
        if kk == 1:
            return [tuple(sorted(old_of))]
        black = oracle.dp_min_size_cut_tree(g, g.n // 2)[0].black
        out = []
        for side in (sorted(black), [v for v in g.vertices() if v not in black]):
            out.extend(rec(induced_sorted(g, side), [old_of[u - 1] for u in side], kk // 2))
        return out

    parts = rec(tree, list(tree.vertices()), k)
    section = KSection.from_parts(tree, parts)
    _check_balance(section, tree.n, k)
    return section
