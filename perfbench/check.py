"""Independent check of one k-section, not trusting the library's BoundReport.

The parts must partition V with sizes in [⌊n/k⌋, ⌈n/k⌉], and the width is
recomputed from ``g.edges``.  A tree section is held to the rational bound
(k-1)(2 + 16n/diam)Δ in exact ``Fraction`` arithmetic, with diam and Δ
computed here.  A decomposition section is held to the certified bound of
``bounds.ksection_td_bound_holds``, with t and Δ computed here and r taken
from the nonredundant form of the input decomposition (``InstanceFacts``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class InstanceFacts:
    """What the bound depends on, computed once per instance before any timing."""

    delta: int
    diam: int | None = None  # trees
    t: int | None = None  # decompositions: largest bag size
    r: Fraction | None = None  # decompositions: relative heaviest-path weight


def _farthest(adj: list[list[int]], source: int) -> tuple[int, int]:
    dist = {source: 0}
    queue = deque([source])
    far = source
    while queue:
        u = queue.popleft()
        if dist[u] > dist[far]:
            far = u
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return far, dist[far]


def tree_facts(g) -> InstanceFacts:
    adj: list[list[int]] = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    a, _ = _farthest(adj, 1)
    _, diam = _farthest(adj, a)
    return InstanceFacts(delta=max(len(a_) for a_ in adj), diam=diam)


def td_facts(ksec, g, td) -> InstanceFacts:
    degree = [0] * (g.n + 1)
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    nonredundant = ksec.treedec.make_nonredundant(td)
    r = ksec.treedec.heaviest_path(nonredundant, g.n).relative_weight
    return InstanceFacts(delta=max(degree), t=max(len(b) for b in td.bags), r=r)


def check_section(ksec, g, k: int, facts: InstanceFacts, section, report) -> str | None:
    """None if the section is a valid, bounded k-section of g; else the reason."""
    n = g.n
    parts = section.parts
    if len(parts) != k:
        return f"{len(parts)} parts, wanted {k}"
    part_of = [-1] * (n + 1)
    lo, hi = n // k, -(-n // k)
    for idx, part in enumerate(parts):
        if not lo <= len(part) <= hi:
            return f"part {idx} has {len(part)} vertices, outside [{lo}, {hi}]"
        for v in part:
            if not (isinstance(v, int) and 1 <= v <= n) or part_of[v] != -1:
                return f"vertex {v!r} repeated or out of range"
            part_of[v] = idx
    # k parts of total size n with no repeats cover V
    if sum(len(p) for p in parts) != n:
        return "parts do not cover the vertex set"
    width = sum(1 for u, v in g.edges if part_of[u] != part_of[v])
    if width != section.width or width != report.achieved:
        return f"width is {width}; section says {section.width}, report says {report.achieved}"
    if facts.diam is not None:
        if facts.diam == 0:
            return None if width == 0 else "single vertex tree with cut edges"
        bound = (k - 1) * (2 + Fraction(16 * n, facts.diam)) * facts.delta
        if width > bound:
            return f"width {width} exceeds the tree bound {bound}"
        return None
    if facts.delta and not ksec.bounds.ksection_td_bound_holds(width, k, facts.r, facts.t, facts.delta):
        return f"width {width} exceeds the decomposition bound (r={facts.r}, t={facts.t})"
    return None
