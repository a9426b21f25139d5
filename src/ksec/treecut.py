"""Cutting primitives for trees and forests.

Two operations:

* ``approximate_cut``       -- an approximate m-cut (m/2 <= |B| <= m) of
                               width at most the maximum degree, avoiding
                               a designated vertex;
* ``diameter_preserving_cut`` -- |B| = m and diam*(G[W]) >= diam*(G),
                               the workhorse the k-section loop iterates.

The second one links a forest's components into a tree along the chain
of their longest paths, labels it along that chain, and follows a
five-way case analysis over the anchor position in the labeling; the
executed case is recorded in a trace.  The anchor's window and its case
are read as for a decomposition (``labeling.anchor_window``); this
module splits the window's block T_z and tells ``Case3a`` from
``Case3b`` by whether z has the label v+m.  It works in the forest's
own ids, whose summary may leave isolated ids out (the tree peel's
remainders), and cuts the subtree T_z, its block read in reverse, with
the sweep's parents.  Every link joins two path vertices, which no sweep and no T_z
crosses, so the linked tree itself is never built: only its share in
the inner vertex set Ṽ, the links inside Ṽ added to a copy of the
forest's adjacency list, and its edges leaving Ṽ, for the outer width.
Its inner exact-size cut is ``oracle.dp_min_size_cut_tree``, whose
optimum meets the relative-diameter guarantees since cuts within them
exist.  It takes G[Ṽ] in the forest's ids, rooted by one BFS over that
copy with the ids outside Ṽ marked as reached, so Ṽ is never induced
or relabeled.  Its search finds every cut of at most 2 edges; only
where the optimum is wider does the tree DP run, on the same rooting.
The search answers every inner cut of the adversarial family and of
the random trees at the seeds ``tests/test_small_width.py`` samples,
but not every random tree:
one inner cut of ``random_tree_maxdeg(8000, 6, Xorshift64Star(2))`` at
k = 16 has optimum 3.  Among the optimal inner cuts it takes one with
the fewest forest edges from the black side to the vertices outside Ṽ,
which the final cut pays as well.

The approximate cut's choice, ``_approximate_black``, is written once
for trees and decompositions: ``tdcut``'s cluster cut makes it on its
decomposition tree, where a node carries the vertices it tops.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain

from . import oracle
from .errors import InvariantViolation, KsecError, MOutOfRange, NotAPartition
from .graph import (
    Cut,
    Graph,
    TreeSummary,
    bfs_tree,
    disjoint_paths,
    is_int,
    max_degree,
    require_forest,
    require_tree,
)
from .labeling import _p_labeling, anchor_window


class CutTrace:
    """Base of the trace dataclasses; ``to_dict`` is their JSON form.

    Fields keep their order; fields declared with ``repr=False`` stay
    out, frozensets become sorted lists and Fractions [num, den].
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.repr}


def _plain(x):
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    return x


@dataclass(frozen=True)
class DiamCutTrace(CutTrace):
    """What the diameter-preserving cut actually did."""

    case_tag: str
    m: int
    anchor: int | None = None
    floor_dm: int | None = None
    m_set: frozenset | None = None
    z: int | None = None
    m_tilde: int | None = None
    b_z: frozenset | None = None
    w_z: frozenset | None = None
    v_tilde: frozenset | None = None
    inner_width: int | None = None
    outer_width: int | None = None


def approximate_cut(tree: Graph, v: int, m: int) -> Cut:
    """Approximate m-cut (B, W) with width <= Δ(tree) and v in W.

    For m >= n-1 the black set is everything but v; otherwise the cut is
    assembled from rooted subtrees below a deepest vertex whose subtree
    still exceeds m.
    """
    require_tree(tree, "approximate_cut")
    n = tree.n
    if not is_int(v) or not 1 <= v <= n:
        raise KsecError(f"approximate_cut: vertex {v!r} out of vertex range 1..{n}")
    if not is_int(m) or not (1 <= m <= 2 * n - 2):
        raise MOutOfRange(f"m={m!r} not in 1..{2 * n - 2}")
    order, parent = bfs_tree(tree.adj, v)
    return Cut._trusted(tree, _subtree_cut(tree.adj, order, parent, m))


def _subtree_cut(adj, order: list[int], parent: list[int], m: int) -> frozenset:
    """Black set of ``approximate_cut`` of the tree rooted at ``order[0]``, which stays white.

    ``order`` lists the tree's vertices with parents before children.
    """
    if m >= len(order) - 1:
        return frozenset(order[1:])
    black = frozenset(_approximate_black(adj, order, parent, dict.fromkeys(order, 1), m)[1])
    if not (m <= 2 * len(black) and len(black) <= m):
        raise InvariantViolation("approximate cut missed its size window")
    return black


def _approximate_black(adj, order, parent, size: dict, m: int) -> tuple[int, set]:
    """(x, inside): the choice of the tree's and the decomposition's approximate cuts.

    The tree is rooted at ``order[0]``, ``order`` lists parents before
    children, and ``size[u]`` counts the vertices node u carries: 1 for a
    tree vertex, for a decomposition node the vertices it tops.  ``size``
    is summed into subtree counts in place.  x is the node reached from
    the root by stepping to the smallest child whose subtree carries more
    than m.  inside holds the nodes of the subtree of x's smallest child
    that carries at least m/2, or else of x's children's subtrees in id
    order until they carry m/2; the cut's black set is what they carry.
    ``adj`` lists each node's neighbours in id order.
    """
    for u in order[:0:-1]:
        size[parent[u]] += size[u]

    x = order[0]
    while True:
        down = [w for w in adj[x] if parent[w] == x and size[w] > m]
        if not down:
            break
        x = min(down)

    children = [w for w in adj[x] if parent[w] == x]
    heavy = [w for w in children if 2 * size[w] >= m]
    if heavy:
        roots = [min(heavy)]
    else:  # light children in id order, while they hold fewer than m/2 vertices
        roots, total = [], 0
        for w in children:
            if 2 * total >= m:
                break
            roots.append(w)
            total += size[w]
    inside = set(roots)  # the chosen subtrees: each node follows its parent in order
    for u in order:
        if parent[u] in inside:
            inside.add(u)
    return x, inside


def diameter_preserving_cut(
    forest: Graph, m: int, comps: list[TreeSummary] | None = None
) -> tuple[Cut, DiamCutTrace]:
    """Cut with |B| = m, diam*(G[W]) >= diam*(G), width <= (2 + 16/diam*)Δ.

    Disconnected inputs are linked into a tree: each link joins the last
    vertex of a component's longest path to the first of the next one's.
    Any cut of the linked tree only loses width when read back in the
    forest, and removing the links cannot decrease diam* of G[W].  The
    labeling runs along the chain of the components' longest paths, a
    longest path of the linked tree; a forest of paths lies wholly on it,
    so its cut is the chain's first m vertices (``Case1``).  Of the
    linked tree only Ṽ's share is built (``_inner_cut``): G[Ṽ], the
    forest's edges plus the links inside Ṽ, in the forest's ids, and the
    outer width, the forest's edges leaving Ṽ plus the links with one end
    in it.  Ṽ is never induced.

    ``comps`` is ``forest_summary(forest)``, or the peel's summary of its
    live ids, when the caller already has it.  It replaces the forest
    check.  It is checked against the forest's vertex and edge counts,
    which a peel remainder carries, and its paths must be nonempty paths
    of the forest with no id on two of them that reach its n vertices
    (``NotAPartition``).  The cut splits the summarized vertices V,
    W = V∖B; the ids the peel has cut are outside V and isolated, so B's
    edges all end in V.
    """
    if comps is None:
        comps = require_forest(forest, "diameter_preserving_cut")
    n = sum(c.size for c in comps)  # the vertices the cut splits
    if n > forest.n or len(comps) != n - forest.num_edges:
        raise NotAPartition(
            f"diameter_preserving_cut: a summary of {len(comps)} component(s) on {n} vertices "
            f"does not fit a forest of {forest.n} vertices and {forest.num_edges} edges"
        )
    if not disjoint_paths(forest.adj, [c.path for c in comps]):
        raise NotAPartition(
            "diameter_preserving_cut: the paths of a summary must be nonempty paths of the "
            "forest with no id on two of them"
        )
    path = [v for c in comps for v in c.path]
    links = [(a.path[-1], b.path[0]) for a, b in zip(comps, comps[1:])]
    lab, parent = _p_labeling(forest, path)
    if lab.n != n:
        raise NotAPartition(
            f"diameter_preserving_cut: the paths of a summary of {n} vertices reach {lab.n}"
        )
    w = anchor_window(lab, m)  # checks m: MOutOfRange unless an integer in 1..n - 1
    base = dict(m=m, anchor=w.anchor, floor_dm=w.floor, m_set=w.m_set)
    if w.case == "Case1":
        return Cut._trusted(forest, w.m_set), DiamCutTrace(case_tag="Case1", **base)

    # the unmarked end of the m-window lies in T_z, z the path vertex of its block
    i, first, last = w.block
    base["z"] = z = path[i]
    if w.case == "Case2a":
        return Cut._trusted(forest, w.m_set), DiamCutTrace(case_tag="Case2a", **base)
    members = frozenset(lab.vertex_of[first : last + 1])
    b_z = _subtree_cut(forest.adj, lab.vertex_of[last : first - 1 : -1], parent, w.m_tilde)
    v_tilde = (w.m_set - w.s_set) | b_z  # M ⊆ S in Case3a, where z has label v+m
    case = w.case
    if case == "Case3":
        case = "Case3a" if z == w.vm_vertex else "Case3b"
    if case == "Case3b":  # z gives way to the vertex of label v+m
        v_tilde = (v_tilde - {z}) | {w.vm_vertex}

    if not (m <= len(v_tilde) <= 2 * m) or z in v_tilde:
        raise InvariantViolation(f"{case}: bad inner vertex set")
    black, inner_width, outer, top = _inner_cut(forest, v_tilde, links, m)
    outer += sum((x in v_tilde) != (y in v_tilde) for x, y in links)  # the links leaving Ṽ
    # Ṽ's degrees are at most Δ, so testing them first leaves the predicate as it is
    if outer > 2 * top and outer > 2 * max_degree(forest):
        raise InvariantViolation(f"{case}: outer cut exceeds 2Δ")
    return Cut._trusted(forest, black), DiamCutTrace(
        case_tag=case,
        m_tilde=w.m_tilde,
        b_z=b_z,
        w_z=members - b_z,
        v_tilde=v_tilde,
        inner_width=inner_width,
        outer_width=outer,
        **base,
    )


def _inner_cut(forest: Graph, v_tilde: frozenset, links: list, m: int) -> tuple[list, int, int, int]:
    """(B, width, leaving, top): an exact m-cut of the linked tree's G[Ṽ], in the forest's ids.

    G[Ṽ] is rooted over a copy of the forest's adjacency that holds the
    links inside Ṽ (``bfs_tree``); the ids outside Ṽ are marked as
    reached, so no sweep leaves it.  A vertex's outside weight, its
    forest edges leaving Ṽ, is its degree in that copy less its edges to
    its parent and children, as every edge of the linked G[Ṽ] joins the
    two; only Ṽ's boundary has any.  ``oracle.dp_min_size_cut_tree``
    takes this rooting and these weights as they are (``_InnerForest``),
    for the small-width search and for the tree DP alike, so nothing is
    relabeled or induced.  ``leaving`` counts the forest's edges that
    leave Ṽ, and ``top`` is the largest degree in the forest of a vertex
    of Ṽ.
    """
    vs = sorted(v_tilde)
    fadj = forest.adj
    adj = list(fadj)
    for x, y in links:
        if x in v_tilde and y in v_tilde:  # G[Ṽ] of the linked tree holds this link
            adj[x], adj[y] = tuple(sorted((*adj[x], y))), tuple(sorted((*adj[y], x)))
    parent = [0] * len(adj)  # the ids outside Ṽ count as reached
    for v in vs:
        parent[v] = -1
    orders = [bfs_tree(adj, s, parent)[0] for s in vs if parent[s] < 0]
    below = [order[1:] for order in orders]  # each edge of the linked G[Ṽ] joins one to its parent
    degree = Counter(chain.from_iterable(below))  # degrees in the linked G[Ṽ]
    degree.update(map(parent.__getitem__, chain.from_iterable(below)))
    # among optimal inner cuts, the fewest forest edges from B to the white rest of V
    outside = {v: w for v in vs if (w := len(adj[v]) - degree.get(v, 0))}
    inner = oracle._InnerForest(adj, len(vs), (orders, parent), outside)
    black, width = oracle.dp_min_size_cut_tree(inner, m)
    return black, width, sum(outside.values()), max([len(fadj[v]) for v in vs])
