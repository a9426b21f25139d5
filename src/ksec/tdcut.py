"""Cuts in graphs driven by a tree decomposition.

Mirrors the tree machinery: the heaviest path of the decomposition
plays the role of a longest path, the vertex set splits into R (covered
by path clusters) and the per-node remainders S_i, and the tree's
cyclic labeling (``labeling.PLabeling``, with R marked in place of the
path) gives path node i the block S_i ∪ R_i, with R_i last
(``_td_blocks``).  S_i is read off the clusters of i's component of
T - E_P, which one pass over the decomposition's rooting
(``TreeDecomposition.rooted``) finds; the cluster cut and the glue read
that rooting too.  The anchor, the label interval
and the block to split are found as for a tree.  The
r-preserving cut peels off exactly m vertices while the relative
heaviest-path weight of the remainder never drops.  S_i is split by the
approximate cluster cut, which reads the whole decomposition's clusters
through S_i and makes the tree cut's choice (``treecut._approximate_black``)
on its tree, so no decomposition is induced on S_i.  Like the tree cut,
it works in its graph's ids, of which the peel's remainders use a part;
only the inner vertex set Ṽ is relabeled 1..|Ṽ|, by one map that serves
its graph G̃, the glued decomposition and the exact DP's cut.

The glued decomposition is built on the span of Ṽ's clusters alone, in
each copy the subtree spanned by the nodes whose cluster meets its side.
Each empty span node s keeps the smallest id μ < s of the regions hanging
at it as one empty leaf, so the glue normalizes as two whole copies do:
a region at a nonempty node is only ever absorbed into that node, and a
region at an empty node acts on the contraction order only through μ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import not_

from . import oracle
from .errors import (
    InvariantViolation,
    MOutOfRange,
    NotATreeDecomposition,
    RedundantDecomposition,
)
from .graph import Cut, Graph, boundary_width, first_bad, induced_sorted, is_int, max_degree
from .labeling import PLabeling, cyclic, find_anchor, labels_interval
from .treecut import CutTrace, _approximate_black
from .treedec import (
    TDSummary,
    TreeDecomposition,
    heaviest_path,
    make_nonredundant,
    require_decomposition,
    td_summary,
)


@dataclass(frozen=True)
class RCutTrace(CutTrace):
    """What the r-preserving cut actually did."""

    case_tag: str
    m: int
    r: Fraction
    t: int
    anchor: int | None = None
    floor_rm: int | None = None
    node: int | None = None
    m_tilde: int | None = None
    b_side: frozenset | None = None
    v_tilde: frozenset | None = None
    r_tilde: Fraction | None = None
    inner_width: int | None = None
    outer_width: int | None = None
    normalized_td: TreeDecomposition | None = field(default=None, repr=False)


def _td_blocks(td: TreeDecomposition, path_nodes, n: int) -> tuple[list, list, set]:
    """``(order, ends, R)``: the blocks of g's labeling along a path of td, flat, and R.

    ``td`` is a nonredundant decomposition of g's n vertices and
    ``path_nodes`` a path of its tree.  Block i holds the vertices of path
    node i: S_i first, then R_i, which take the block's largest labels.
    ``ends[i]`` is where block i ends in ``order``; ``PLabeling._trusted``
    builds the labeling from the three.  Raises ``RedundantDecomposition``
    when some R_i is empty, which cannot happen after ``make_nonredundant``.
    """
    # the path node of each node's component of T - E_P: a node off the path
    # takes its parent's, the root the path's first node in BFS order
    nodes, parent = td.rooted
    comp_of = dict(zip(path_nodes, path_nodes))
    comp_of.setdefault(nodes[0], next(filter(comp_of.__contains__, nodes)))
    for i in nodes[1:]:
        comp_of.setdefault(i, comp_of[parent[i]])

    in_r: set[int] = set()
    r_of: dict[int, list[int]] = {i: [] for i in path_nodes}
    for i in path_nodes:
        for v in sorted(td.bag(i)):
            if v not in in_r:
                in_r.add(v)
                r_of[i].append(v)

    s_of: dict[int, set] = {i: set() for i in path_nodes}
    for node in td.nodes():
        anchor = comp_of[node]
        for v in td.bag(node):
            if v not in in_r:
                s_of[anchor].add(v)

    for i in path_nodes:
        if not r_of[i]:
            raise RedundantDecomposition(f"cluster block of node {i} adds no new vertex")

    order, ends = [], []
    for i in path_nodes:
        order += sorted(s_of[i])
        order += r_of[i]
        ends.append(len(order))
    if len(order) != n:
        raise InvariantViolation("labeling blocks do not partition the vertex set")
    return order, ends, in_r


def approximate_cut_td(g: Graph, td: TreeDecomposition, m: int) -> Cut:
    """Approximate m-cut with width <= t*Δ(g), t-1 the decomposition width.

    Deletes all edges around one well-chosen cluster and reassembles the
    resulting disjoint parts greedily.  ``td`` is checked against ``g``
    (``NotATreeDecomposition`` with a witness).
    """
    require_decomposition(td, g, "approximate_cut_td")
    if not is_int(m) or not (1 <= m <= 2 * g.n):
        raise MOutOfRange(f"m={m!r} not in 1..{2 * g.n}")
    return Cut._trusted(g, _approximate_cut_td(td, g.vertices(), m))


def _approximate_cut_td(td: TreeDecomposition, vertices, m: int) -> frozenset:
    """Black set of ``approximate_cut_td`` for the graph on ``vertices`` that td decomposes.

    Reads td's clusters through ``vertices`` alone, so the peel passes its
    whole decomposition and the set S_i it splits, in any ids.  Each
    vertex is carried by the first node of the BFS from node 1 whose
    cluster holds it: by (T3) the nodes holding a vertex form a subtree,
    so that node is its one shallowest occurrence and no depth is needed.
    The rule is ``treecut._approximate_black``'s; after it, the vertices
    of x's cluster are added in id order while B holds fewer than m/2.
    The caller checks that m is an integer in 1..2n, n = len(vertices).
    """
    n = len(vertices)
    if m >= n:
        return frozenset(vertices)
    keep = frozenset(vertices)
    order, parent = td.rooted
    top: dict[int, int] = {}
    for i in order:
        for v in td.bag(i) & keep:
            top.setdefault(v, i)
    tops: list[list[int]] = [[] for _ in range(td.num_nodes + 1)]
    for v, i in top.items():
        tops[i].append(v)

    size = dict(zip(order, map(len, map(tops.__getitem__, order))))
    x, inside = _approximate_black(td.tree_adj, order, parent, size, m)
    black = [v for u in inside for v in tops[u]]
    for v in sorted(td.bag(x) & keep):
        if 2 * len(black) >= m:
            break
        black.append(v)
    if not (m <= 2 * len(black) and len(black) <= m):
        raise InvariantViolation("approximate cluster cut missed its size window")
    return frozenset(black)


def r_preserving_cut(
    g: Graph,
    td: TreeDecomposition,
    m: int,
    summary: TDSummary | None = None,
) -> tuple[Cut, RCutTrace]:
    """Cut with |B| = m whose remainder keeps the relative path weight.

    Guarantees, with r = r(T,X) of the normalized input and t-1 its
    width: |B| = m, width <= (t/2)(log2(1/r)^2 + 11 log2(1/r) + 24)Δ(g),
    and r of the decomposition induced by G[W] is at least r.

    ``td`` is checked against ``g`` (``NotATreeDecomposition`` with a
    witness), then normalized and weighed.  ``summary`` is
    ``td_summary(td, n)`` when the caller already has it (the peel loop
    does): it replaces all three, and ``td`` is then not read.  The cut
    splits the n ids V of the summary's clusters, W = V∖B, and V must be
    closed under g's edges (``NotATreeDecomposition``), so B's edges all
    end in V.  The inner exact DP checks the glued decomposition it is
    handed, and refuses widths above its default limit (``WidthTooLarge``).
    """
    if summary is None:
        require_decomposition(td, g, "r_preserving_cut")
        summary = td_summary(td, g.n)
    n, live = summary.n, frozenset().union(*summary.td.bags)
    if first_bad(live, 1, g.n) or len(live) != n or boundary_width(g, live):
        raise NotATreeDecomposition(
            f"r_preserving_cut: a summary of a decomposition of {n} vertices does not cover"
            f" {n} of the graph's ids 1..{g.n} that no edge of the graph leaves"
        )
    td0, t, hp = summary.td, summary.t, summary.path
    r = hp.relative_weight
    lab = PLabeling._trusted(*_td_blocks(td0, hp.path, n))
    v = find_anchor(lab, m)  # checks m: MOutOfRange unless an integer in 1..n - 1
    floor_rm = (lab.num_path * m) // n
    m_vertices = frozenset(labels_interval(lab, v, m))
    v_in_r = lab.on_path[v]
    vm_in_r = lab.on_path[cyclic(v + m, n)]

    base = dict(m=m, r=r, t=t, anchor=v, floor_rm=floor_rm, normalized_td=td0)
    if v_in_r and vm_in_r:
        return Cut._trusted(g, m_vertices), RCutTrace(case_tag="Case1", **base)
    # the end of the m-window outside R lies in S_i of the split node i
    i, first, last = lab.block(v + m if v_in_r else v)
    base["node"] = split_node = hp.path[i]
    if v_in_r and lab.on_path[cyclic(v + m - 1, n)]:
        return Cut._trusted(g, m_vertices), RCutTrace(case_tag="Case2a", **base)

    case = "Case2b" if v_in_r else "Case3"
    s_set = frozenset(lab.vertex_of[x] for x in range(first, last + 1) if not lab.on_path[x])
    m_tilde = 2 * len(s_set & m_vertices)
    if not (2 <= m_tilde <= 2 * m):
        raise InvariantViolation(f"{case}: m-tilde {m_tilde} out of range")

    b_side = _approximate_cut_td(td0, s_set, m_tilde)

    v_tilde = frozenset((m_vertices - s_set) | b_side)
    if not (m <= len(v_tilde) <= 2 * m):
        raise InvariantViolation(f"{case}: inner vertex set size {len(v_tilde)}")

    # Ṽ's one map to the ids 1..|Ṽ| of its graph G̃, the glue and the inner DP
    new_of = {old: i for i, old in enumerate(sorted(v_tilde), start=1)}
    g_tilde = induced_sorted(g, list(new_of), without=td0.bag(split_node))
    b_local = {new_of[u] for u in b_side}
    if boundary_width(g_tilde, b_local):
        raise InvariantViolation(f"{case}: split sides are still connected")

    glued = _glue_decompositions(td0, new_of, b_side, hp.path[-1])
    if glued.width > t - 1:
        raise InvariantViolation(f"{case}: glued decomposition too wide")
    r_tilde = heaviest_path(glued, len(new_of)).relative_weight
    if 2 * r_tilde < r:
        raise InvariantViolation(f"{case}: glued decomposition too light ({r_tilde} < {r}/2)")
    glued_small = make_nonredundant(glued)
    inner_cut, inner_width = oracle.dp_min_size_cut_td(g_tilde, glued_small, m)
    black = {old for old, i in new_of.items() if i in inner_cut.black}
    outer = boundary_width(g, v_tilde)
    # Ṽ's degrees are at most Δ, so testing them first leaves the predicate as it is
    gadj = g.adj
    if outer > 3 * t * max([len(gadj[v]) for v in v_tilde]) and outer > 3 * t * max_degree(g):
        raise InvariantViolation(f"{case}: outer cut exceeds 3tΔ")
    return Cut._trusted(g, black), RCutTrace(
        case_tag=case,
        m_tilde=m_tilde,
        b_side=b_side,
        v_tilde=v_tilde,
        r_tilde=r_tilde,
        inner_width=inner_width,
        outer_width=outer,
        **base,
    )


def _glue_decompositions(
    td0: TreeDecomposition, new_of: dict, b_side: frozenset, j0: int
) -> TreeDecomposition:
    """Join induced decompositions of the two split sides by one edge, on their spans.

    Copy 1 covers the non-split side, copy 2 the approximate-cut side
    (node i of td0 is i + num there); the new edge runs from the far path
    end j0 (copy 1) to the smallest copy-2 node with a nonempty cluster.
    The clusters are written in Ṽ's local ids (``new_of``); ``b_side``,
    the approximate-cut side, is in td0's ids.

    Of each copy only its span is built: the subtree spanned by the nodes
    whose cluster meets its side, and by j0 in copy 1, which drops out
    with its bridge when no cluster meets its side.  Each empty span node
    s keeps the smallest id μ < s of the off-span regions hanging at it
    as an empty leaf, and the kept ids are renumbered in order.  Then
    ``make_nonredundant`` and r̃ come out as on the two whole copies: the
    off-span nodes are empty; a region at a nonempty node is only ever
    absorbed into that node; and a region at an empty node acts on the
    contraction order only through its smallest id, since on equal
    clusters the larger id is absorbed.  The span of a tree is a tree, so
    nothing is checked again.
    """
    num, (order, parent) = td0.num_nodes, td0.rooted
    low = list(range(num + 1))  # the smallest node of each subtree
    for u in order[:0:-1]:
        if low[u] < low[parent[u]]:
            low[parent[u]] = low[u]
    bags1, edges1, _ = _span(td0, parent, low, new_of.keys() - b_side, new_of, j0) or ({}, [], 0)
    bags2, edges2, h0 = _span(td0, parent, low, b_side, new_of, 0)
    ids = [*sorted(bags1), *(i + num for i in sorted(bags2))]
    edges = [*edges1, *((i + num, j + num) for i, j in edges2)]
    if bags1:
        edges.append((j0, h0 + num))
    bags = [bags1[i] if i <= num else bags2[i - num] for i in ids]
    # renumbering in ascending order keeps each edge's (smaller, larger) order
    new_id = dict(zip(ids, range(1, len(ids) + 1)))
    edges = [(new_id[i], new_id[j]) for i, j in edges]
    around: list[list[int]] = [[] for _ in range(len(ids) + 1)]
    for i, j in edges:
        around[i].append(j)
        around[j].append(i)
    return TreeDecomposition._trusted(
        tuple(bags), tuple(map(tuple, map(sorted, around))), frozenset(edges)
    )


def _span(td0: TreeDecomposition, parent: list, low: list, side, new_of: dict, j0: int):
    """One copy of ``_glue_decompositions``: (clusters by node, edges, first nonempty node).

    ``side`` holds the copy's vertices in td0's ids, j0 is a node the span
    must hold (0 for none), and ``parent``/``low`` are td0's BFS parents
    from node 1 and subtree minima.  Edges are (smaller, larger) nodes;
    the clusters include the empty stand-ins.  None when no cluster meets
    ``side``.
    """
    bags, adj = td0.bags, td0.tree_adj
    hit = list(compress(range(1, len(bags) + 1), map(not_, map(side.isdisjoint, bags))))
    if not hit:
        return None
    inside = [False] * len(adj)
    inside[0] = True  # the root's parent stops the first walk
    span = []
    for x in (*hit, j0) if j0 else hit:
        while not inside[x]:
            inside[x] = True
            span.append(x)
            x = parent[x]
    # the first walk reached the root: cut the chain above the lowest common ancestor
    top = 1
    while top != j0 and bags[top - 1].isdisjoint(side):
        below = [w for w in adj[top] if parent[w] == top and inside[w]]
        if len(below) != 1:
            break
        inside[top] = False
        top = below[0]
    get, empty = new_of.__getitem__, frozenset()
    clusters, edges = {}, []
    for s in span:
        if not inside[s]:
            continue
        clusters[s] = bag = frozenset(map(get, bags[s - 1] & side))
        if s != top:
            p = parent[s]
            edges.append((p, s) if p < s else (s, p))
        if not bag:
            # the smallest id of the off-span regions hanging at s; the root's above the top
            mu = 1 if s == top else s
            for w in adj[s]:
                if parent[w] == s and not inside[w] and low[w] < mu:
                    mu = low[w]
            if mu < s:
                clusters[mu] = empty
                edges.append((mu, s))
    return clusters, edges, hit[0]
