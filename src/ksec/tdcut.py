"""Cuts in graphs driven by a tree decomposition.

Mirrors the tree machinery: the heaviest path of the decomposition
plays the role of a longest path, the vertex set splits into R (covered
by path clusters) and the per-node remainders S_i, and the tree's
cyclic labeling (``labeling.PLabeling``, with R marked in place of the
path) places each R_i ∪ S_i block consecutively with R_i last.  The
anchor and the label interval are found as for a tree.  The
r-preserving cut peels off exactly m vertices while the relative
heaviest-path weight of the remainder never drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import oracle
from .errors import (
    InvariantViolation,
    MOutOfRange,
    NotATreeDecomposition,
    RedundantDecomposition,
)
from .graph import Cut, Graph, bfs_tree, boundary_width, induced_sorted, is_int, max_degree
from .labeling import PLabeling, cyclic, find_anchor, labels_interval
from .treecut import CutTrace
from .treedec import (
    HeaviestPathResult,
    TDSummary,
    TreeDecomposition,
    heaviest_path,
    induced_local,
    make_nonredundant,
    require_decomposition,
    td_summary,
)


@dataclass(frozen=True)
class TDPLabeling:
    """The cyclic labeling with R marked, plus the blocks along the path."""

    labeling: PLabeling
    a_p: tuple  # vertex -> path node
    l_p: tuple  # path nodes in order
    r_of: dict  # path node -> sorted tuple R_i
    s_of: dict  # path node -> sorted tuple S_i


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


def td_p_labeling(g: Graph, td: TreeDecomposition, path: HeaviestPathResult) -> TDPLabeling:
    """Labeling of g along a path of a nonredundant decomposition.

    Blocks follow the path; within the block of node i the S_i vertices
    come first and the R_i vertices take the largest labels.  That order
    and the marked set R make the ``PLabeling`` the tree cut uses.  Raises
    ``RedundantDecomposition`` when some R_i is empty, which cannot
    happen after ``make_nonredundant``.
    """
    n = g.n
    path_nodes = tuple(path.path)

    # component of T - E_P containing each node; path nodes start out
    # visited, so each search stays inside its component
    parent = [-1] * (td.num_nodes + 1)
    for i in path_nodes:
        parent[i] = 0
    comp_of = {}
    for i in path_nodes:
        comp_of.update(dict.fromkeys(bfs_tree(td.tree_adj, i, parent)[0], i))
    if len(comp_of) != td.num_nodes:
        raise InvariantViolation("path does not lie in the decomposition tree")

    in_r: set[int] = set()
    path_node_of = [0] * (n + 1)
    r_of: dict[int, list[int]] = {i: [] for i in path_nodes}
    for i in path_nodes:
        for v in sorted(td.bag(i)):
            if v not in in_r:
                in_r.add(v)
                path_node_of[v] = i
                r_of[i].append(v)

    s_of: dict[int, set] = {i: set() for i in path_nodes}
    for node in td.nodes():
        anchor = comp_of[node]
        for v in td.bag(node):
            if v not in in_r:
                s_of[anchor].add(v)
                path_node_of[v] = anchor

    for i in path_nodes:
        if not r_of[i]:
            raise RedundantDecomposition(f"cluster block of node {i} adds no new vertex")

    if sum(len(r_of[i]) + len(s_of[i]) for i in path_nodes) != n:
        raise InvariantViolation("labeling blocks do not partition the vertex set")

    order = [v for i in path_nodes for v in sorted(s_of[i]) + r_of[i]]
    return TDPLabeling(
        labeling=PLabeling.from_order(order, in_r),
        a_p=tuple(path_node_of),
        l_p=path_nodes,
        r_of={i: tuple(r_of[i]) for i in path_nodes},
        s_of={i: tuple(sorted(s_of[i])) for i in path_nodes},
    )


def approximate_cut_td(g: Graph, td: TreeDecomposition, m: int) -> Cut:
    """Approximate m-cut with width <= t*Δ(g), t-1 the decomposition width.

    Deletes all edges around one well-chosen cluster and reassembles the
    resulting disjoint parts greedily.  ``td`` is checked against ``g``
    (``NotATreeDecomposition`` with a witness).
    """
    require_decomposition(td, g, "approximate_cut_td")
    return Cut._trusted(g, _approximate_cut_td(g, td, m))


def _approximate_cut_td(g: Graph, td: TreeDecomposition, m: int) -> frozenset:
    """Black set of ``approximate_cut_td``."""
    n = g.n
    if not is_int(m) or not (1 <= m <= 2 * n):
        raise MOutOfRange(f"m={m!r} not in 1..{2 * n}")
    if m >= n:
        return frozenset(g.vertices())

    order, parent = bfs_tree(td.tree_adj, 1)
    depth = [0] * (td.num_nodes + 1)
    for u in order[1:]:
        depth[u] = depth[parent[u]] + 1

    top = {}
    for i in td.nodes():
        for v in td.bag(i):
            if v not in top or depth[i] < depth[top[v]]:
                top[v] = i

    by_top: dict[int, list[int]] = {}
    for v, i in top.items():
        by_top.setdefault(i, []).append(v)
    d_size = [0] * (td.num_nodes + 1)
    for i in reversed(order):
        d_size[i] += len(by_top.get(i, ()))
        if parent[i]:
            d_size[parent[i]] += d_size[i]

    x = 1
    while True:
        down = [w for w in td.tree_adj[x] if parent[w] == x and d_size[w] > m]
        if not down:
            break
        x = min(down)

    parts: list[list[int]] = []
    for y in sorted(w for w in td.tree_adj[x] if parent[w] == x):
        nodes = [y]
        for u in nodes:
            nodes.extend(w for w in td.tree_adj[u] if parent[w] == u)
        part: list[int] = []
        for node in nodes:
            part.extend(by_top.get(node, ()))
        parts.append(sorted(part))
    parts.extend([v] for v in sorted(td.bag(x)))

    black: set[int] = set()
    for part in parts:
        if m <= 2 * len(part) and len(part) <= m:
            black = set(part)
            break
    else:
        for part in parts:
            if 2 * len(black) >= m:
                break
            black.update(part)
    if not (m <= 2 * len(black) and len(black) <= m):
        raise InvariantViolation("approximate cluster cut missed its size window")
    return frozenset(black)


def _subgraph_minus_cluster_edges(
    g: Graph, vertices: list[int], bag: frozenset
) -> Graph:
    """``induced_sorted(g, vertices)`` without the edges that touch ``bag``."""
    new_of = [0] * (g.n + 1)
    for i, v in enumerate(vertices, start=1):
        if v not in bag:
            new_of[v] = i
    get, adj = new_of.__getitem__, g.adj
    return Graph._trusted(
        len(vertices),
        ((), *[tuple(filter(None, map(get, adj[v]))) if new_of[v] else () for v in vertices]),
    )


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
    ``td_summary(td, g.n)`` when the caller already has it (the peel loop
    does): it replaces all three, ``td`` is then not read, and the summary
    is checked only against g's vertex set (``NotATreeDecomposition``).
    The inner exact DP checks the glued decomposition it is handed, and
    refuses widths above its default limit (``WidthTooLarge``).
    """
    n = g.n
    if not is_int(m) or not (1 <= m <= n - 1):
        raise MOutOfRange(f"m={m!r} not in 1..{n - 1}")
    if summary is None:
        require_decomposition(td, g, "r_preserving_cut")
        summary = td_summary(td, n)
    elif summary.n != n or frozenset().union(*summary.td.bags) != frozenset(g.vertices()):
        raise NotATreeDecomposition(
            f"r_preserving_cut: a summary of a decomposition of {summary.n} vertices"
            f" does not cover the {n} vertices of the graph"
        )
    td0, t, hp = summary.td, summary.t, summary.path
    r = hp.relative_weight
    blocks = td_p_labeling(g, td0, hp)
    lab = blocks.labeling
    floor_rm = (lab.num_path * m) // n
    v = find_anchor(lab, m)
    m_vertices = frozenset(labels_interval(lab, v, m))
    v_in_r = lab.on_path[v]
    vm_in_r = lab.on_path[cyclic(v + m, n)]
    vm_vertex = lab.vertex(v + m)

    base = dict(m=m, r=r, t=t, anchor=v, floor_rm=floor_rm, normalized_td=td0)
    if v_in_r and vm_in_r:
        return Cut._trusted(g, m_vertices), RCutTrace(case_tag="Case1", **base)
    if v_in_r and lab.on_path[cyclic(v + m - 1, n)]:
        return Cut._trusted(g, m_vertices), RCutTrace(
            case_tag="Case2a", node=blocks.a_p[vm_vertex], **base
        )

    if v_in_r:
        split_node = blocks.a_p[vm_vertex]  # path node of v+m, which lies in S
        case = "Case2b"
    else:
        split_node = blocks.a_p[lab.vertex(v)]  # path node of v, which lies in S
        case = "Case3"
    s_set = set(blocks.s_of[split_node])
    m_tilde = 2 * len(s_set & m_vertices)
    if not (2 <= m_tilde <= 2 * m):
        raise InvariantViolation(f"{case}: m-tilde {m_tilde} out of range")

    s_sorted = sorted(s_set)
    sub_s = induced_sorted(g, s_sorted)
    local_black = _approximate_cut_td(sub_s, induced_local(td0, s_sorted), m_tilde)
    b_side = frozenset(s_sorted[u - 1] for u in local_black)

    v_tilde = frozenset((m_vertices - s_set) | b_side)
    if not (m <= len(v_tilde) <= 2 * m):
        raise InvariantViolation(f"{case}: inner vertex set size {len(v_tilde)}")

    bag = td0.bag(split_node)
    vt_sorted = sorted(v_tilde)
    g_tilde = _subgraph_minus_cluster_edges(g, vt_sorted, bag)
    new_of = {old: i + 1 for i, old in enumerate(vt_sorted)}
    b_local = {new_of[u] for u in b_side}
    if boundary_width(g_tilde, b_local):
        raise InvariantViolation(f"{case}: split sides are still connected")

    glued = _glue_decompositions(td0, vt_sorted, new_of, b_local, blocks.l_p[-1])
    if glued.width > t - 1:
        raise InvariantViolation(f"{case}: glued decomposition too wide")
    r_tilde = heaviest_path(glued, len(vt_sorted)).relative_weight
    if 2 * r_tilde < r:
        raise InvariantViolation(f"{case}: glued decomposition too light ({r_tilde} < {r}/2)")
    glued_small = make_nonredundant(glued)
    inner_cut, inner_width = oracle.dp_min_size_cut_td(g_tilde, glued_small, m)
    black = {vt_sorted[u - 1] for u in inner_cut.black}
    outer = boundary_width(g, v_tilde)
    if outer > 3 * t * max_degree(g):
        raise InvariantViolation(f"{case}: outer cut exceeds 3tΔ")
    return Cut._trusted(g, black), RCutTrace(
        case_tag=case,
        node=split_node,
        m_tilde=m_tilde,
        b_side=b_side,
        v_tilde=v_tilde,
        r_tilde=r_tilde,
        inner_width=inner_width,
        outer_width=outer,
        **base,
    )


def _glue_decompositions(
    td0: TreeDecomposition,
    vt_sorted: list[int],
    new_of: dict,
    b_local: set,
    j0: int,
) -> TreeDecomposition:
    """Join induced decompositions of the two split sides by one edge.

    Copy 1 covers the non-split side, copy 2 the approximate-cut side;
    the new edge runs from the far path end j0 (copy 1) to the smallest
    copy-2 node with a nonempty cluster.
    """
    rest_set = {new_of[v] for v in vt_sorted} - b_local
    bags1 = []
    bags2 = []
    for bag in td0.bags:
        local = {new_of[v] for v in bag if v in new_of}
        bags1.append(frozenset(local & rest_set))
        bags2.append(frozenset(local & b_local))
    num = td0.num_nodes
    h0 = next(i for i, b in enumerate(bags2, start=1) if b)
    edges = list(td0.tree_edges)
    edges += [(i + num, j + num) for (i, j) in td0.tree_edges]
    edges.append((j0, h0 + num))
    return TreeDecomposition(bags1 + bags2, edges)
