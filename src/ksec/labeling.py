"""Cyclic labelings along a fixed path, with a marked vertex set.

Removing the edges of a path P from a tree splits the tree into one
subtree T_v per path vertex v.  The labeling built here assigns
1..n so that each subtree's vertices occupy a consecutive block, the
path vertex closes its block, and blocks follow the path order.  All
label arithmetic is cyclic modulo n (residues kept in 1..n).

The same labeling serves a graph with a tree decomposition
(``tdcut.td_p_labeling``): there the marked set is R, the vertices
covered by the heaviest path's clusters, and d_P, the anchor and the
label intervals are read exactly as for a tree.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from itertools import accumulate

from .errors import InvariantViolation, PathNotInTree
from .graph import Graph, is_int, require_tree


@dataclass(frozen=True)
class PathDecomposition:
    """Subtrees T_v hanging off a fixed path of a tree.

    ``subtree_of`` maps every vertex to its path vertex; ``subtree_members``
    maps each path vertex v to V(T_v) (including v itself).  ``order``
    lists every T_v in post-order, children ascending, so v closes its
    block, with the blocks in path order: the order ``p_labeling`` labels.
    """

    tree: Graph
    path: tuple
    subtree_of: dict
    subtree_members: dict
    order: list


@dataclass(frozen=True)
class PLabeling:
    """Bijection vertex <-> label plus O(1) path-distance machinery.

    The marked vertices are the path P of a tree, or R of a decomposed
    graph.  ``path_prefix[x]`` counts marked vertices with label < x, so
    d_P(x, y) is a prefix difference.  ``on_path[x]`` flags labels of
    marked vertices, and ``num_path`` counts them.
    """

    n: int
    label_of: tuple
    vertex_of: tuple
    path_prefix: tuple
    on_path: tuple
    num_path: int

    @classmethod
    def from_order(cls, order: list[int], marked: Container[int]) -> "PLabeling":
        """Label ``order[i]`` with i+1; ``order`` lists the vertices 1..n once each."""
        n = len(order)
        label_of = [0] * (n + 1)
        for lbl, v in enumerate(order, start=1):
            label_of[v] = lbl
        on_path = (False, *map(marked.__contains__, order))
        prefix = (0, *accumulate(on_path[1:], initial=0))
        return cls(
            n=n,
            label_of=tuple(label_of),
            vertex_of=(0, *order),
            path_prefix=prefix,
            on_path=on_path,
            num_path=prefix[n + 1],
        )

    def vertex(self, label: int) -> int:
        return self.vertex_of[cyclic(label, self.n)]


def cyclic(label: int, n: int) -> int:
    """Normalize an integer to its representative in 1..n."""
    return (label - 1) % n + 1


def decompose_along_path(tree: Graph, path) -> PathDecomposition:
    """Split ``tree`` into the subtrees hanging off ``path``."""
    require_tree(tree, "decompose_along_path")
    for v in path:
        if not is_int(v) or not 1 <= v <= tree.n:
            raise PathNotInTree(f"path vertex {v!r} out of vertex range 1..{tree.n}")
    return path_decomposition(tree, path)


def path_decomposition(tree: Graph, path) -> PathDecomposition:
    """``decompose_along_path`` for a graph the caller already knows is a tree.

    One sweep per path vertex v finds T_v and its post-order: a
    pre-order that takes the largest child first, reversed.
    """
    path = tuple(path)
    if len(set(path)) != len(path) or not path:
        raise PathNotInTree("path vertices must be distinct and non-empty")
    adj = tree.adj
    for a, b in zip(path, path[1:]):
        if b not in adj[a]:
            raise PathNotInTree(f"({a},{b}) is not an edge of the tree")
    # path vertices start out seen, so each sweep stays inside its T_v
    seen = [False] * (tree.n + 1)
    for v in path:
        seen[v] = True
    order: list[int] = []
    subtree_of = {}
    members = {}
    for v in path:
        stack, block = [v], []
        while stack:
            u = stack.pop()
            block.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        block.reverse()
        order += block
        members[v] = frozenset(block)
        subtree_of.update(dict.fromkeys(block, v))
    if len(order) != tree.n:
        raise PathNotInTree("path does not lie in this tree")
    return PathDecomposition(
        tree=tree,
        path=path,
        subtree_of=subtree_of,
        subtree_members=members,
        order=order,
    )


def p_labeling(dec: PathDecomposition) -> PLabeling:
    """Label vertices by a DFS from y0 that finishes each subtree in a block.

    The DFS visits the path predecessor of each path vertex first and the
    remaining neighbors ascending by id, so the labeling is deterministic.
    Labels follow its finishing order, which is ``dec.order``: the blocks
    T_x0, ..., T_y0 along the path, each in post-order.
    """
    return PLabeling.from_order(dec.order, frozenset(dec.path))


def d_p(lab: PLabeling, x: int, y: int) -> int:
    """Count marked vertices between labels x and y, excluding y (cyclic)."""
    n = lab.n
    x, y = cyclic(x, n), cyclic(y, n)
    if x <= y:
        return lab.path_prefix[y] - lab.path_prefix[x]
    return lab.num_path - lab.path_prefix[x] + lab.path_prefix[y]


def find_anchor(lab: PLabeling, m: int) -> int:
    """Smallest label v with d_P(v, v+m) = floor(|P| m / n) hitting the path.

    The returned v satisfies: v or v+m is marked (a path vertex, or in
    R).  For a tree |P|/n is diam*, for a decomposition r.  Existence is
    guaranteed by an averaging argument; failure to find one means the
    labeling is corrupt.
    """
    n = lab.n
    target = (lab.num_path * m) // n
    for v in range(1, n + 1):
        if lab.on_path[v] or lab.on_path[cyclic(v + m, n)]:
            if d_p(lab, v, v + m) == target:
                return v
    raise InvariantViolation(f"no anchor for m={m}; labeling corrupt")


def labels_interval(lab: PLabeling, start: int, count: int) -> set[int]:
    """Vertices whose labels are start, start+1, ..., start+count-1 (cyclic)."""
    n = lab.n
    return {lab.vertex_of[cyclic(start + i, n)] for i in range(count)}
