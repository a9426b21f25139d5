"""Cyclic labelings along a fixed path, with a marked vertex set.

Removing the edges of a path P from a tree splits the tree into one
subtree T_v per path vertex v.  The labeling built here assigns
1..n so that each subtree's vertices occupy a consecutive block, the
path vertex closes its block, and blocks follow the path order.  The
labeling keeps where each block ends, so a cut reads the block that
holds a label (``PLabeling.block``) instead of a vertex->block map.
All label arithmetic is cyclic modulo n (residues kept in 1..n).

The labeled vertices keep their own ids, which need not be 1..n: the
tree peel labels the n vertices still live in its input's id space, and
the labeling keeps no map over that id range (``label_of`` is built on
first read).
The sweep that finds each T_v also records its parents, so a cut can
size a subtree and read it off the block's post-order, where a subtree
is the run of labels that ends at its root.  ``_p_labeling`` checks
nothing: its callers hand it a path they found themselves, so the tree
cut labels a forest along its chain of longest paths, whose links are
not forest edges.

The same labeling serves a graph with a tree decomposition
(``tdcut._td_blocks``): there the marked set is R, the vertices
covered by the heaviest path's clusters, block i is S_i followed by
R_i of path node i, and d_P, the anchor and the label intervals are
read exactly as for a tree.  Its blocks come from one pass over the
decomposition's rooting.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Container
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .errors import InvariantViolation, KsecError, MOutOfRange
from .graph import Graph, is_int


@dataclass(frozen=True)
class PLabeling:
    """Bijection vertex <-> label plus O(1) path-distance machinery.

    The marked vertices are the path P of a tree, or R of a decomposed
    graph.  ``path_prefix[x]`` counts marked vertices with label < x, so
    d_P(x, y) is a prefix difference.  ``on_path[x]`` flags labels of
    marked vertices, and ``num_path`` counts them.  The labels run in
    blocks of consecutive labels, one per path vertex or path node, in
    path order; ``ends[i]`` is the last label of block i.  Every
    labeling is built by ``_trusted`` from one flat vertex order and its
    block ends: the tree sweep writes them so, and the decomposition's
    blocks (``tdcut._td_blocks``) flatten into them.
    """

    n: int
    vertex_of: tuple
    path_prefix: tuple
    on_path: tuple
    num_path: int
    ends: tuple

    @classmethod
    def _trusted(cls, order: list[int], ends: list[int], marked: Container[int]) -> "PLabeling":
        """The one builder: label ``order`` 1..n, its blocks ending at ``ends``; unchecked.

        ``order`` lists the blocks' vertices, distinct ids, block after
        block, and ``ends[i]`` is the length of the first i + 1 blocks.
        """
        n = len(order)
        on_path = (False, *map(marked.__contains__, order))
        prefix = (0, *accumulate(on_path[1:], initial=0))
        return cls(
            n=n,
            vertex_of=(0, *order),
            path_prefix=prefix,
            on_path=on_path,
            num_path=prefix[n + 1],
            ends=tuple(ends),
        )

    @cached_property
    def label_of(self) -> tuple:
        """``label_of[v]`` is v's label, 0 for an id in no block; built on first read."""
        label_of = [0] * (max(self.vertex_of) + 1)
        for lbl, v in enumerate(self.vertex_of):
            label_of[v] = lbl
        return tuple(label_of)

    def vertex(self, label: int) -> int:
        if not is_int(label):
            raise KsecError(f"PLabeling.vertex: label {label!r} is not an integer")
        return self.vertex_of[cyclic(label, self.n)]

    def block(self, label: int) -> tuple[int, int, int]:
        """(i, first, last): block i holds the labels first..last, ``label`` (cyclic) among them."""
        if not is_int(label):
            raise KsecError(f"PLabeling.block: label {label!r} is not an integer")
        ends = self.ends
        i = bisect_left(ends, cyclic(label, self.n))
        return i, ends[i - 1] + 1 if i else 1, ends[i]


def cyclic(label: int, n: int) -> int:
    """Normalize an integer to its representative in 1..n."""
    return (label - 1) % n + 1


def _p_labeling(tree: Graph, path) -> tuple[PLabeling, list[int]]:
    """The labeling of ``tree`` with ``path`` marked, and its sweeps' parents; unchecked.

    Removing the path's edges leaves one subtree T_v per path vertex v;
    block i is T_v of the i-th path vertex v, in post-order with v last.
    One sweep per path vertex finds T_v and its post-order: a pre-order
    that takes the largest child first, appended to the one flat order
    and reversed there, its end recorded as the block's.  ``parent[u]``
    is u's neighbour toward its path vertex, u on the path, 0 where no
    sweep came.  ``path`` is read more than once.
    """
    adj = tree.adj
    # path vertices start out reached, so each sweep stays inside its T_v
    parent = [0] * (tree.n + 1)
    for v in path:
        parent[v] = v
    order, ends = [], []
    for v in path:
        start, stack = len(order), [v]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in adj[u]:
                if not parent[w]:
                    parent[w] = u
                    stack.append(w)
        order[start:] = order[start:][::-1]
        ends.append(len(order))
    return PLabeling._trusted(order, ends, frozenset(path)), parent


def find_anchor(lab: PLabeling, m: int) -> int:
    """Smallest label v with d_P(v, v+m) = floor(|P| m / n) hitting the path.

    The returned v satisfies: v or v+m is marked (a path vertex, or in
    R).  For a tree |P|/n is diam*, for a decomposition r.  Existence is
    guaranteed by an averaging argument; failure to find one means the
    labeling is corrupt.  ``m`` must be an integer in 1..n - 1
    (``MOutOfRange``).  The labels whose window v..v+m stays within n
    are tried first, then those whose window wraps past n, so the first
    match is the smallest.
    """
    n = lab.n
    if not is_int(m) or not 1 <= m <= n - 1:
        raise MOutOfRange(f"m={m!r} not in 1..{n - 1}")
    target = (lab.num_path * m) // n
    on, prefix = lab.on_path, lab.path_prefix
    for v in range(1, n - m + 1):
        if (on[v] or on[v + m]) and prefix[v + m] - prefix[v] == target:
            return v
    wrapped = target - lab.num_path  # d_P(v, v+m) = num_path - prefix[v] + prefix[v+m-n]
    for v in range(n - m + 1, n + 1):
        if (on[v] or on[v + m - n]) and prefix[v + m - n] - prefix[v] == wrapped:
            return v
    raise InvariantViolation(f"no anchor for m={m}; labeling corrupt")


def labels_interval(lab: PLabeling, start: int, count: int) -> set[int]:
    """Vertices whose labels are start, start+1, ..., start+count-1 (cyclic).

    One slice of the labels, or two where the window wraps past n.
    """
    n, vertex_of = lab.n, lab.vertex_of
    first = cyclic(start, n)
    out = set(vertex_of[first : first + count])
    if first + count - 1 > n:
        out.update(vertex_of[1 : first + count - n])
    return out
