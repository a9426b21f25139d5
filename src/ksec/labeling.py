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
is the run of labels that ends at its root.  The public ``p_labeling``
checks the tree and the path; ``_p_labeling`` checks nothing, so the
tree cut labels a forest along its chain of longest paths, whose links
are not forest edges.

The same labeling serves a graph with a tree decomposition
(``tdcut.td_p_labeling``): there the marked set is R, the vertices
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
from itertools import accumulate, chain

from .errors import InvariantViolation, KsecError, MOutOfRange, NotAPartition, PathNotInTree
from .graph import Graph, first_bad, is_int, read_ids, require_tree


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
    block ends: the tree sweep writes them so, and ``from_blocks`` and
    the decomposition's blocks (``tdcut._td_blocks``) flatten into them.
    """

    n: int
    vertex_of: tuple
    path_prefix: tuple
    on_path: tuple
    num_path: int
    ends: tuple

    @classmethod
    def from_blocks(cls, blocks: list[list[int]], marked: Container[int]) -> "PLabeling":
        """Label the vertices of the blocks 1..n in order; the blocks partition 1..n.

        ``NotAPartition`` names a vertex out of 1..n or in no block, and a non-container ``marked``.
        """
        if not isinstance(marked, Container):
            raise NotAPartition(f"PLabeling: marked={marked!r} is not a set of vertex ids")
        blocks = [read_ids(b, NotAPartition, "PLabeling")
                  for b in read_ids(blocks, NotAPartition, "PLabeling")]
        order = list(chain.from_iterable(blocks))
        n = len(order)
        bad = first_bad(order, 1, n)
        if bad is not None:
            raise NotAPartition(f"PLabeling: block vertex {bad[0]!r} out of vertex range 1..{n}")
        if len(set(order)) != n:  # with every id in 1..n, one came twice
            missing = min(set(range(1, n + 1)).difference(order))
            raise NotAPartition(f"PLabeling: vertex {missing} lies in no block")
        return cls._trusted(order, list(accumulate(map(len, blocks))), marked)

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


def p_labeling(tree: Graph, path) -> PLabeling:
    """The labeling of ``tree`` with ``path`` marked, one block per subtree T_v off the path."""
    require_tree(tree, "p_labeling")
    return _p_labeling(tree, require_path(path, tree.adj, "p_labeling"))[0]


def require_path(path, adj, who: str, what: str = "vertex") -> list:
    """``path`` read into a list, once it is a path of the tree whose adjacency is ``adj``.

    ``adj`` is 1-indexed, and ``what`` names its entries.  ``PathNotInTree``
    names an id out of range, a repeated or empty path, or a step that is
    no tree edge.
    """
    path = read_ids(path, PathNotInTree, who)
    bad = first_bad(path, 1, len(adj) - 1)
    if bad is not None:
        raise PathNotInTree(f"path {what} {bad[0]!r} out of {what} range 1..{len(adj) - 1}")
    if len(set(path)) != len(path) or not path:
        raise PathNotInTree(f"a path's {what} ids must be distinct and non-empty")
    for a, b in zip(path, path[1:]):
        if b not in adj[a]:
            raise PathNotInTree(f"({a},{b}) is not an edge of the tree")
    return path


def _p_labeling(tree: Graph, path) -> tuple[PLabeling, list[int]]:
    """``p_labeling`` unchecked, and its sweeps' parents; ``path`` is read more than once.

    Removing the path's edges leaves one subtree T_v per path vertex v;
    block i is T_v of the i-th path vertex v, in post-order with v last.
    One sweep per path vertex finds T_v and its post-order: a pre-order
    that takes the largest child first, appended to the one flat order
    and reversed there, its end recorded as the block's.  ``parent[u]``
    is u's neighbour toward its path vertex, u on the path, 0 where no
    sweep came.
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


def d_p(lab: PLabeling, x: int, y: int) -> int:
    """Count marked vertices between labels x and y, excluding y (cyclic); labels are integers."""
    if not (is_int(x) and is_int(y)):
        raise KsecError(f"d_p: label {y if is_int(x) else x!r} is not an integer")
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
