"""Ground-truth computations: exact size-constrained cuts and minimum k-sections.

The exact-size cut of a forest (``dp_min_size_cut_tree``) first runs an
exhaustive search over the cuts of at most 2 edges (``_small_width_cut``):
subset sums over whole components, and subtree sizes looked up by count
and by bisection over the preorder.  It returns an optimum whenever the
optimum is at most 2, in O(n log n) time for a forest of few components,
and gives up otherwise; only then does the tree DP (``_dp_cut_tree``) run.
One BFS sweep (``component_orders``) roots the forest for both.  Both
take any ids: the tree cut hands over its inner set Ṽ in the forest's
ids, rooted over the forest's adjacency (``_InnerForest``), so neither
route relabels it.

The DP is one min-plus DP over a rooted tree, run over the vertices of a
forest under a virtual root 0 (``_dp_cut_tree``) or over the nodes of a
tree decomposition (``dp_min_size_cut_td``).  A
node's table is one 2-D array with a row per state (the color of the
vertex, or a coloring of the cluster) and a column per black count;
merging a child is one call of the row-wise min-plus kernel ``_minplus``
over all rows: one strided reduction when the merge has at most 16 rows,
512 output counts and 2^16 sums, and otherwise a loop over the narrower
operand's columns.  Decomposition tables are padded with INF to their
widest row.  A tree table over s of the forest's n vertices keeps only the
counts max(0, s - (n - m))..min(s, m) that a cut of m vertices can give
them, and identical unordered subtrees, in any of its components, share
one table, so the tree DP takes O(n * min(m, n - m)) time and memory.
Every child, a leaf too, is one merge into its parent's table.

Both DPs share one engine, ``_Tables``, and end in its ``cut``.  Its
``accumulate`` is the one merge loop: it builds every table, a tree
class's and a decomposition node's, and every row the trace recomputes.
``cut`` fills the tables once, picks the root's state of least width at
count m, and rebuilds an optimal black set deterministically (ascending
scans everywhere).  It reads the accumulations a node kept, and recomputes
only the followed row of a node that kept none.  A tree keeps its tables
only, plus the virtual root's accumulations; a decomposition node also
keeps its per-child accumulations where they take at most KEEP_RATIO
times its table, and each child's table reduced to the coloring of the
cluster it shares with its parent.  A tree subtree whose traced count is
0 or its size can take one coloring only, so the trace paints it whole
without splitting counts.  One hard memory guard (KSEC_MAX_MEM_MB)
counts every kept array at its allocated bytes: a table that identical
tree subtrees share once, and an array that decomposition nodes of one
shape share at every node that keeps it.  It drops the decomposition's
accumulations first and trips only when the arrays that must stay
exceed it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from math import comb
from typing import Sequence

import numpy as np

from .errors import (
    InvariantViolation,
    KOutOfRange,
    KsecError,
    MOutOfRange,
    ResourceLimit,
    TooLarge,
    WidthTooLarge,
)
from .graph import (
    Cut,
    Graph,
    KSection,
    component_orders,
    is_int,
    mem_limit_bytes,
    require_forest,
    require_memory,
)
from .treedec import TreeDecomposition, require_decomposition

INF = 1 << 28


def _strided(rows: int, out_len: int, narrow: int) -> bool:
    """Whether ``_minplus`` merges in one strided reduction rather than a column loop.

    A merge of at most 16 rows, 512 output counts and 2^16 sums (rows x
    counts x narrow columns) is.  A tree merge has one or two rows, a
    decomposition merge one per coloring of a cluster, so 16 rows admit
    clusters of up to 4 vertices.  Bigger merges loop: on partial 5- to
    8-trees the two routes tie at 32 rows, and from 64 rows up the loop is
    faster, its per-column steps amortized over wide rows
    (``scripts/wide_side.py --merges`` times both).
    """
    return rows <= 16 and out_len <= 512 and rows * out_len * narrow <= 1 << 16


def _minplus(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Row-wise min-plus over index sums lo..hi: out[r, c] = min over i+j=lo+c of a[r, i]+b[r, j].

    ``a`` and ``b`` are 2-D with one row per coloring (one row for a single
    sequence) and entries in 0..INF; the output ends early where the
    operands do, and ``lo`` is at most its last index sum.  A small merge
    (``_strided``: at most 16 rows, 512 output counts and 2^16 sums) is one
    reduction over a strided view of the INF-padded wider operand.
    Otherwise each step of a loop advances every row at once; it runs over
    the columns of the narrower operand that are finite in some row.
    """
    if b.shape[1] > a.shape[1]:
        a, b = b, a
    rows, width = a.shape
    narrow = b.shape[1]
    out_len = min(width + narrow - 1, hi + 1) - lo
    if _strided(rows, out_len, narrow):
        # window t of the INF-padded a holds a[lo + c + t - (narrow - 1)] at column c,
        # to be added to b's column narrow - 1 - t; 4 is the int32 item size
        span = width + 2 * (narrow - 1)
        pad = np.full((rows, span), INF, dtype=np.int32)
        pad[:, narrow - 1 : narrow - 1 + width] = a
        windows = np.ndarray(
            (narrow, rows, out_len), np.int32, buffer=pad, offset=4 * lo, strides=(4, 4 * span, 4)
        )
        return np.minimum.reduce(windows + b.T[::-1, :, None], axis=0, initial=INF)
    out = np.full((rows, out_len), INF, dtype=np.int32)
    for j, bj in enumerate(b[:, : lo + out_len].min(axis=0).tolist()):
        if bj >= INF:
            continue
        k = j - lo  # the output column of a's column 0
        if k >= 0:
            span = min(width, out_len - k)
            dst = out[:, k : k + span]
            np.minimum(dst, a[:, :span] + b[:, j : j + 1], out=dst)
        elif k + width > 0:
            span = min(width + k, out_len)
            dst = out[:, :span]
            np.minimum(dst, a[:, -k : span - k] + b[:, j : j + 1], out=dst)
    return out


# --- The exact-cut DP engine ------------------------------------------------

def _split(
    prev: np.ndarray, first: int, part: np.ndarray, part_first: int, c: int, target: int
) -> int | None:
    """Smallest cu with prev[c - cu] + part[cu] == target, or None.

    Undoes one min-plus merge of ``prev`` and ``part`` at black count c,
    where target is the merged entry at c.  ``prev`` starts at count
    ``first`` and ``part`` at count ``part_first``.
    """
    at = c - first  # prev's index at cu = 0
    lo = max(part_first, at - len(prev) + 1)
    hi = min(part_first + len(part), at + 1)
    if lo >= hi:
        return None
    sums = prev[at - hi + 1 : at - lo + 1][::-1] + part[lo - part_first : hi - part_first]
    hits = np.flatnonzero(sums == target)
    return lo + int(hits[0]) if len(hits) else None


KEEP_RATIO = 4  # a decomposition node keeps accumulations of at most this many times its table


class _Kept:
    """What one exact-cut DP keeps, under the memory guard.

    Every node's table stays, and so does every array counted by ``need``:
    the decomposition DP's reductions, and the tree's virtual root's
    accumulations (``keep``).  A decomposition node's intermediate
    accumulations (all but the last, which is its table) stay as well
    when they take at most KEEP_RATIO times the table's bytes and fit
    under the guard (``add``); a node with many children, whose
    accumulations grow with its degree times its table, recomputes the
    followed row when traced instead.  When an array that must stay does
    not fit, those accumulations are dropped first, so the guard trips
    only when the arrays that must stay exceed it.  A tree vertex keeps
    its table only, and vertices of one subtree class hold one table,
    counted once.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.table: dict[int, np.ndarray] = {}
        self.accs: dict[int, list[np.ndarray]] = {}  # the last one is the node's table
        self.need_bytes = 0
        self.inner_bytes = 0

    def need(self, nbytes: int) -> None:
        """Count ``nbytes`` of arrays that must stay until the trace ends."""
        self.need_bytes += nbytes
        if self.need_bytes + self.inner_bytes > self.limit:
            self.accs.clear()
            self.inner_bytes = 0
            if self.need_bytes > self.limit:
                raise ResourceLimit(
                    f"exact-cut DP tables exceed memory guard ({self.need_bytes >> 20} MB); "
                    "raise KSEC_MAX_MEM_MB"
                )

    def add(self, i: int, accs: list[np.ndarray]) -> None:
        """Keep node i's table, and its accumulations where they are cheap enough."""
        table = accs[-1]
        self.table[i] = table
        self.need(table.nbytes)
        inner = sum(a.nbytes for a in accs[:-1])
        if (
            inner <= KEEP_RATIO * table.nbytes
            and self.need_bytes + self.inner_bytes + inner <= self.limit
        ):
            self.accs[i] = accs
            self.inner_bytes += inner

    def keep(self, i: int, accs: list[np.ndarray]) -> None:
        """Keep node i's table and all its accumulations as arrays that must stay.

        Only a DP's last node may use it: a later ``need`` that drops
        accumulations would drop these too.
        """
        self.need(sum(a.nbytes for a in accs))
        self.table[i] = accs[-1]
        self.accs[i] = accs


class _Tables:
    """One exact-cut DP: a table per node of a rooted tree, filled bottom-up.

    A table has one row per state of its node and one column per black
    count in its band, INF where a state cannot reach the count.  ``run``
    fills ``kept``; ``trace`` follows one state down from the root,
    reading the kept accumulations and recomputing only the followed row
    of a node that has none in ``kept``; ``cut`` does both for one count.  A
    subclass gives the node's own rows (``own``), the first and last count
    each accumulation keeps (``band``), a child's rows for each state of
    the node (``child_rows``), the child state a split came from
    (``child_state``) and the vertex colors of a state (``paint``); it may
    also paint a whole subtree whose count leaves one coloring
    (``paint_forced``).
    ``rows`` is a slice of states, or None for all of them; given one
    state, ``child_rows`` returns one row.
    """

    kept: _Kept
    order: list[int]  # BFS order from the root
    children: dict[int, list[int]]

    def accumulate(self, i: int, rows: slice | None = None) -> list[np.ndarray]:
        """Node i's own rows, then one min-plus merge per child; the last is its table."""
        accs = [self.own(i, rows)]
        first = self.band(i, 0)[0]
        for idx, j in enumerate(self.children[i], 1):
            lo, hi = self.band(i, idx)
            base = first + self.band(j, -1)[0]  # the count of index sum 0
            accs.append(_minplus(accs[-1], self.child_rows(i, j, rows), lo - base, hi - base))
            first = lo
        return accs

    def run(self) -> np.ndarray:
        """Fill the tables; returns the root's."""
        for i in reversed(self.order):
            self.kept.add(i, self.accumulate(i))
        return self.kept.table[self.order[0]]

    def trace(self, state: int, count: int, color: dict[int, int]) -> None:
        """Color every vertex, following the root's ``state`` with ``count`` black vertices."""
        stack = [(self.order[0], state, count)]
        while stack:
            i, s, c = stack.pop()
            if self.paint_forced(i, s, c, color):
                continue
            self.paint(i, s, color)
            accs, r = self.kept.accs.get(i), s
            if accs is None:
                accs, r = self.accumulate(i, slice(s, s + 1)), 0
            children = self.children[i]
            after = self.band(i, -1)[0]  # the first count of accumulation idx + 1
            for idx in range(len(children) - 1, -1, -1):
                j = children[idx]
                part = self.child_rows(i, j, s)
                first = self.band(i, idx)[0]
                target = int(accs[idx + 1][r, c - after])
                cj = _split(accs[idx][r], first, part, self.band(j, -1)[0], c, target)
                if cj is None:
                    raise InvariantViolation("exact-cut DP trace failed to split a count")
                stack.append((j, *self.child_state(i, j, s, part, cj)))
                c, after = c - cj, first
            if c != s.bit_count():
                raise InvariantViolation("exact-cut DP trace ended on a bad count")

    def paint_forced(self, i: int, s: int, c: int, color: dict[int, int]) -> bool:
        """Color all of node i's subtree when ``c`` leaves it one coloring; True if it did."""
        return False

    def cut(self, adj: Sequence[Sequence[int]], m: int) -> tuple[list[int], int]:
        """Fill the tables and trace a minimum-width cut with |B| = m: (B, width).

        The root's state is the first one of least width at count m.
        ``adj`` holds the graph's edges, for the post-check.
        """
        root = self.run()
        col = m - self.band(self.order[0], -1)[0]
        if col >= root.shape[1] or root[:, col].min() >= INF:
            raise InvariantViolation("no cut of the requested size exists")
        state = int(root[:, col].argmin())
        width = int(root[state, col])
        color: dict[int, int] = {}
        self.trace(state, m, color)
        black = [v for v, s in color.items() if s == 1]
        _check_cut(adj, black, [v for v, s in color.items() if s == 0], m, width, "exact-cut DP")
        return black, width


def _check_cut(adj, black: list[int], white: list[int], m: int, width: int, what: str) -> None:
    """Raise ``InvariantViolation`` unless |B| = m and ``width`` edges of ``adj`` join the sides.

    The edges are counted from the smaller side, so an edge of ``adj``
    to a vertex on neither side does not count.
    """
    small, big = (black, white) if len(black) <= len(white) else (white, black)
    crossing = sum(map(set(big).__contains__, chain.from_iterable(map(adj.__getitem__, small))))
    if len(black) != m or crossing != width:
        raise InvariantViolation(f"{what} built a cut of the wrong size or width")


# --- Trees ------------------------------------------------------------------

def _band(s: int, m: int, n: int) -> tuple[int, int]:
    """First and last black count that s of a forest's n vertices can hold when |B| = m."""
    return max(0, s - (n - m)), min(s, m)


def _best(du: np.ndarray) -> np.ndarray:
    """Row s: best of child table ``du`` under a parent of color s, paying 1 when colors differ."""
    return np.minimum(du, du[::-1] + 1)


class _TreeTables(_Tables):
    """Per-vertex DP tables for a forest, as one tree under a virtual root 0.

    A vertex's state is its color.  Its accumulation idx covers the vertex
    and its first idx children's subtrees, and keeps only the black counts
    a cut of m of the forest's n vertices can give that many vertices.  The
    root's children are the components' roots, its one state pays nothing
    and covers no vertex, and a component root under it may take either
    color at no cost.  ``run`` keeps one table per class of identical
    unordered subtrees, in any component: the last accumulation of the
    class's first vertex.  It keeps no accumulations but the root's; the
    trace recomputes the followed row of any other vertex it splits, in
    that vertex's own child order.  ``leaf`` holds a vertex's own rows
    over its band, white at count 0 and black at count 1, both at no
    cost: every table starts from it, with one merge per child, and every
    leaf shares it as its table.  ``size`` holds the subtree sizes, and
    ``cover`` the per-accumulation covers of the vertices ``accumulate``
    merges.  ``orders`` are the components' BFS orders and ``parent`` the
    parents of the sweep that found them; the forest is the vertices of
    ``orders``, in any ids, and the edges of ``adj`` between them.
    """

    def __init__(self, adj, orders: list[list[int]], parent: Sequence[int], m: int, kept: _Kept):
        self.kept = kept
        self.order = [0, *(v for order in orders for v in order)]
        self.m, self.n = m, len(self.order) - 1
        self.children = {v: [w for w in adj[v] if parent[w] == v] for v in self.order[1:]}
        self.children[0] = [order[0] for order in orders]
        self.size = dict.fromkeys(self.order, 1)
        self.size[0] = 0
        for v in reversed(self.order[1:]):
            self.size[parent[v]] += self.size[v]
        self.cover: dict[int, list[int]] = {}
        lo, hi = _band(1, m, self.n)
        c = np.arange(lo, hi + 1)
        self.leaf = np.array([np.where(c == 0, 0, INF), np.where(c == 1, 0, INF)], dtype=np.int32)

    def band(self, v: int, idx: int) -> tuple[int, int]:
        if idx < 0:
            return _band(self.size[v], self.m, self.n)
        if v not in self.cover:
            sizes = (self.size[u] for u in self.children[v])
            self.cover[v] = list(accumulate(sizes, initial=1 if v else 0))
        return _band(self.cover[v][idx], self.m, self.n)

    def run(self) -> np.ndarray:
        """Fill one table per class of identical unordered subtrees; returns the root's.

        A vertex's class is the first vertex, in reverse BFS order, whose
        children are of the same classes in any order.  A banded table
        does not depend on the order of the merges: a coloring whose count
        lies in the last band has every partial count in its partial band.
        The virtual root comes last and in no class, since its own rows
        differ, and keeps its accumulations.
        """
        kept, table = self.kept, self.kept.table
        rep: dict[int, int] = {}
        class_of: dict[tuple[int, ...], int] = {}  # the children's sorted classes -> a class
        for v in reversed(self.order[1:]):
            key = tuple(sorted([rep[u] for u in self.children[v]]))
            r = rep[v] = class_of.setdefault(key, v)
            if r == v:
                table[v] = self.accumulate(v)[-1]
                kept.need(table[v].nbytes)
            else:
                table[v] = table[r]
        kept.keep(0, self.accumulate(0))
        return table[0]

    def own(self, v: int, rows: slice | None) -> np.ndarray:
        if v == 0:
            return np.zeros((1, 1), dtype=np.int32)
        return self.leaf if rows is None else self.leaf[rows]

    def child_rows(self, v: int, u: int, rows: int | slice | None) -> np.ndarray:
        du = self.kept.table[u]
        # a component root under the virtual root takes either color
        best = np.minimum(du[:1], du[1:]) if v == 0 else _best(du)
        return best if rows is None else best[rows]

    def child_state(self, v: int, u: int, s: int, part: np.ndarray, cu: int) -> tuple[int, int]:
        k = cu - self.band(u, -1)[0]
        return (s if self.kept.table[u][s, k] == part[k] else 1 - s), cu

    def paint(self, v: int, s: int, color: dict[int, int]) -> None:
        color[v] = s

    def paint_forced(self, v: int, s: int, c: int, color: dict[int, int]) -> bool:
        """A subtree with no black vertex, or only black ones, has one way to split its count."""
        if c != s * self.size[v]:
            return False
        stack = [v]
        while stack:
            u = stack.pop()
            color[u] = s
            stack += self.children[u]
        return True


@dataclass(frozen=True)
class _InnerForest:
    """A forest that lies in a larger adjacency, rooted and weighed by its builder.

    The tree cut's G[Ṽ] of the linked tree, in the forest's own ids: the
    forest is the ``n`` vertices that ``rooted`` reaches and the edges of
    ``adj`` between them.  ``rooted`` and ``outside`` are as
    ``_small_width_cut`` takes them: the BFS rooting over the ids of
    ``adj``, and the nonzero weights by vertex.
    """

    adj: Sequence[Sequence[int]]
    n: int
    rooted: tuple[list[list[int]], Sequence[int]]
    outside: dict[int, int]


def dp_min_size_cut_tree(
    forest: Graph | _InnerForest, m: int
) -> tuple[Cut, int] | tuple[list[int], int]:
    """Exact minimum-width cut with |B| = m in a forest of n vertices.

    The small-width search (``_small_width_cut``) answers every cut of
    width at most 2; the tree DP (``_dp_cut_tree``) runs only when the
    optimum is wider, or when the search would go quadratic.  Among the
    cuts of least width up to 2, ties go to ascending ids.

    One BFS sweep, from each smallest id not yet reached, roots the
    components for both routes.  With the edge count it also checks that
    the graph is a forest, so a caller that knows it has one pays no
    second check; only a graph with a cycle goes through
    ``require_forest``, which names an edge on it.

    The tree cut hands over its inner set instead, as an ``_InnerForest``
    it has rooted and weighed in the forest's ids; that is trusted, runs
    the same two routes, and gets back its black vertices as a list.
    Its weights are the one tie-break among the search's cuts of least
    width: it takes one whose black set has the least total weight.
    """
    if isinstance(forest, _InnerForest):
        return _exact_cut(forest.adj, m, forest.rooted, forest.outside)
    n = forest.n
    if not is_int(m) or not (0 <= m <= n):
        raise MOutOfRange(f"m={m!r} not in 0..{n}")
    mem_limit_bytes()  # a malformed guard is named on every call, not only where the DP runs
    rooted = component_orders(forest)
    if forest.num_edges != n - len(rooted[0]):
        require_forest(forest, "dp_min_size_cut_tree")  # a cycle: raises NotAForest naming an edge
    black, width = _exact_cut(forest.adj, m, rooted, None)
    return Cut._trusted(forest, black), width


def _exact_cut(adj, m: int, rooted, outside: dict[int, int] | None) -> tuple[list[int], int]:
    """(B, width): the small-width search's cut, or the tree DP's where the search gives up."""
    found = _small_width_cut(adj, m, rooted, outside)
    return found if found is not None else _dp_cut_tree(adj, m, rooted)


def _dp_cut_tree(
    adj: Sequence[Sequence[int]], m: int, rooted: tuple[list[list[int]], Sequence[int]]
) -> tuple[list[int], int]:
    """The tree DP: (B, width) of an exact minimum-width cut with |B| = m, of any width.

    The forest, its ids and ``rooted`` are as ``_small_width_cut`` takes
    them, and the DP runs it as one tree under a virtual root.  Time and kept memory are
    O(n * min(m, n - m)): a table over s vertices keeps only the black
    counts max(0, s - (n - m))..min(s, m) a cut can give them, and
    identical unordered subtrees, in one component or in several, share
    one table, built with one merge per child.  Only the tables stay,
    plus the virtual root's accumulations; the trace recomputes the
    followed row of each vertex it splits.
    """
    kept = _Kept(mem_limit_bytes())
    return _TreeTables(adj, *rooted, m, kept).cut(adj, m)


# --- Small-width search -----------------------------------------------------

SEARCH_COMPONENTS = 8  # at most this many components: 2^8 sets of whole components
SEARCH_WORK = 64  # width 2 scans at most this many times n vertices, over all its targets


def _first_min(*keys: np.ndarray) -> int:
    """Index of the first entry that is least in ``keys[0]``, then in ``keys[1]``, and so on."""
    idx = np.arange(len(keys[0]))
    for key in keys:
        at = key[idx]
        idx = idx[at == at.min()]
    return int(idx[0])


class _Component:
    """One component of the forest in the small-width search, rooted at its smallest id.

    Its vertices take the preorder positions base..base + c - 1, and the
    subtree of the vertex at position p is the run of ``size[p]``
    positions from p.  Cutting the edge above each vertex of a set E and
    giving the root color s colors a vertex by s plus the number of
    vertices of E on its root path, mod 2: the black part is the
    symmetric difference of their subtrees, or its complement when s is
    black.  ``total`` is the component's weight; ``verts`` are its
    vertices but the root, with their preorder positions from ``base``
    (``pos``), subtree sizes (``sz``) and subtree weights (``ow``).
    """

    def __init__(self, search: "_Search", base: int, c: int):
        self.base, self.c = base, c
        self.total = int(search.osub[base])
        rest = slice(base + 1, base + c)  # all but the root
        self.verts = search.pre[rest]
        self.pos = np.arange(1, c)
        self.sz = search.size[rest]
        self.ow = search.osub[rest]
        self._one = self._two = None

    def one(self) -> tuple[np.ndarray, ...]:
        """Width 1: for each black count, its best (weight, vertex, root color), by size.

        Cutting above v leaves T_v black (root white) or its complement
        black (root black).  Returns the sorted counts and, for each, the
        least weight, then vertex, then root color.
        """
        if self._one is None:
            c, sz, ow, v = self.c, self.sz, self.ow, self.verts
            count = np.concatenate([sz, c - sz])
            weight = np.concatenate([ow, self.total - ow])
            vert = np.concatenate([v, v])
            side = np.repeat(np.array([0, 1]), len(v))
            order = np.lexsort((side, vert, weight, count))
            count = count[order]
            first = np.flatnonzero(np.concatenate([count[:1] > 0, count[1:] != count[:-1]]))
            self._one = (count[first], *(a[order][first] for a in (weight, vert, side)))
        return self._one

    def _pairs(self):
        """Non-root vertices sorted by (size, position), and the best-weight ranks of runs.

        Returns the sorted keys, sizes, positions, vertices and subtree
        weights, and for each sorted position the best rank, by least
        weight then least id (``lo``) or by most weight then least id
        (``hi``), over the run of equal sizes up to it and from it on,
        with the vertices and subtree weights in rank order.
        """
        if self._two is None:
            sz, ow, v, pos = self.sz, self.ow, self.verts, self.pos
            key = sz * (self.c + 1) + pos
            order = np.argsort(key)
            ksz, nv = sz[order], len(v)
            runs = {}
            for name, by in (("lo", ow), ("hi", -ow)):
                rank_order = np.lexsort((v, by))
                rank = np.empty(nv, dtype=np.int64)
                rank[rank_order] = np.arange(nv)
                r = rank[order]
                # offsets that fall with the size keep a running minimum inside its run
                pre = np.minimum.accumulate((self.c - ksz) * nv + r) - (self.c - ksz) * nv
                suf = np.minimum.accumulate((ksz * nv + r)[::-1])[::-1] - ksz * nv
                runs[name] = (pre, suf, v[rank_order], ow[rank_order])
            self._two = (key[order], ksz, pos[order], v[order], ow[order], runs)
        return self._two

    def two(self, x: int, side: int) -> tuple[int, int, int] | None:
        """The best cut of two edges, above a and b, whose symmetric difference T_a, T_b has x vertices.

        That set is T_a minus T_b with b below a, or T_a plus T_b for
        disjoint a and b.  It is the black part for root color ``side`` 0,
        and its complement is for 1.  Returns the least (weight of the
        black part, smaller id, larger id), or None.
        """
        keys, ksz, kpos, kv, kow, runs = self._pairs()
        if not len(keys):
            return None
        K = self.c + 1
        sz, ow, v, pos = self.sz, self.ow, self.verts, self.pos
        last = len(keys) - 1
        # nested: the one vertex a of size sz + x whose subtree holds b = v
        u = sz + x
        e = np.searchsorted(keys, u * K + pos, side="right") - 1
        ec = np.maximum(e, 0)
        ok = (e >= 0) & (ksz[ec] == u) & (kpos[ec] + u > pos)
        a_n, b_n = kv[ec[ok]], v[ok]
        w_n = kow[ec[ok]] - ow[ok]
        # disjoint: for a = v, the best b of size x - sz before or after T_a, not above a
        u = x - sz
        start = np.searchsorted(keys, u * K)
        stop = np.searchsorted(keys, (u + 1) * K)
        before = np.searchsorted(keys, u * K + pos)
        above = (before > start) & (kpos[np.maximum(before - 1, 0)] + u > pos)
        before -= above
        after = np.searchsorted(keys, u * K + pos + sz)
        pre, suf, by_rank, ow_by_rank = runs["lo" if side == 0 else "hi"]
        big = len(keys)
        rank = np.minimum(
            np.where(before > start, pre[np.clip(before - 1, 0, last)], big),
            np.where(after < stop, suf[np.minimum(after, last)], big),
        )
        ok = (u >= 1) & (rank < big)
        a_d, b_d = v[ok], by_rank[rank[ok]]
        w_d = ow[ok] + ow_by_rank[rank[ok]]
        a, b, w = (np.concatenate(p) for p in ((a_n, a_d), (b_n, b_d), (w_n, w_d)))
        if not len(w):
            return None
        if side:
            w = self.total - w
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        i = _first_min(w, lo, hi)
        return int(w[i]), int(lo[i]), int(hi[i])


class _Search:
    """The forest in preorder, for ``_small_width_cut``.

    The components keep their order (ascending smallest id) and occupy
    consecutive preorder positions.  The arrays run over the positions:
    ``pre`` lists the vertices, ``size`` their subtree sizes and ``osub``
    their subtrees' weights.  A vertex v has the index ``index_of[v]`` in
    the BFS orders, laid end to end, and the position ``tin`` at that
    index; only ``index_of`` spans the id range of the adjacency the
    forest lies in.  ``mask_size`` and ``mask_weight`` give the vertex
    count and weight of each set of whole components, as a bit mask.
    """

    def __init__(self, orders: list[list[int]], parent: Sequence[int], outside: dict | None):
        flat = list(chain.from_iterable(orders))
        n = len(flat)
        starts = list(accumulate(map(len, orders), initial=0))
        ids = np.array(flat, dtype=np.int64)
        self.index_of = np.empty(len(parent), dtype=np.int64)
        self.index_of[ids] = np.arange(n)
        up = self.index_of[np.fromiter(map(parent.__getitem__, flat), np.int64, n)]
        up[starts[:-1]] = n  # the roots hang below n, so the components take consecutive runs
        up = up.tolist()  # up[i]: the index of the parent of the vertex at index i
        size = [1] * (n + 1)
        for i in range(n - 1, -1, -1):
            size[up[i]] += size[i]
        tin, nxt = [0] * (n + 1), [0] * (n + 1)
        for i, p in enumerate(up):
            t = tin[i] = nxt[p]
            nxt[p] = t + size[i]
            nxt[i] = t + 1
        self.tin = np.array(tin[:n], dtype=np.int64)
        self.pre = np.empty(n, dtype=np.int64)
        self.pre[self.tin] = ids
        self.size = np.empty(n, dtype=np.int64)
        self.size[self.tin] = size[:n]
        w = np.zeros(n + 1, dtype=np.int64)  # after the cumsum, w[p]: the weight of positions 0..p - 1
        if outside:
            heavy = np.fromiter(outside, np.int64, len(outside))
            w[self.tin[self.index_of[heavy]] + 1] = np.fromiter(outside.values(), np.int64, len(heavy))
            np.cumsum(w, out=w)
        self.osub = w[self.size + np.arange(n)] - w[:n]
        self.comps = [_Component(self, base, len(order)) for base, order in zip(starts, orders)]
        r = len(self.comps)
        self.mask_size, self.mask_weight = [0] * (1 << r), [0] * (1 << r)
        for mask in range(1, 1 << r):
            j = (mask & -mask).bit_length() - 1
            rest = mask & (mask - 1)
            self.mask_size[mask] = self.mask_size[rest] + self.comps[j].c
            self.mask_weight[mask] = self.mask_weight[rest] + self.comps[j].total

    def masks(self, m: int, cut: tuple[int, ...], lo: int = -1, hi: int = 1 << 62):
        """(x, weight, root colors) for each set of whole black components beside the ``cut`` ones.

        x is the number of black vertices left for the cut components,
        which take root color 0 in the colors returned; only lo < x < hi
        are listed.
        """
        r, skip = len(self.comps), sum(1 << j for j in cut)
        return [
            (m - size, self.mask_weight[mask], tuple((mask >> j) & 1 for j in range(r)))
            for mask, size in enumerate(self.mask_size)
            if not mask & skip and lo < m - size < hi
        ]

    def width_0(self, m: int):
        return [(weight, (), colors) for _, weight, colors in self.masks(m, (), -1, 1)]

    def width_1(self, m: int):
        for j, comp in enumerate(self.comps):
            targets = self.masks(m, (j,), 0, comp.c)
            if not targets:
                continue
            count, weight, vert, side = comp.one()
            for x, mw, colors in targets:
                i = int(np.searchsorted(count, x))
                if i < len(count) and count[i] == x:
                    yield mw + int(weight[i]), (int(vert[i]),), _recolor(colors, j, int(side[i]))

    def width_2_targets(self, m: int) -> list[tuple[tuple[int, ...], list]] | None:
        """The components that width 2 cuts, one or a pair, each with its targets from ``masks``.

        None when the scan would pass more than SEARCH_WORK * n vertices:
        the cut components' vertices, once per distinct target.
        """
        r = len(self.comps)
        cuts = [(j,) for j in range(r)] + list(combinations(range(r), 2))
        targets, work = [], 0
        for cut in cuts:
            c = sum(self.comps[j].c for j in cut)
            found = self.masks(m, cut, len(cut) - 1, c - len(cut) + 1)
            targets.append((cut, found))
            work += c * len({x for x, _, _ in found})
        return targets if work <= SEARCH_WORK * len(self.pre) else None

    def width_2(self, m: int):
        for cut, targets in self.width_2_targets(m) or ():
            if len(cut) == 1:
                yield from self._cut_twice(cut[0], targets)
            else:
                yield from self._cut_once_each(*cut, targets)

    def _cut_twice(self, j: int, targets: list):
        comp, best = self.comps[j], {}
        for x, mw, colors in targets:
            if x not in best:
                found = [(*f, side) for side, y in ((0, x), (1, comp.c - x))
                         if (f := comp.two(y, side)) is not None]
                best[x] = min(found) if found else None
            if best[x] is not None:
                w, lo, hi, side = best[x]
                yield mw + w, (lo, hi), _recolor(colors, j, side)

    def _cut_once_each(self, j1: int, j2: int, targets: list):
        c1, w1, v1, s1 = self.comps[j1].one()
        c2, w2, v2, s2 = self.comps[j2].one()
        if not len(c1) or not len(c2):
            return
        for x, mw, colors in targets:
            i2 = np.minimum(np.searchsorted(c2, x - c1), len(c2) - 1)
            i1 = np.flatnonzero(c2[i2] == x - c1)
            if not len(i1):
                continue
            i2 = i2[i1]
            w = w1[i1] + w2[i2]
            lo, hi = np.minimum(v1[i1], v2[i2]), np.maximum(v1[i1], v2[i2])
            k = _first_min(w, lo, hi, 2 * s1[i1] + s2[i2])
            colors = _recolor(_recolor(colors, j1, int(s1[i1[k]])), j2, int(s2[i2[k]]))
            yield mw + int(w[k]), (int(lo[k]), int(hi[k])), colors

    def sides(self, cuts: tuple[int, ...], colors: tuple[int, ...]) -> tuple[list, list]:
        """The black and white vertices with the edges above ``cuts`` cut and the given root colors."""
        flip = np.zeros(len(self.pre) + 1, dtype=np.int8)
        for v in cuts:
            t = self.tin[self.index_of[v]]
            flip[t] ^= 1
            flip[t + self.size[t]] ^= 1
        for comp, s in zip(self.comps, colors):
            if s:
                flip[comp.base] ^= 1
                flip[comp.base + comp.c] ^= 1
        black = np.bitwise_xor.accumulate(flip[:-1]).astype(bool)
        return self.pre[black].tolist(), self.pre[~black].tolist()


def _recolor(colors: tuple[int, ...], j: int, s: int) -> tuple[int, ...]:
    return colors[:j] + (s,) + colors[j + 1 :]


def _small_width_cut(
    adj: Sequence[Sequence[int]],
    m: int,
    rooted: tuple[list[list[int]], Sequence[int]],
    outside: dict[int, int] | None = None,
) -> tuple[list[int], int] | None:
    """A minimum-width black set of m vertices and its width, if that is at most 2, else None.

    The forest is the vertices ``rooted`` reaches, in any ids, and the
    edges of ``adj`` between them.  ``rooted`` is its BFS rooting: the
    components' orders, each from its smallest id, ascending by that id,
    and the parents (0 at a root), over the ids of ``adj``; every edge of
    the forest joins a vertex to its parent.  ``dp_min_size_cut_tree``
    hands it ``component_orders(forest)`` for a graph, and an
    ``_InnerForest``'s rooting for the tree cut's inner set Ṽ, rooted over
    the forest's own adjacency, so nothing is relabeled.

    Exhaustive per width: it returns width w only after it has ruled out
    every smaller width, so the cut is an optimum.  A cut of width w
    cuts w edges of the forest, in one component or two, and leaves the
    other components whole; each component is black or white at its root.
    Width 0 takes whole components; width 1 one subtree T_v or its
    complement, found by black count; width 2 either one component cut
    twice (``_Component.two``, by bisection over the subtrees sorted by
    size and preorder position) or two components cut once each, matched
    by count.  The sets of whole components are enumerated, so it returns
    None beyond SEARCH_COMPONENTS components, and before a width-2 stage
    that would scan more than SEARCH_WORK * n vertices.

    Among the cuts of least width, it returns the one of least weight,
    ``outside`` giving a vertex's weight (0 where it has none), then the
    one whose cut edges hang above the smaller ids (compared as sorted
    tuples), then by the components' root colors in component order,
    white first.  The black set it returns has m vertices and that many
    edges of ``adj`` to the forest's other vertices, or it raises
    ``InvariantViolation``.
    """
    orders, parent = rooted
    if len(orders) > SEARCH_COMPONENTS:
        return None
    search = _Search(orders, parent, outside)
    for width, stage in enumerate((search.width_0, search.width_1, search.width_2)):
        best = min(stage(m), default=None)
        if best is None:
            continue
        _, cuts, colors = best
        black, white = search.sides(cuts, colors)
        _check_cut(adj, black, white, m, width, "small-width search")
        return black, width
    return None


# --- Tree decompositions ----------------------------------------------------

@functools.cache
def _bits(b: int) -> np.ndarray:
    """Entry [mask, p] is bit p of mask, for the masks 0..2^b - 1 (read-only)."""
    bits = (np.arange(1 << b)[:, None] >> np.arange(b)) & 1
    bits.flags.writeable = False
    return bits


def _pack(b: int, positions: list[int]) -> np.ndarray:
    """For each mask of b bits, its bits at ``positions`` packed into its low bits, in order."""
    return _bits(b)[:, positions] @ (1 << np.arange(len(positions)))


def _reduction_plan(bj: int, at_j: tuple, bi: int, at_i: tuple) -> tuple:
    """The index work of reducing a child's table to the vertices it shares with its parent.

    The child's cluster has bj vertices and the parent's bi; the shared
    ones sit at positions ``at_j`` and ``at_i``.  A row's key packs the
    shared colors in bag(j) order, and its shift is the key's number of
    black vertices.  Returns the child's rows sorted by (shift, key),
    stably, so a key's rows ascend; for each shift s >= 1, the run lo..hi
    of the sorted keys that take it; each key's place in that order; and
    for each coloring of bag(i) the key of its row, in the smallest
    unsigned dtype that holds every key.  The arrays are read-only:
    children of one shape share them.
    """
    shared = len(at_j)
    by_shift = np.argsort(_bits(shared).sum(axis=1), kind="stable")
    place = np.empty_like(by_shift)
    place[by_shift] = np.arange(len(by_shift))
    order = np.argsort(place[_pack(bj, list(at_j))], kind="stable")
    first = list(accumulate((comb(shared, s) for s in range(shared + 1)), initial=0))
    runs = [(s, first[s], first[s + 1]) for s in range(1, shared + 1)]
    gather = _pack(bi, list(at_i)).astype(np.min_scalar_type((1 << shared) - 1))
    for a in (order, place, gather):
        a.flags.writeable = False
    return order, runs, place, gather


def _own_table(b: int, pairs: tuple, cap: int) -> np.ndarray:
    """Own rows of a cluster of b vertices whose charged edges join the positions ``pairs``.

    Row mask holds, at the mask's black count, the number of those edges
    the mask cuts, and INF elsewhere; a row of more than ``cap`` black
    vertices is all INF.  Read-only, as nodes of one pattern share it.
    """
    bits = _bits(b)
    blacks = bits.sum(axis=1)
    cost = np.zeros(len(bits), dtype=np.int32)
    for p, q in pairs:
        cost += bits[:, p] != bits[:, q]
    t = np.full((len(bits), min(b, cap) + 1), INF, dtype=np.int32)
    fit = np.flatnonzero(blacks <= cap)
    t[fit, blacks[fit]] = cost[fit]
    t.flags.writeable = False
    return t


class _TDTables(_Tables):
    """Per-node DP tables over the decomposition, rooted at node 1.

    A node's state is a coloring of its cluster: bit p of the row's mask
    colors the p-th smallest cluster vertex.  A child's rows come from its
    table reduced to the coloring of the vertices it shares with its
    parent; ``red`` keeps each reduction, which the memory guard counts
    as arrays that must stay.  A reduction's index work depends only on
    the shape of the two clusters, and a node's own rows only on its
    cluster size and the positions of the edges charged to it, so one DP
    builds each once (``plans``, ``owns``) and nodes of one shape share it;
    the memory guard still counts a shared array at every node.
    """

    def __init__(self, homes: list, td: TreeDecomposition, cap: int, kept: _Kept):
        self.cap = cap
        self.kept = kept
        self.order, self.parent = td.rooted
        self.children = {
            i: [w for w in td.tree_adj[i] if self.parent[w] == i] for i in td.nodes()
        }
        self.bag_list = {i: sorted(td.bag(i)) for i in td.nodes()}
        self.pos = {i: {v: p for p, v in enumerate(self.bag_list[i])} for i in td.nodes()}
        # homes (from require_decomposition) charge each edge, ascending, to the smallest
        # node whose cluster contains it, as the positions of its ends there: sorted pairs
        pairs: dict[int, list[tuple[int, int]]] = {i: [] for i in td.nodes()}
        for (u, v), home in homes:
            pairs[home].append((self.pos[home][u], self.pos[home][v]))
        self.own_key = {i: (len(self.bag_list[i]), tuple(p)) for i, p in pairs.items()}
        self.owns: dict[tuple, np.ndarray] = {}
        self.plans: dict[tuple, tuple] = {}
        self.plan_of: dict[int, tuple] = {}  # child -> its reduction's plan
        self.red: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def band(self, i: int, idx: int) -> tuple[int, int]:
        return 0, self.cap

    def own(self, i: int, rows: slice | None) -> np.ndarray:
        """Node i's base rows: the cut edges charged to it, at the cluster's own black count."""
        key = self.own_key[i]
        t = self.owns.get(key)
        if t is None:
            t = self.owns[key] = _own_table(*key, self.cap)
        return t if rows is None else t[rows]

    def _shared(self, i: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Positions in bag(j) and in bag(i) of the vertices the two clusters share."""
        pos_i, pos_j = self.pos[i], self.pos[j]
        shared = [v for v in self.bag_list[j] if v in pos_i]
        return tuple(pos_j[v] for v in shared), tuple(pos_i[v] for v in shared)

    def reduce_child(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Group the child table by the coloring of the shared vertices.

        Returns the reduction, whose row key (the shared vertices' colors
        packed in bag(j) order) holds at column c the best child entry with
        c black vertices counted below j but outside the shared set, and
        for each coloring of bag(i) the key of its row (``_reduction_plan``).
        """
        at_j, at_i = self._shared(i, j)
        shape = (len(self.bag_list[j]), at_j, len(self.bag_list[i]), at_i)
        plan = self.plans.get(shape)
        if plan is None:
            plan = self.plans[shape] = _reduction_plan(*shape)
        order, runs, place, gather = self.plan_of[j] = plan
        tab = self.kept.table[j]
        width = tab.shape[1]
        # once sorted, each key's rows form one block, and the keys of one shift one run
        red = tab[order].reshape(len(place), -1, width).min(axis=1)
        for s, lo, hi in runs:  # shift each key's row left by its number of shared black vertices
            cut = min(s, width)
            red[lo:hi, : width - cut] = red[lo:hi, cut:]
            red[lo:hi, width - cut :] = INF
        return red[place], gather

    def child_rows(self, i: int, j: int, rows: int | slice | None) -> np.ndarray:
        if j not in self.red:
            self.red[j] = self.reduce_child(i, j)
            self.kept.need(sum(a.nbytes for a in self.red[j]))
        mat, gather = self.red[j]
        return mat[gather if rows is None else gather[rows]]

    def child_state(self, i: int, j: int, s: int, part: np.ndarray, ct: int) -> tuple[int, int]:
        """Smallest coloring of bag(j) agreeing with s on the shared vertices that gave part[ct]."""
        order, _, place, gather = self.plan_of[j]
        key = int(gather[s])
        c = ct + key.bit_count()
        tab = self.kept.table[j]
        if c < tab.shape[1]:
            block = len(order) // len(place)  # the key's rows, ascending
            at = int(place[key]) * block
            rows = order[at : at + block]
            hits = rows[tab[rows, c] == part[ct]]
            if len(hits):
                return int(hits[0]), c
        raise InvariantViolation("exact-cut DP trace failed on a cluster coloring")

    def paint(self, i: int, s: int, color: dict[int, int]) -> None:
        for v, p in self.pos[i].items():
            color[v] = (s >> p) & 1


def dp_min_size_cut_td(
    g: Graph,
    td: TreeDecomposition,
    m: int,
    max_width: int = 12,
) -> tuple[Cut, int]:
    """Exact minimum-width cut with |B| = m, via DP over the decomposition.

    Exponential in the decomposition width; refuses widths above
    ``max_width``.  ``td`` is checked against ``g``
    (``NotATreeDecomposition`` with a witness).
    """
    n = g.n
    if not is_int(m) or not (0 <= m <= n):
        raise MOutOfRange(f"m={m!r} not in 0..{n}")
    if not is_int(max_width) or max_width < 0:
        raise KsecError(f"max_width={max_width!r} must be an integer >= 0")
    if td.width > max_width:
        raise WidthTooLarge(f"decomposition width {td.width} exceeds limit {max_width}")
    homes = require_decomposition(td, g, "dp_min_size_cut_td")
    black, width = _TDTables(homes, td, m, _Kept(mem_limit_bytes())).cut(g.adj, m)
    return Cut._trusted(g, black), width


# --- Brute force ------------------------------------------------------------

def balanced_sizes(n: int, k: int) -> list[int]:
    """Part sizes of a k-section: (n mod k) ceilings first, then floors; k is checked first."""
    require_memory(k * 200, f"k={k} parts")  # 10^6 parts peak at about 200 MB on 64-bit CPython
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def brute_min_ksection(g: Graph, k: int, limit: int = 14) -> tuple[KSection, int]:
    """Exact MinSec(k, g) by enumerating balanced partitions (n <= limit)."""
    if not is_int(k) or k < 1:
        raise KOutOfRange(f"k={k!r} must be an integer >= 1")
    if not is_int(limit) or limit < 0:
        raise KsecError(f"limit={limit!r} must be an integer >= 0")
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds enumeration limit {limit}")
    n = g.n
    quotas = balanced_sizes(n, k)
    adj_sets = [set(g.adj[v]) if v <= n else set() for v in range(n + 1)]
    best_width = INF
    best_assign: list[int] | None = None
    assign = [0] * (n + 1)
    remaining = quotas[:]

    def rec(v: int, width: int) -> None:
        nonlocal best_width, best_assign
        if width >= best_width:
            return
        if v > n:
            best_width = width
            best_assign = assign[1:].copy()
            return
        opened_quota = set()
        for p in range(k):
            if remaining[p] == 0:
                continue
            if remaining[p] == quotas[p]:
                if quotas[p] in opened_quota:
                    continue  # symmetric to an earlier still-empty part
                opened_quota.add(quotas[p])
            extra = sum(1 for u in adj_sets[v] if u < v and assign[u] != p)
            remaining[p] -= 1
            assign[v] = p
            rec(v + 1, width + extra)
            remaining[p] += 1
        assign[v] = 0

    rec(1, 0)
    if best_assign is None:
        raise InvariantViolation("k-section enumeration found nothing")
    parts = [[] for _ in range(k)]
    for v in range(1, n + 1):
        parts[best_assign[v - 1]].append(v)
    sec = KSection.from_parts(g, parts)
    if sec.width != best_width:
        raise InvariantViolation("k-section enumeration width mismatch")
    return sec, best_width
