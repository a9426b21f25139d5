"""Undirected simple graphs on vertex set {1, ..., n}, plus cut accounting.

Everything here is immutable after construction and safe for concurrent
reads.  Vertices are dense 1-indexed integers; parsers reject anything
else.  The one exception is private: the peel (``engine``), of a tree or
of a decomposed graph, keeps a mutable copy of its input's adjacency and
deletes each cut's edges from it, so every remainder keeps the input's
ids.

Validation policy: each public entry point checks its input once, through
``require_forest`` / ``require_tree`` (both built on ``forest_summary``),
and rejects bad input with a typed ``KsecError`` that names a witness.
A sequence of ids (parts, weights) is checked by
``first_bad`` alone.  Internal layers take the summary the entry point
computed and do not check the same forest again; the peel summarizes
each remainder's live ids with ``_forest_summary``, which checks nothing
about them.  ``InvariantViolation``
is reserved for failed postconditions, i.e. bugs.

Derived graphs skip validation by construction.  ``Graph(n, edges)`` is
the one public, checked constructor (``parse_gr`` shares its last step).
Every graph the pipelines derive from a checked one (a subgraph with a
cluster's edges removed, a peel's remainder) is built by
``Graph._trusted`` straight from adjacency tuples, which are sorted
because each builder keeps them so.  Such a graph builds its ``edges`` frozenset on first use.  Two
threads that race on that first use build equal sets, and one of them
is kept, so the lazy cache stays safe for concurrent reads.  Widths and
edge counts are read off the adjacency (``boundary_width``,
``num_edges``), not off ``edges``.  A checked graph knows its edge
count, and so does a derived one whose builder passes it (the peel's
remainders); ``num_edges`` scans the adjacency only for the others.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Container, Iterable, NamedTuple, Sequence

from .errors import FormatError, KsecError, NotAForest, NotAPartition, NotATree, ResourceLimit


def is_int(x) -> bool:
    """True for an ``int`` that is not a ``bool``: a valid vertex id, count or size type."""
    return isinstance(x, int) and not isinstance(x, bool)


class Graph:
    """Undirected simple graph with adjacency lists.

    Invariants: no self-loops, no parallel edges, vertex ids are exactly
    1..n.  Adjacency lists are kept sorted ascending so that every
    traversal in the package is deterministic.
    """

    __slots__ = ("n", "adj", "_edges", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if not is_int(n) or n < 0:
            raise KsecError(f"vertex count must be a non-negative integer, got {n!r}")
        require_memory(n * GR_BYTES_PER_VERTEX, f"{n} vertices")
        edges = read_ids(edges, KsecError, "Graph edges")
        why = bad_pair(edges, "vertex")
        if why:
            raise KsecError(why)
        edge_set = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise KsecError(f"edge ({u},{v}) out of vertex range 1..{n}")
            if u == v:
                raise KsecError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in edge_set:
                raise KsecError(f"parallel edge ({e[0]},{e[1]})")
            edge_set.add(e)
        self._freeze(n, edges, edge_set)

    def _freeze(self, n: int, edges: list, edge_set: set) -> "Graph":
        """This graph, given its checked ``edges`` and their ``edge_set`` of ascending pairs.

        The adjacency is built once every edge is read: lists grown while a
        parser reads the ids would lie among them in memory and slow every
        later sweep.
        """
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self._edges = frozenset(edge_set)
        self._m = len(edge_set)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        return self

    @classmethod
    def _trusted(cls, n: int, adj: tuple, m: int | None = None) -> "Graph":
        """A graph derived from a checked one, built from its adjacency; nothing is checked.

        ``adj[v]`` is the sorted tuple of v's neighbors for v in 1..n, and
        ``adj[0]`` is empty.  ``m``, when given, is the number of edges
        ``adj`` holds, which ``num_edges`` then returns without a scan.
        The caller guarantees the invariants and the count.
        """
        g = cls.__new__(cls)
        g.n = n
        g.adj = adj
        g._edges = None
        g._m = m
        return g

    @property
    def edges(self) -> frozenset:
        """The edges as (smaller id, larger id) pairs; built on first use for a derived graph."""
        if self._edges is None:
            adj = self.adj
            self._edges = frozenset((u, v) for u in range(1, self.n + 1) for v in adj[u] if u < v)
        return self._edges

    @property
    def num_edges(self) -> int:
        """The edge count given at construction, or else one scan of the adjacency.

        A scanned count is not kept: the peel deletes edges from the one
        adjacency list that all of its remainders share, so a count kept
        by an earlier remainder would go stale.
        """
        return _count_edges(self.adj) if self._m is None else self._m

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _count_edges(adj: Sequence[Sequence[int]]) -> int:
    """The edges of an adjacency, each seen from both ends: the scan behind ``num_edges``."""
    return sum(map(len, adj)) // 2


def bad_pair(pairs: list, what: str) -> str | None:
    """Why one of ``pairs`` is not a pair of ``what`` ids (``is_int``), or None.

    Pairs of plain ``int`` cost two passes at C speed; only other input
    is scanned pair by pair.
    """
    try:
        if set(map(len, pairs)) <= {2} and set(map(type, chain.from_iterable(pairs))) <= {int}:
            return None
    except TypeError:  # a pair without a length, or not iterable
        pass
    for e in pairs:
        try:
            u, v = e
        except (TypeError, ValueError):
            return f"edge {e!r} is not a pair of {what} ids"
        bad = [x for x in (u, v) if not is_int(x)]
        if bad:
            return f"{what} id {bad[0]!r} in edge {e!r} is not an integer"
    return None


def read_ids(values: Iterable, error: type[KsecError], who: str) -> list:
    """``values`` read once into a list, for ``first_bad``; ``error`` names a non-iterable."""
    try:
        it = iter(values)
    except TypeError:
        raise error(f"{who}: {values!r} is not a sequence of ids") from None
    return list(it)


def first_bad(values: Sequence, lo: int, hi: int) -> tuple | None:
    """``(v,)`` for the first of ``values`` that is not an integer (``is_int``) in lo..hi, or None.

    The one-tuple tells a bad ``None`` apart from "nothing found".
    ``values`` is read more than once, so it must be a collection, not
    an iterator.  Plain ``int`` values cost three passes at C speed (type,
    min, max); only other input is scanned value by value.
    """
    if set(map(type, values)) <= {int} and (not values or lo <= min(values) and max(values) <= hi):
        return None
    return next(((v,) for v in values if not (is_int(v) and lo <= v <= hi)), None)


def disjoint_paths(adj, paths) -> bool:
    """Whether each of ``paths`` is a nonempty path in ``adj``, and no id lies on two of them.

    Their ids must be integers in 1..len(adj) - 1 (``first_bad``), each
    adjacent in ``adj`` to the next of its path, and distinct.
    """
    ids = [v for p in paths for v in p]
    return (
        all(paths)
        and first_bad(ids, 1, len(adj) - 1) is None
        and len(set(ids)) == len(ids)
        and all(y in adj[x] for p in paths for x, y in zip(p, p[1:]))
    )


def boundary_width(g: Graph, side) -> int:
    """Edges of g with exactly one end in the vertex set ``side``, counted from side's adjacency."""
    adj = g.adj
    return sum(1 for v in side for u in adj[v] if u not in side)


@dataclass(frozen=True)
class Cut:
    """Cut (B, W) of a vertex set V, kept as B since W = V∖B; ``width`` counts crossing edges."""

    black: frozenset
    width: int

    @classmethod
    def _trusted(cls, g: Graph, black: Iterable[int]) -> "Cut":
        """The cut of a vertex set closed under g's edges with black side ``black``; no check."""
        b = frozenset(black)
        return cls(b, boundary_width(g, b))


@dataclass(frozen=True)
class KSection:
    """Ordered partition (V_1, ..., V_k) with balanced part sizes."""

    parts: tuple
    width: int

    @property
    def k(self) -> int:
        return len(self.parts)

    @classmethod
    def from_parts(cls, g: Graph, parts: Sequence[Iterable[int]]) -> "KSection":
        """The section with these parts; ``NotAPartition`` names a vertex repeated or not in 1..n."""
        parts = [read_ids(p, NotAPartition, "KSection.from_parts")
                 for p in read_ids(parts, NotAPartition, "KSection.from_parts")]
        width = cut_width(g, parts)
        return cls(tuple(tuple(sorted(p)) for p in parts), width)


def bfs_tree(adj: Sequence[Sequence[int]], root: int, parent: list[int] | None = None):
    """(order, parent) of a BFS from ``root`` that scans each adjacency in order.

    ``adj`` is any 1-indexed adjacency (graph vertices or decomposition
    nodes).  ``parent`` marks unvisited entries with -1; pass one array to
    several calls to sweep a forest without allocating per component.  The
    root gets parent 0, every other reached entry its BFS parent.  The
    sweep is ``_bfs_levels``, the one BFS, which also tells
    ``forest_summary`` where the last level starts.
    """
    if parent is None:
        parent = [-1] * len(adj)
    return _bfs_levels(adj, root, parent)[0], parent


def _bfs_levels(adj: Sequence[Sequence[int]], root: int, parent: list[int]) -> tuple[list, int]:
    """The sweep behind ``bfs_tree``, level by level: (order, where the last level starts).

    Each level is scanned in order before the next, so ``order`` and the
    parents set in ``parent`` are those of a FIFO sweep, and
    ``order[last:]`` holds the vertices farthest from ``root``.
    """
    parent[root] = 0
    order = [root]
    start = 0
    while True:
        end = len(order)
        for u in order[start:end]:
            for w in adj[u]:
                if parent[w] < 0:
                    parent[w] = u
                    order.append(w)
        if len(order) == end:
            return order, start
        start = end


def component_orders(g: Graph) -> tuple[list, list[int]]:
    """One BFS sweep: each component's order from its smallest id, and the parents."""
    parent = [-1] * (g.n + 1)
    return [bfs_tree(g.adj, s, parent)[0] for s in g.vertices() if parent[s] < 0], parent


class TreeSummary(NamedTuple):
    """One component of a forest: its smallest id, its vertex count and a longest path.

    ``path`` runs between the ends of the double BFS sweep, smaller
    endpoint first.
    """

    root: int
    size: int
    path: tuple

    @property
    def diameter(self) -> int:
        return len(self.path) - 1


def forest_summary(g: Graph) -> list[TreeSummary]:
    """Components of a forest, ascending by smallest id, each with its size and a longest path.

    O(n + m).  Raises ``NotAForest`` naming an edge on a cycle.
    """
    return _forest_summary(g, g.vertices())


def _forest_summary(g: Graph, vertices: Sequence[int]) -> list[TreeSummary]:
    """``forest_summary`` of the ascending ``vertices`` alone; the rest must be isolated.

    Nothing about ``vertices`` is checked: the peel passes its live ids,
    and checking them would cost the scan for isolated vertices that it
    avoids.  One level sweep finds the components and rejects cycles, a
    second sweep per component from the far end of the first gives a
    longest path.  A far end is the smallest id on a sweep's last level,
    so no depth is kept.  The edge count the cycle check reads is
    ``num_edges``, which the peel passes its remainders, so a peel round
    scans no edges for it.
    """
    adj, parent = g.adj, [-1] * (g.n + 1)
    sweeps = [_bfs_levels(adj, s, parent) for s in vertices if parent[s] < 0]
    if g.num_edges != len(vertices) - len(sweeps):
        u, v = min(e for e in g.edges if parent[e[0]] != e[1] and parent[e[1]] != e[0])
        raise NotAForest(f"edge ({u},{v}) closes a cycle")
    parent2 = [-1] * (g.n + 1)
    out = []
    for order, last in sweeps:
        a = min(order[last:])
        order2, last2 = _bfs_levels(adj, a, parent2)
        path = [min(order2[last2:])]
        while path[-1] != a:
            path.append(parent2[path[-1]])
        if path[0] > path[-1]:
            path.reverse()
        out.append(TreeSummary(order[0], len(order), tuple(path)))
    return out


def require_forest(g: Graph, who: str) -> list[TreeSummary]:
    """``forest_summary(g)``; the ``NotAForest`` it raises names the caller."""
    try:
        return forest_summary(g)
    except NotAForest as exc:
        raise NotAForest(f"{who} requires a forest; {exc}") from None


def require_tree(g: Graph, who: str) -> TreeSummary:
    """Summary of the single component of g, or ``NotATree`` with a witness."""
    try:
        comps = forest_summary(g)
    except NotAForest as exc:
        raise NotATree(f"{who} requires a tree; {exc}") from None
    if not comps:
        raise NotATree(f"{who} requires a tree; the graph is empty")
    if len(comps) > 1:
        raise NotATree(
            f"{who} requires a tree; vertices {comps[0].root} and "
            f"{comps[1].root} are not connected"
        )
    return comps[0]


def max_degree(g: Graph) -> int:
    return max(map(len, g.adj))


def summary_relative_diameter(comps: Sequence[TreeSummary], n: int) -> Fraction:
    """diam* of an n-vertex forest from its ``forest_summary``."""
    return Fraction(sum(len(c.path) for c in comps), n)


def cut_width(g: Graph, parts: Sequence[Iterable[int]]) -> int:
    """Number of edges of g whose endpoints lie in distinct parts.

    ``NotAPartition`` names a vertex out of range or repeated, or says
    that the parts miss one.
    """
    n = g.n
    parts = [read_ids(p, NotAPartition, "cut_width")
             for p in read_ids(parts, NotAPartition, "cut_width")]
    flat = list(chain.from_iterable(parts))
    bad = first_bad(flat, 1, n)
    if bad is None and len(set(flat)) != len(flat):
        seen = set()  # name the first id that comes twice
        bad = next((v,) for v in flat if v in seen or seen.add(v))
    if bad is not None:
        raise NotAPartition(f"vertex {bad[0]!r} repeated or out of range")
    if len(flat) != n:
        raise NotAPartition("parts do not cover the vertex set")
    part_of = [0] * (n + 1)
    for idx, part in enumerate(parts):
        for v in part:
            part_of[v] = idx
    return sum(1 for (u, v) in g.edges if part_of[u] != part_of[v])


def induced_sorted(g: Graph, old_of: Sequence[int], without: Container[int] = ()) -> Graph:
    """Induced subgraph on ``old_of``, relabeled so that ``old_of[new - 1]`` is new's id.

    The edges touching the ids in ``without`` are left out.  The
    caller knows the ids are ascending, distinct and in 1..n.  The
    relabeling is monotone, so each parent adjacency list, filtered and
    mapped through one dict, stays sorted.  Nothing is checked.
    """
    new_of = {v: i for i, v in enumerate(old_of, 1) if v not in without}
    get, adj = new_of.get, g.adj
    return Graph._trusted(
        len(old_of),
        ((), *[tuple(filter(None, map(get, adj[v]))) if v in new_of else () for v in old_of]),
    )


def mem_limit_bytes() -> int:
    """The memory guard in bytes: KSEC_MAX_MEM_MB (default 2048).

    A value that is not an integer raises ``KsecError`` naming it.
    """
    raw = os.environ.get("KSEC_MAX_MEM_MB", "2048")
    try:
        return int(raw) * (1 << 20)
    except ValueError:
        raise KsecError(f"KSEC_MAX_MEM_MB must be an integer (MB), got {raw!r}") from None


def require_memory(need: int, what: str) -> None:
    """``ResourceLimit`` when ``what`` would need ``need`` bytes, over the memory guard."""
    limit = mem_limit_bytes()
    if need > limit:
        raise ResourceLimit(
            f"{what} need about {need >> 20} MB, over the {limit >> 20} MB of KSEC_MAX_MEM_MB"
        )


# --- .gr file format ------------------------------------------------------
#
# c <comment>
# p ks <n> <m>
# <u> <v>          (m edge lines, 1-indexed)

# what a graph costs per vertex: 10^6 isolated vertices
# take about 77 MB on 64-bit CPython
GR_BYTES_PER_VERTEX = 80


def parse_gr(text: str) -> Graph:
    """Parse a .gr file; ``ResourceLimit`` when the declared n would not fit the memory guard.

    Each line is checked once, here; the constructor's checks do not run again.
    """
    if not isinstance(text, str):
        raise KsecError(f"parse_gr: {text!r} is not a string")
    n = m = -1
    edges: list[tuple[int, int]] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if tok[0] == "p":
            if n >= 0:
                raise FormatError(lineno, "duplicate problem line")
            if len(tok) != 4 or tok[1] not in ("ks", "tw"):
                raise FormatError(lineno, f"expected 'p ks <n> <m>', got {line!r}")
            try:
                n, m = int(tok[2]), int(tok[3])
            except ValueError:
                raise FormatError(lineno, "non-integer counts in problem line") from None
            if n < 0 or m < 0:
                raise FormatError(lineno, "negative counts in problem line")
            require_memory(n * GR_BYTES_PER_VERTEX, f"line {lineno}: {n} vertices")
            continue
        if n < 0:
            raise FormatError(lineno, "edge line before problem line")
        if len(tok) != 2:
            raise FormatError(lineno, f"expected edge '<u> <v>', got {line!r}")
        try:
            u, v = int(tok[0]), int(tok[1])
        except ValueError:
            raise FormatError(lineno, "non-integer vertex id") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(lineno, f"vertex id out of range 1..{n}")
        if u == v:
            raise FormatError(lineno, "self-loop")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise FormatError(lineno, f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
        edges.append(e)
    if n < 0:
        raise FormatError(1, "missing problem line")
    if len(edges) != m:
        raise FormatError(1, f"problem line declares {m} edges, found {len(edges)}")
    return Graph.__new__(Graph)._freeze(n, edges, seen)


def comment_lines(comment: str | None) -> list[str]:
    """The ``c`` lines of a .gr or .td comment; ``KsecError`` names one that is not a string."""
    if comment is not None and not isinstance(comment, str):
        raise KsecError(f"comment={comment!r} is not a string")
    return [f"c {part}" for part in (comment or "").splitlines()]


def write_gr(g: Graph, comment: str | None = None) -> str:
    lines = comment_lines(comment)
    lines.append(f"p ks {g.n} {len(g.edges)}")
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
