"""Undirected simple graphs on vertex set {1, ..., n}, plus cut accounting.

Everything here is immutable after construction and safe for concurrent
reads.  Vertices are dense 1-indexed integers; parsers reject anything
else.

Validation policy: each public entry point checks its input once, through
``require_forest`` / ``require_tree`` (both built on ``forest_summary``),
and rejects bad input with a typed ``KsecError`` that names a witness.
Internal layers take the summary the entry point computed and do not
check the same forest again.  ``InvariantViolation`` is reserved for
failed postconditions, i.e. bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import FormatError, KsecError, NotAForest, NotAPartition, NotATree


class Graph:
    """Undirected simple graph with adjacency lists.

    Invariants: no self-loops, no parallel edges, vertex ids are exactly
    1..n.  Adjacency lists are kept sorted ascending so that every
    traversal in the package is deterministic.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise KsecError(f"vertex count must be non-negative, got {n}")
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
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = frozenset(edge_set)
        self.adj = tuple(tuple(sorted(a)) for a in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class Cut:
    """Two-sided cut (B, W); ``width`` is the number of crossing edges."""

    black: frozenset
    white: frozenset
    width: int

    @classmethod
    def from_black(cls, g: Graph, black: Iterable[int]) -> "Cut":
        b = frozenset(black)
        w = frozenset(g.vertices()) - b
        width = sum(1 for (u, v) in g.edges if (u in b) != (v in b))
        return cls(b, w, width)


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
        tidy = tuple(tuple(sorted(p)) for p in parts)
        width = cut_width(g, [set(p) for p in tidy])
        return cls(tidy, width)


def bfs_tree(adj: Sequence[Sequence[int]], root: int, parent: list[int] | None = None):
    """(order, parent) of a BFS from ``root`` that scans each adjacency in order.

    ``adj`` is any 1-indexed adjacency (graph vertices or decomposition
    nodes).  ``parent`` marks unvisited entries with -1; pass one array to
    several calls to sweep a forest without allocating per component.  The
    root gets parent 0, every other reached entry its BFS parent.
    """
    if parent is None:
        parent = [-1] * len(adj)
    parent[root] = 0
    order = [root]
    for u in order:
        for w in adj[u]:
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    return order, parent


def components(g: Graph) -> list[set[int]]:
    """Connected components as vertex sets, ascending by minimum vertex id."""
    parent = [-1] * (g.n + 1)
    return [set(bfs_tree(g.adj, s, parent)[0]) for s in g.vertices() if parent[s] < 0]


class TreeSummary(NamedTuple):
    """One component of a forest: its vertices and a longest path.

    ``order`` lists the vertices in BFS order from the smallest id;
    ``path`` runs between the ends of the double BFS sweep, smaller
    endpoint first.
    """

    order: list
    path: tuple

    @property
    def diameter(self) -> int:
        return len(self.path) - 1


def _farthest(order: list[int], parent: list[int], depth: list[int]) -> int:
    """Deepest vertex of a BFS order, ties toward the smaller id."""
    depth[order[0]] = 0
    for w in order[1:]:
        depth[w] = depth[parent[w]] + 1
    last = depth[order[-1]]
    best = order[-1]
    for w in reversed(order):
        if depth[w] != last:
            break
        best = min(best, w)
    return best


def forest_summary(g: Graph) -> list[TreeSummary]:
    """Components of a forest, ascending by smallest id, each with a longest path.

    O(n + m): one BFS sweep finds the components and rejects cycles, a
    second sweep per component from the far end of the first gives a
    longest path.  Raises ``NotAForest`` naming an edge on a cycle.
    """
    parent = [-1] * (g.n + 1)
    orders = [bfs_tree(g.adj, s, parent)[0] for s in g.vertices() if parent[s] < 0]
    if len(g.edges) != g.n - len(orders):
        u, v = min(e for e in g.edges if parent[e[0]] != e[1] and parent[e[1]] != e[0])
        raise NotAForest(f"edge ({u},{v}) closes a cycle")
    depth = [0] * (g.n + 1)
    parent2 = [-1] * (g.n + 1)
    out = []
    for order in orders:
        a = _farthest(order, parent, depth)
        order2, _ = bfs_tree(g.adj, a, parent2)
        path = [_farthest(order2, parent2, depth)]
        while path[-1] != a:
            path.append(parent2[path[-1]])
        if path[0] > path[-1]:
            path.reverse()
        out.append(TreeSummary(order, tuple(path)))
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
            f"{who} requires a tree; vertices {comps[0].order[0]} and "
            f"{comps[1].order[0]} are not connected"
        )
    return comps[0]


def validate_forest(g: Graph) -> bool:
    """True iff g is acyclic (every component a tree)."""
    try:
        forest_summary(g)
    except NotAForest:
        return False
    return True


def max_degree(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(len(g.adj[v]) for v in g.vertices())


def longest_path(tree: Graph) -> list[int]:
    """A longest path in a tree via the double BFS sweep.

    Returns the vertex sequence; its length in edges is diam(tree).  The
    result is normalized so that the first endpoint has the smaller id.
    """
    return list(require_tree(tree, "longest_path").path)


def diameter(tree: Graph) -> int:
    return len(longest_path(tree)) - 1


def relative_diameter(g: Graph) -> Fraction:
    """diam*(g) = (1/n) * sum over components of (diameter + 1), exact."""
    comps = require_forest(g, "relative_diameter")
    if g.n == 0:
        raise NotAForest("empty graph has no relative diameter")
    return summary_relative_diameter(comps, g.n)


def summary_relative_diameter(comps: Sequence[TreeSummary], n: int) -> Fraction:
    """diam* of an n-vertex forest from its ``forest_summary``."""
    return Fraction(sum(len(c.path) for c in comps), n)


def cut_width(g: Graph, parts: Sequence[Iterable[int]]) -> int:
    """Number of edges of g whose endpoints lie in distinct parts."""
    part_of = [-1] * (g.n + 1)
    for idx, part in enumerate(parts):
        for v in part:
            if not (1 <= v <= g.n) or part_of[v] != -1:
                raise NotAPartition(f"vertex {v} repeated or out of range")
            part_of[v] = idx
    if any(part_of[v] == -1 for v in g.vertices()):
        raise NotAPartition("parts do not cover the vertex set")
    return sum(1 for (u, v) in g.edges if part_of[u] != part_of[v])


def link_components(g: Graph) -> Graph:
    """Connect a forest into a tree without changing diam* or (for Δ ≥ 2) Δ.

    Each added edge joins the ends of longest paths in two consecutive
    components, so the longest paths chain into one longest path.
    """
    return link_summarized(g, require_forest(g, "link_components"))


def link_summarized(g: Graph, comps: Sequence[TreeSummary]) -> Graph:
    """``link_components`` for a forest whose ``forest_summary`` is known."""
    if len(comps) <= 1:
        return g
    extra = [(a.path[-1], b.path[0]) for a, b in zip(comps, comps[1:])]
    return Graph(g.n, list(g.edges) + extra)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    """Induced subgraph relabeled to 1..|S| by ascending original id.

    Returns (subgraph, old_ids) with old_ids[new - 1] = original id.
    """
    old_of = sorted(set(vertices))
    new_of = {old: i + 1 for i, old in enumerate(old_of)}
    edges = [
        (new_of[u], new_of[v])
        for (u, v) in g.edges
        if u in new_of and v in new_of
    ]
    return Graph(len(old_of), edges), old_of


# --- .gr file format ------------------------------------------------------
#
# c <comment>
# p ks <n> <m>
# <u> <v>          (m edge lines, 1-indexed)

def parse_gr(text: str) -> Graph:
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
    return Graph(n, edges)


def write_gr(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p ks {g.n} {len(g.edges)}")
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
