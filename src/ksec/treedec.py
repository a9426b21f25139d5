"""Tree decompositions: representation, validation, normalization, heaviest paths.

Decomposition nodes are dense 1-indexed integers; clusters are vertex
sets of the underlying graph.  Empty clusters are allowed (they arise
from induced decompositions); ``make_nonredundant`` removes them except
in the degenerate single-node case.  Each decomposition carries its one
rooting, ``rooted``: the (order, parent) of its tree's BFS from node 1,
which every reader of the tree shares.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Iterable, Sequence

from .errors import FormatError, InvariantViolation, KsecError, NotATreeDecomposition
from .graph import Graph, bad_pair, bfs_tree, comment_lines, is_int, read_ids


class TreeDecomposition:
    __slots__ = ("num_nodes", "bags", "tree_adj", "tree_edges", "rooted")

    def __init__(self, bags: Sequence[Iterable[int]], tree_edges: Iterable[tuple[int, int]]):
        bags = read_ids(bags, NotATreeDecomposition, "TreeDecomposition clusters")
        num = len(bags)
        if num == 0:
            raise NotATreeDecomposition("a decomposition needs at least one node")
        tree_edges = read_ids(tree_edges, NotATreeDecomposition, "TreeDecomposition tree edges")
        why = bad_pair(tree_edges, "node")
        if why:
            raise NotATreeDecomposition(why)
        frozen = _frozen_bags(bags)
        edge_set = set()
        for i, j in tree_edges:
            if not (1 <= i <= num and 1 <= j <= num):
                raise NotATreeDecomposition(f"tree edge ({i},{j}) out of node range 1..{num}")
            if i == j:
                raise NotATreeDecomposition(f"self-loop at node {i}")
            e = (i, j) if i < j else (j, i)
            if e in edge_set:
                raise NotATreeDecomposition(f"duplicate tree edge ({e[0]},{e[1]})")
            edge_set.add(e)
        if len(edge_set) != num - 1:
            raise NotATreeDecomposition(
                f"{num} nodes need {num - 1} tree edges, got {len(edge_set)}"
            )
        adj: list[list[int]] = [[] for _ in range(num + 1)]
        for i, j in edge_set:
            adj[i].append(j)
            adj[j].append(i)
        self.num_nodes = num
        self.bags = frozen
        self.tree_adj = tuple(tuple(sorted(a)) for a in adj)
        self.tree_edges = frozenset(edge_set)
        self.rooted = bfs_tree(self.tree_adj, 1)
        # connectivity: num-1 edges + connected <=> tree
        if len(self.rooted[0]) != num:
            raise NotATreeDecomposition("decomposition tree is disconnected")

    @classmethod
    def _trusted(
        cls, bags: tuple, tree_adj: tuple, tree_edges: frozenset, rooted: tuple | None = None
    ) -> "TreeDecomposition":
        """A decomposition whose tree is built from checked ones; nothing is checked.

        ``bags`` are frozensets of ids, ``tree_adj[i]`` is the sorted tuple
        of node i's neighbors (``tree_adj[0]`` is empty), and ``tree_edges``
        holds each tree edge as (smaller node, larger node) and forms a tree.
        ``rooted`` is that tree's ``rooted`` when another decomposition has it.
        """
        out = cls.__new__(cls)
        out.num_nodes = len(bags)
        out.bags = bags
        out.tree_adj = tree_adj
        out.tree_edges = tree_edges
        out.rooted = bfs_tree(tree_adj, 1) if rooted is None else rooted
        return out

    def bag(self, i: int) -> frozenset:
        return self.bags[i - 1]

    def nodes(self) -> range:
        return range(1, self.num_nodes + 1)

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    @property
    def size(self) -> int:
        return self.num_nodes + sum(len(b) for b in self.bags)

    def __repr__(self) -> str:
        return f"TreeDecomposition(nodes={self.num_nodes}, width={self.width})"


def _frozen_bags(bags: Sequence[Iterable[int]]) -> tuple:
    """The clusters as frozensets; ``NotATreeDecomposition`` names one that is no set of ids."""
    try:
        frozen = tuple(map(frozenset, bags))
        if set(map(type, chain.from_iterable(frozen))) <= {int}:
            return frozen
    except TypeError:  # a cluster that is not iterable, or holds an unhashable value
        pass
    for i, b in enumerate(bags, start=1):
        try:
            bad = [v for v in b if not is_int(v)]
        except TypeError:
            raise NotATreeDecomposition(
                f"cluster {b!r} of node {i} is not a set of vertex ids"
            ) from None
        if bad:
            raise NotATreeDecomposition(
                f"cluster of node {i} holds {bad[0]!r}, which is no vertex id"
            )
    return frozen  # ids of an int subclass other than bool


@dataclass(frozen=True)
class HeaviestPathResult:
    path: tuple
    weight: int
    relative_weight: Fraction


@dataclass(frozen=True)
class TDSummary:
    """A checked decomposition's nonredundant form, its heaviest path, t and n."""

    td: TreeDecomposition
    path: HeaviestPathResult
    t: int
    n: int


def occurrences(td: TreeDecomposition) -> dict[int, list[int]]:
    """Nodes whose cluster holds each vertex, ascending."""
    occ: dict[int, list[int]] = {}
    for i in td.nodes():
        for v in td.bag(i):
            occ.setdefault(v, []).append(i)
    return occ


def edge_home(td: TreeDecomposition, occ: dict, u: int, v: int) -> int | None:
    """Smallest node whose cluster holds both u and v; None when (T2) fails for uv."""
    if len(occ.get(v, ())) < len(occ.get(u, ())):
        u, v = v, u
    for i in occ.get(u, ()):
        if v in td.bags[i - 1]:
            return i
    return None


def validation_errors(td: TreeDecomposition, g: Graph) -> list[tuple[str, object]]:
    """Violations of (T1), (T2), (T3'), each with a witness; linear in the sizes."""
    return _checked(td, g)[0]


def require_decomposition(td: TreeDecomposition, g: Graph, who: str) -> list:
    """Each edge of g, ascending, with its home (``edge_home``), once td is checked against g.

    ``NotATreeDecomposition`` names the first failed condition and its witness.
    """
    problems, homes = _checked(td, g)
    if problems:
        cond, witness = problems[0]
        raise NotATreeDecomposition(
            f"{who}: the decomposition fails {cond} at {witness}"
            f" ({len(problems)} violation(s) in all)"
        )
    return homes


def _checked(td: TreeDecomposition, g: Graph) -> tuple[list, list]:
    """``validation_errors``, and each edge of g, ascending, with its home (None if T2 fails)."""
    problems: list[tuple[str, object]] = []
    occ = occurrences(td)
    for v in sorted(occ):
        if not (1 <= v <= g.n):
            problems.append(("bag-range", v))
    for v in g.vertices():
        if v not in occ:
            problems.append(("T1", v))
    homes = [((u, v), edge_home(td, occ, u, v)) for u, v in sorted(g.edges)]
    problems.extend(("T2", e) for e, home in homes if home is None)
    # the nodes holding v span a subtree iff exactly |occ[v]| - 1 tree edges join them
    joined: Counter = Counter()
    for i, j in td.tree_edges:
        joined.update(td.bag(i) & td.bag(j))
    for v in sorted(occ):
        if joined[v] != len(occ[v]) - 1:
            problems.append(("T3", v))
    return problems, homes


def induced(td: TreeDecomposition, vertex_set: Iterable[int]) -> TreeDecomposition:
    """Same tree, which is not checked again, with clusters intersected with ``vertex_set``.

    Ids are kept.  ``KsecError`` names a ``vertex_set`` that is no set of ids.
    """
    try:
        keep = frozenset(vertex_set)
    except TypeError:  # not iterable, or holds an unhashable value
        raise KsecError(f"induced: {vertex_set!r} is not a sequence of ids") from None
    bags = tuple(b & keep for b in td.bags)
    return TreeDecomposition._trusted(bags, td.tree_adj, td.tree_edges, td.rooted)


def make_nonredundant(td: TreeDecomposition) -> TreeDecomposition:
    """Contract tree edges whose endpoint clusters nest.

    Keeps the width, never increases the size, never decreases the
    relative heaviest-path weight.  Deterministic: always contracts the
    smallest eligible edge, absorbing the subset side (on equal clusters
    the larger node id is absorbed).

    Clusters never change, so neither does an edge's eligibility: a heap
    holds the nesting edges as (min, max) pairs, stale ones are skipped
    when popped, and each contraction pushes the survivor's new nesting
    edges.  O(E log E) for E tree edges, plus the neighbours each
    contraction moves over to its survivor.  The state is indexed by node
    id: the clusters, a liveness flag and an adjacency set per node.
    Returns ``td`` itself when no tree edge nests.
    """
    bags = (frozenset(), *td.bags)
    heap = sorted((i, j) for i, j in td.tree_edges if bags[i] <= bags[j] or bags[j] <= bags[i])
    if not heap:
        return td  # already nonredundant: the rebuild below would be the identity
    alive = [False, *[True] * td.num_nodes]
    adj = [set(a) for a in td.tree_adj]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        i, j = pop(heap)
        # a live node's neighbours are live: absorbing a node unlinks it everywhere
        if not alive[i] or j not in adj[i]:
            continue
        # the subset side is absorbed; on equal clusters, the larger id j
        absorbed, survivor = (i, j) if bags[i] < bags[j] else (j, i)
        kept, around = bags[survivor], adj[survivor]
        for w in adj[absorbed]:
            if w != survivor:
                near = adj[w]
                near.discard(absorbed)
                near.add(survivor)
                around.add(w)
                if kept <= bags[w] or bags[w] <= kept:
                    push(heap, (survivor, w) if survivor < w else (w, survivor))
        around.discard(absorbed)
        alive[absorbed] = False
    # contracting tree edges of a checked tree leaves a tree: no second check
    order = list(compress(range(len(alive)), alive))
    new_id = dict(zip(order, range(1, len(order) + 1)))
    tree_adj = ((), *(tuple(sorted(map(new_id.__getitem__, adj[i]))) for i in order))
    edges = frozenset((i, j) for i, nbrs in enumerate(tree_adj) for j in nbrs if i < j)
    return TreeDecomposition._trusted(tuple(map(bags.__getitem__, order)), tree_adj, edges)


def _require_vertex_count(n, who: str) -> None:
    """Raise ``KsecError`` naming ``n`` unless it is an integer >= 1."""
    if not is_int(n) or n < 1:
        raise KsecError(f"{who}: vertex count {n!r} must be an integer >= 1")


def heaviest_path(td: TreeDecomposition, n: int) -> HeaviestPathResult:
    """Path in the decomposition tree maximizing |union of clusters|.

    Exact, relying on (T3'): along any rooted chain a vertex's
    occurrences are contiguous, so extending a chain from child ch to
    node c adds exactly |X^c| - |X^c ∩ X^ch| new vertices.  Ties break
    toward smaller endpoint ids, then the lexicographically smaller
    normalized endpoint pair.  One pass over the nodes, bottom up.
    """
    _require_vertex_count(n, "heaviest_path")
    num = td.num_nodes
    bags = td.bags
    order, parent = td.rooted

    # g[i]: best weight of a chain from some descendant endpoint up to i
    g_val = [0] * (num + 1)
    g_end = [0] * (num + 1)
    best_w, best_pair = -1, (0, 0)
    for i in reversed(order):
        bag_i = bags[i - 1]
        size_i = len(bag_i)
        # the two best legs (gain, endpoint) from distinct children: larger gain, then smaller end
        w1 = w2 = -1
        e1 = e2 = 0
        for ch in td.tree_adj[i]:
            if parent[ch] != i:
                continue
            gain = g_val[ch] + size_i - len(bag_i & bags[ch - 1])
            end = g_end[ch]
            if gain > w1 or (gain == w1 and end < e1):
                w2, e2, w1, e1 = w1, e1, gain, end
            elif gain > w2 or (gain == w2 and end < e2):
                w2, e2 = gain, end
        if w1 > size_i or (w1 == size_i and e1 < i):
            g_val[i], g_end[i] = w1, e1
        else:
            g_val[i], g_end[i] = size_i, i
        # best path through i: no leg, the best leg, or the top two legs
        if size_i > best_w or (size_i == best_w and (i, i) < best_pair):
            best_w, best_pair = size_i, (i, i)
        if w1 >= 0:
            pair = (i, e1) if i < e1 else (e1, i)
            if w1 > best_w or (w1 == best_w and pair < best_pair):
                best_w, best_pair = w1, pair
        if w2 >= 0:
            w = w1 + w2 - size_i
            pair = (e1, e2) if e1 < e2 else (e2, e1)
            if w > best_w or (w == best_w and pair < best_pair):
                best_w, best_pair = w, pair

    a, b = best_pair
    # the a..b node path: a up to the root, then b up to the first common node
    up_a = []
    x = a
    while x:
        up_a.append(x)
        x = parent[x]
    at = {x: k for k, x in enumerate(up_a)}
    up_b = []
    y = b
    while y not in at:
        up_b.append(y)
        y = parent[y]
    path = tuple(up_a[: at[y] + 1] + up_b[::-1])
    if len(frozenset().union(*(bags[i - 1] for i in path))) != best_w:
        raise InvariantViolation("heaviest-path DP disagrees with its own path")
    if path[0] > path[-1]:
        path = path[::-1]
    return HeaviestPathResult(path=path, weight=best_w, relative_weight=Fraction(best_w, n))


def td_summary(td: TreeDecomposition, n: int) -> TDSummary:
    """Normalize ``td`` and weigh its heaviest path; ``td`` is not checked.

    For decompositions already checked against their graph, or derived
    from one by ``induced``.  ``n`` counts the vertices of td's clusters,
    whose ids need not be 1..n: the decomposition peel summarizes the ids
    still live in its input's id space.
    """
    _require_vertex_count(n, "td_summary")
    td0 = make_nonredundant(td)
    return TDSummary(td=td0, path=heaviest_path(td0, n), t=td0.width + 1, n=n)


# --- PACE-2017 .td format ---------------------------------------------------
#
# c <comment>
# s td <#bags> <max bag size> <n>
# b <bag-id> <v...>
# <i> <j>            (decomposition tree edges)

def parse_td(text: str) -> tuple[TreeDecomposition, int]:
    """Parse a .td file; returns (decomposition, declared vertex count)."""
    if not isinstance(text, str):
        raise KsecError(f"parse_td: {text!r} is not a string")
    header = None
    bags: dict[int, frozenset] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if tok[0] == "s":
            if header is not None:
                raise FormatError(lineno, "duplicate solution line")
            if len(tok) != 5 or tok[1] != "td":
                raise FormatError(lineno, "expected 's td <#bags> <max-bag-size> <n>'")
            try:
                header = (int(tok[2]), int(tok[3]), int(tok[4]))
            except ValueError:
                raise FormatError(lineno, "non-integer values in solution line") from None
            continue
        if header is None:
            raise FormatError(lineno, "data before solution line")
        num_bags, max_bag, n = header
        if tok[0] == "b":
            if len(tok) < 2:
                raise FormatError(lineno, "bag line needs an id")
            try:
                bag_id = int(tok[1])
                verts = [int(t) for t in tok[2:]]
            except ValueError:
                raise FormatError(lineno, "non-integer token in bag line") from None
            if not (1 <= bag_id <= num_bags):
                raise FormatError(lineno, f"bag id {bag_id} out of range 1..{num_bags}")
            if bag_id in bags:
                raise FormatError(lineno, f"duplicate bag id {bag_id}")
            for v in verts:
                if not (1 <= v <= n):
                    raise FormatError(lineno, f"vertex {v} out of range 1..{n}")
            if len(set(verts)) != len(verts):
                raise FormatError(lineno, "repeated vertex in bag")
            bags[bag_id] = frozenset(verts)
            continue
        if len(tok) != 2:
            raise FormatError(lineno, f"expected tree edge '<i> <j>', got {line!r}")
        try:
            edges.append((int(tok[0]), int(tok[1])))
        except ValueError:
            raise FormatError(lineno, "non-integer node id in tree edge") from None
    if header is None:
        raise FormatError(1, "missing solution line")
    num_bags, max_bag, n = header
    if len(bags) != num_bags:
        raise FormatError(1, f"declared {num_bags} bags, found {len(bags)}")
    bag_list = [bags[i] for i in range(1, num_bags + 1)]
    actual_max = max((len(b) for b in bag_list), default=0)
    if actual_max != max_bag:
        raise FormatError(1, f"declared max bag size {max_bag}, actual {actual_max}")
    try:
        td = TreeDecomposition(bag_list, edges)
    except NotATreeDecomposition as exc:
        raise FormatError(1, str(exc)) from None
    return td, n


def write_td(td: TreeDecomposition, n: int, comment: str | None = None) -> str:
    """The .td text of ``td`` for n vertices; ``KsecError`` names an n below a cluster vertex."""
    top = max((v for bag in td.bags for v in bag), default=0)
    if not is_int(n) or n < top:
        raise KsecError(f"n={n!r} is not an integer >= {top}, the largest cluster vertex")
    lines = comment_lines(comment)
    max_bag = max(len(b) for b in td.bags)
    lines.append(f"s td {td.num_nodes} {max_bag} {n}")
    for i in td.nodes():
        lines.append("b " + " ".join([str(i)] + [str(v) for v in sorted(td.bag(i))]))
    for i, j in sorted(td.tree_edges):
        lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"
