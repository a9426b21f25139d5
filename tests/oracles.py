"""Independent reference implementations used only to check the library.

Everything here computes the slow, obvious way (subset enumeration,
all-pairs BFS, cyclic scans) and deliberately shares no code with the
package under test.
"""

from __future__ import annotations

import itertools
from collections.abc import Container
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import networkx as nx
import numpy as np

from ksec.errors import (
    FormatError,
    InvariantViolation,
    KsecError,
    MOutOfRange,
    NotAForest,
    RedundantDecomposition,
    ResourceLimit,
)
from ksec.graph import (
    GR_BYTES_PER_VERTEX,
    Cut,
    Graph,
    TreeSummary,
    bfs_tree,
    component_orders,
    induced_sorted,
    is_int,
    mem_limit_bytes,
    require_forest,
    require_memory,
    require_tree,
)
from ksec.labeling import AnchorWindow, PLabeling
from ksec.oracle import _InnerForest, dp_min_size_cut_tree
from ksec.treedec import HeaviestPathResult, TreeDecomposition, edge_home, occurrences


def to_nx(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(1, g.n + 1))
    h.add_edges_from(g.edges)
    return h


def bfs_diameter(g) -> int:
    """Diameter by all-pairs BFS through networkx eccentricities."""
    h = to_nx(g)
    return max(nx.eccentricity(h).values()) if g.n > 1 else 0


def recount_cut(g, parts) -> int:
    where = {}
    for idx, part in enumerate(parts):
        for v in part:
            where[v] = idx
    return sum(1 for (u, v) in g.edges if where[u] != where[v])


def min_cut_over_subsets(g, m) -> int:
    """Minimum width over all size-m black sets, by full enumeration."""
    best = None
    for black in itertools.combinations(range(1, g.n + 1), m):
        bs = set(black)
        w = sum(1 for (u, v) in g.edges if (u in bs) != (v in bs))
        if best is None or w < best:
            best = w
    return best


def partitions_into_sizes(vs: tuple, sizes: tuple):
    """All unordered partitions of vs with the given part sizes."""
    sizes = tuple(s for s in sizes if s > 0)
    if not vs:
        if not sizes:
            yield ()
        return
    tried = set()
    for i, s in enumerate(sizes):
        if s in tried:
            continue
        tried.add(s)
        rest_sizes = sizes[:i] + sizes[i + 1 :]
        head, tail = vs[0], vs[1:]
        for extra in itertools.combinations(tail, s - 1):
            part = (head,) + extra
            chosen = set(part)
            remaining = tuple(x for x in tail if x not in chosen)
            for rest in partitions_into_sizes(remaining, rest_sizes):
                yield (part,) + rest


def min_ksection_width(g, k) -> int:
    """Exact MinSec(k, g) by enumerating balanced partitions."""
    q, r = divmod(g.n, k)
    sizes = tuple([q + 1] * r + [q] * (k - r))
    best = None
    for parts in partitions_into_sizes(tuple(range(1, g.n + 1)), sizes):
        w = recount_cut(g, parts)
        if best is None or w < best:
            best = w
    return best


def naive_cyclic_count(flagged: set, n: int, x: int, y: int) -> int:
    """|{v in flagged, v != y, v between x and y}| by walking the cycle."""
    x = (x - 1) % n + 1
    y = (y - 1) % n + 1
    count = 0
    v = x
    while v != y:
        if v in flagged:
            count += 1
        v = v % n + 1
    return count


def naive_heaviest_path_weight(td) -> int:
    """Max |union of clusters along a path|, over all node pairs."""
    h = nx.Graph()
    h.add_nodes_from(range(1, td.num_nodes + 1))
    h.add_edges_from(td.tree_edges)
    best = 0
    for a in range(1, td.num_nodes + 1):
        for b in range(a, td.num_nodes + 1):
            path = nx.shortest_path(h, a, b)
            union = set()
            for i in path:
                union |= td.bag(i)
            best = max(best, len(union))
    return best


def naive_t3_holds(td) -> bool:
    """(T3) checked literally: X^i ∩ X^j ⊆ X^h for all h on the i-j path."""
    h = nx.Graph()
    h.add_nodes_from(range(1, td.num_nodes + 1))
    h.add_edges_from(td.tree_edges)
    for i in range(1, td.num_nodes + 1):
        for j in range(i + 1, td.num_nodes + 1):
            common = td.bag(i) & td.bag(j)
            if not common:
                continue
            for mid in nx.shortest_path(h, i, j):
                if not common <= td.bag(mid):
                    return False
    return True


def heaviest_path_candidate_list(td: TreeDecomposition, n: int) -> HeaviestPathResult:
    """Path in the decomposition tree maximizing |union of clusters|.

    Exact, relying on (T3'): along any rooted chain a vertex's
    occurrences are contiguous, so extending a chain from child ch to
    node c adds exactly |X^c| - |X^c ∩ X^ch| new vertices.  Ties break
    toward smaller endpoint ids, then the lexicographically smaller
    normalized endpoint pair.

    ``treedec.heaviest_path`` as it was before its one-pass rewrite: a
    list of candidate paths per node and a sort of the child legs.  The
    reference for the new version's result, tie-breaks included.
    """
    num = td.num_nodes
    order, parent = bfs_tree(td.tree_adj, 1)

    # g[i]: best weight of a chain from some descendant endpoint up to i
    g_val = [0] * (num + 1)
    g_end = [0] * (num + 1)
    best: tuple[int, tuple[int, int]] | None = None
    for i in reversed(order):
        bag_i = td.bag(i)
        g_val[i], g_end[i] = len(bag_i), i
        legs = []  # (gain, endpoint) of extending each child chain to i
        for ch in td.tree_adj[i]:
            if ch == i or parent[ch] != i:
                continue
            gain = g_val[ch] + len(bag_i) - len(bag_i & td.bag(ch))
            legs.append((gain, g_end[ch]))
            if gain > g_val[i] or (gain == g_val[i] and g_end[ch] < g_end[i]):
                g_val[i], g_end[i] = gain, g_end[ch]
        # best path through i: top two legs from distinct children (or fewer)
        candidates = [(len(bag_i), (i, i))]
        for gain, end in legs:
            pair = (min(i, end), max(i, end))
            candidates.append((gain, pair))
        legs.sort(key=lambda t: (-t[0], t[1]))
        if len(legs) >= 2:
            (ga, ea), (gb, eb) = legs[0], legs[1]
            pair = (min(ea, eb), max(ea, eb))
            candidates.append((ga + gb - len(bag_i), pair))
        for w, pair in candidates:
            if best is None or w > best[0] or (w == best[0] and pair < best[1]):
                best = (w, pair)

    a, b = best[1]
    # reconstruct the a..b node path through the rooted tree
    depth = [0] * (num + 1)
    for u in order[1:]:
        depth[u] = depth[parent[u]] + 1
    up_a, up_b = [a], [b]
    x, y = a, b
    while x != y:
        if depth[x] >= depth[y]:
            x = parent[x]
            up_a.append(x)
        else:
            y = parent[y]
            up_b.append(y)
    path = tuple(up_a + up_b[:-1][::-1])
    union = set()
    for i in path:
        union |= td.bag(i)
    if len(union) != best[0]:
        raise InvariantViolation("heaviest-path DP disagrees with its own path")
    if path[0] > path[-1]:
        path = path[::-1]
    return HeaviestPathResult(path=path, weight=best[0], relative_weight=Fraction(best[0], n))


def tree_to_width1_td(tree: Graph) -> TreeDecomposition:
    """Width-1 decomposition of a tree: one node per vertex, bag {v, parent}."""
    require_tree(tree, "tree_to_width1_td")
    root = 1
    _, parent = bfs_tree(tree.adj, root)
    bags = []
    for v in tree.vertices():
        bags.append({v} if v == root else {v, parent[v]})
    return TreeDecomposition(bags, [(v, parent[v]) for v in tree.vertices() if v != root])


def random_forest(rng, n_lo=2, n_hi=60, max_degree=5, drop=3):
    """Seeded random forest: a capped random tree minus a few edges."""
    from ksec.instances import random_tree_maxdeg
    from ksec.graph import Graph

    n = rng.randint(n_lo, n_hi)
    tree = random_tree_maxdeg(n, max_degree, rng)
    edges = sorted(tree.edges)
    for _ in range(rng.randint(0, drop)):
        if edges:
            edges.pop(rng.randint(0, len(edges) - 1))
    return Graph(n, edges)


def link_summarized(g: Graph, comps) -> Graph:
    """The linked tree of a forest with summary ``comps``, as the paper builds it.

    Each link joins the last vertex of a component's longest path to the
    first of the next one's, so the paths chain into one path.  A forest
    of at most one component is returned as it is.
    """
    if len(comps) <= 1:
        return g
    links = [(a.path[-1], b.path[0]) for a, b in zip(comps, comps[1:])]
    return Graph(g.n, [*g.edges, *links])


def inner_cut_by_public_dp(g: Graph, comps, trace) -> tuple[frozenset, int]:
    """The exact inner cut of a tree cut's ``trace``, by the public DP on a relabeled copy.

    ``dp_min_size_cut_tree`` runs on the linked tree's G[Ṽ] relabeled
    1..|Ṽ| (``induced_sorted``), rooted by ``component_orders`` and handed
    over as the tree cut hands its own (``_InnerForest``), with each
    vertex's forest edges leaving Ṽ as its weight; the black set is
    mapped back to g's ids.
    """
    v_tilde = trace.v_tilde
    old_of = sorted(v_tilde)
    inner = induced_sorted(link_summarized(g, comps), old_of)
    weights = {new: w for new, v in enumerate(old_of, 1)
               if (w := sum(u not in v_tilde for u in g.adj[v]))}
    rooted = component_orders(inner)
    black, width = dp_min_size_cut_tree(_InnerForest(inner.adj, inner.n, rooted, weights), trace.m)
    return frozenset(old_of[u - 1] for u in black), width


def rooted_forest(g):
    """BFS order and parents (0 at a root) of a forest, as in the tree DP.

    Each component is rooted at its smallest id, and a vertex's children
    are its other neighbours in ascending order.
    """
    order, parent = [], {}
    for root in g.vertices():
        if root in parent:
            continue
        parent[root] = 0
        i = len(order)
        order.append(root)
        while i < len(order):
            fresh = [u for u in sorted(g.adj[order[i]]) if u not in parent]
            parent.update(dict.fromkeys(fresh, order[i]))
            order += fresh
            i += 1
    return order, parent


def subtree_totals(g, weight):
    """For each vertex, the sum of ``weight(u)`` over the vertices u of its subtree."""
    order, parent = rooted_forest(g)
    total = {v: weight(v) for v in order}
    for v in reversed(order):
        if parent[v]:
            total[parent[v]] += total[v]
    return total


def subtree_classes(g, ordered=False):
    """Each vertex's class of identical unordered subtrees, across the whole forest.

    A class is the sorted tuple of the numbers of its children's classes,
    so it has one entry per child.  The leaves' class () is number 0, so a
    class's nonzero entries are its children that are not leaves.  The
    tree DP builds one table per class.  With ``ordered`` the tuple keeps
    the children's ascending id order instead: the classes of identical
    ordered subtrees.
    """
    order, parent = rooted_forest(g)
    cls, number = {}, {(): 0}
    for v in reversed(order):
        shape = [number[cls[u]] for u in sorted(g.adj[v]) if parent[u] == v]
        cls[v] = tuple(shape if ordered else sorted(shape))
        number.setdefault(cls[v], len(number))
    return cls


def inner_merges(cls):
    """Min-plus merges that build one table per class: one per child, leaves included.

    ``cls`` is ``subtree_classes``'s output.
    """
    return sum(len(shape) for shape in set(cls.values()))


def live_decomposition_errors(td, g, live) -> list:
    """(T1), (T2), (T3) of ``td`` for g on the ids ``live``, checked naively.

    The decomposition peel's graphs keep their input's ids, with every cut
    vertex isolated: a cluster may hold only live ids ("off-live"), each
    live id lies in a cluster (T1), each edge of g in one cluster (T2),
    and the nodes holding a vertex are connected in the tree (T3).
    """
    live = set(live)
    tree = {i: set() for i in td.nodes()}
    for i, j in td.tree_edges:
        tree[i].add(j)
        tree[j].add(i)
    holders: dict = {}
    for i in td.nodes():
        for v in td.bag(i):
            holders.setdefault(v, set()).add(i)
    problems = [("off-live", v) for v in sorted(set(holders) - live)]
    problems += [("T1", v) for v in sorted(live - set(holders))]
    problems += [("T2", (u, v)) for u, v in sorted(g.edges)
                 if not holders.get(u, set()) & holders.get(v, set())]
    for v, nodes in sorted(holders.items()):
        seen, stack = {min(nodes)}, [min(nodes)]
        while stack:
            for j in tree[stack.pop()] & nodes - seen:
                seen.add(j)
                stack.append(j)
        if seen != nodes:
            problems.append(("T3", v))
    return problems


def make_nonredundant_rescan(td):
    """``treedec.make_nonredundant`` as first written: rescan every node after each contraction.

    Quadratic; the reference for the contraction order of the heap worklist.
    """
    from ksec.treedec import TreeDecomposition

    alive = set(td.nodes())
    bags = {i: td.bag(i) for i in td.nodes()}
    adj = {i: set(td.tree_adj[i]) for i in td.nodes()}
    while True:
        candidate = None
        for i in sorted(alive):
            for j in sorted(adj[i]):
                if j < i:
                    continue
                if bags[i] <= bags[j] or bags[j] <= bags[i]:
                    candidate = (i, j)
                    break
            if candidate:
                break
        if candidate is None:
            break
        i, j = candidate
        if bags[i] == bags[j]:
            absorbed, survivor = max(i, j), min(i, j)
        elif bags[i] < bags[j]:
            absorbed, survivor = i, j
        else:
            absorbed, survivor = j, i
        for w in adj[absorbed]:
            if w != survivor:
                adj[w].discard(absorbed)
                adj[w].add(survivor)
                adj[survivor].add(w)
        adj[survivor].discard(absorbed)
        del adj[absorbed], bags[absorbed]
        alive.discard(absorbed)
    order = sorted(alive)
    new_id = {old: k + 1 for k, old in enumerate(order)}
    edges = set()
    for i in order:
        for j in adj[i]:
            edges.add((min(new_id[i], new_id[j]), max(new_id[i], new_id[j])))
    return TreeDecomposition([bags[i] for i in order], edges)


def glue_decompositions_whole(
    td0: TreeDecomposition, new_of: dict, b_side: frozenset, j0: int
) -> TreeDecomposition:
    """``tdcut._glue_decompositions`` as it was before it glued only the spans.

    Two whole induced copies of td0, bridged; the reference whose normal
    form and relative path weight the span-only glue must keep.
    """
    b_local = {new_of[v] for v in b_side}
    local = [frozenset(new_of[v] for v in bag if v in new_of) for bag in td0.bags]
    bags1 = [b - b_local for b in local]
    bags2 = [b & b_local for b in local]
    num = td0.num_nodes
    h0 = next(i for i, b in enumerate(bags2, start=1) if b)
    # copy 2's nodes all follow copy 1's, so the bridge keeps both adjacencies sorted
    adj = [*td0.tree_adj, *(tuple(x + num for x in a) for a in td0.tree_adj[1:])]
    adj[j0] += (h0 + num,)
    adj[h0 + num] = (j0, *adj[h0 + num])
    edges = {*td0.tree_edges, *((i + num, j + num) for i, j in td0.tree_edges), (j0, h0 + num)}
    return TreeDecomposition._trusted(tuple(bags1 + bags2), tuple(adj), frozenset(edges))


# --- The decomposition DP with one table row per coloring -------------------
#
# ``oracle._TDTables`` as it was before its tables became padded row arrays:
# one array per cluster coloring, each as long as that coloring can reach, and
# one 1-D min-plus call per coloring and child.  The reference for the padded
# tables and the kept reductions.

INF = 1 << 28


def _minplus(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    """out[c] = min over i+j=c of a[i]+b[j], truncated to counts 0..cap."""
    out_len = min(len(a) + len(b) - 1, cap + 1)
    out = np.full(out_len, INF, dtype=np.int32)
    if len(b) > len(a):
        a, b = b, a
    for j in range(min(len(b), out_len)):
        bj = int(b[j])
        if bj >= INF:
            continue
        hi = min(len(a), out_len - j)
        np.minimum(out[j : j + hi], a[:hi] + bj, out=out[j : j + hi])
    np.minimum(out, INF, out=out)
    return out


class TDTablesPerColoring:
    """Per-node DP tables over the decomposition, rooted at node 1 (the table pass only).

    ``run`` fills the tables and keeps each child's ``reduce_child``
    result beside them.  The memory guard counts tables and reductions alike.
    """

    def __init__(self, g: Graph, td: TreeDecomposition, cap: int, mem_limit: int):
        self.cap = cap
        self.mem_limit = mem_limit
        self.order, self.parent = bfs_tree(td.tree_adj, 1)
        self.children = {
            i: [w for w in td.tree_adj[i] if self.parent[w] == i] for i in td.nodes()
        }
        self.bag_list = {i: sorted(td.bag(i)) for i in td.nodes()}
        self.pos = {i: {v: p for p, v in enumerate(self.bag_list[i])} for i in td.nodes()}
        # each edge is charged to the smallest node whose cluster contains it
        self.cost_edges: dict[int, list[tuple[int, int]]] = {i: [] for i in td.nodes()}
        occ = occurrences(td)
        for u, v in sorted(g.edges):
            home = edge_home(td, occ, u, v)
            if home is None:
                raise InvariantViolation(f"edge ({u},{v}) not covered by any cluster (T2 fails)")
            self.cost_edges[home].append((u, v))
        self.table: dict[int, list[np.ndarray]] = {}
        self.red: dict[int, tuple[int, dict[int, np.ndarray]]] = {}
        self.used_bytes = 0

    def base_row(self, i: int, mask: int) -> np.ndarray:
        """Node i's own table for one coloring of its cluster."""
        pos = self.pos[i]
        blacks = bin(mask).count("1")
        cost = 0
        for u, v in self.cost_edges[i]:
            if ((mask >> pos[u]) & 1) != ((mask >> pos[v]) & 1):
                cost += 1
        t = np.full(min(blacks, self.cap) + 1, INF, dtype=np.int32)
        if blacks <= self.cap:
            t[blacks] = cost
        return t

    def reduce_child(self, i: int, j: int) -> tuple[int, dict[int, np.ndarray]]:
        """Group the child table by the coloring of the shared vertices.

        Returns the mask of the shared positions in bag(i) and the
        reduction: keys are masks over bag(i) positions restricted to
        shared vertices; red[key][c] = best child entry with c black
        vertices counted below j but outside the shared set.
        """
        shared = [v for v in self.bag_list[j] if v in self.pos[i]]
        shared_mask = 0
        for v in shared:
            shared_mask |= 1 << self.pos[i][v]
        tabs = self.table[j]
        max_len = max(len(t) for t in tabs)
        red: dict[int, np.ndarray] = {}
        for mask_j, t in enumerate(tabs):
            key = 0
            s_count = 0
            for v in shared:
                if (mask_j >> self.pos[j][v]) & 1:
                    key |= 1 << self.pos[i][v]
                    s_count += 1
            arr = red.get(key)
            if arr is None:
                arr = np.full(max_len, INF, dtype=np.int32)
                red[key] = arr
            lo = s_count
            ln = len(t) - lo
            if ln > 0:
                np.minimum(arr[:ln], t[lo:], out=arr[:ln])
        return shared_mask, red

    def _keep(self, arrays) -> None:
        self.used_bytes += sum(a.nbytes for a in arrays)
        if self.used_bytes > self.mem_limit:
            raise ResourceLimit(
                f"decomposition DP tables exceed memory guard "
                f"({self.used_bytes >> 20} MB); raise KSEC_MAX_MEM_MB"
            )

    def run(self) -> list[np.ndarray]:
        empty = np.full(1, INF, dtype=np.int32)
        for i in reversed(self.order):
            masks = range(1 << len(self.bag_list[i]))
            tabs = [self.base_row(i, mask) for mask in masks]
            for j in self.children[i]:
                shared_mask, red = self.red[j] = self.reduce_child(i, j)
                self._keep(red.values())
                tabs = [
                    _minplus(tabs[mask], red.get(mask & shared_mask, empty), self.cap)
                    for mask in masks
                ]
            self.table[i] = tabs
            self._keep(tabs)
        return self.table[self.order[0]]


# --- The decomposition DP's reductions and own rows, node by node ----------
#
# ``oracle._TDTables.own`` and ``reduce_child`` as they were before one DP
# built each node's index work once per cluster shape: every node packs its
# keys, sorts them and shifts its reduction's rows through a padded copy, and
# every node builds its own rows.  The method bodies are verbatim; the class
# around them holds only what they read.  The reference for the plans and
# the shared own tables.


def _bits(b: int) -> np.ndarray:
    """Entry [mask, p] is bit p of mask, for the masks 0..2^b - 1."""
    return (np.arange(1 << b)[:, None] >> np.arange(b)) & 1


def _pack(b: int, positions: list[int]) -> np.ndarray:
    """For each mask of b bits, its bits at ``positions`` packed into its low bits, in order."""
    return _bits(b)[:, positions] @ (1 << np.arange(len(positions)))


class TDReductionsPerNode:
    """A node's own rows and a child's reduction, recomputed per node from the child tables ``table``."""

    def __init__(self, g: Graph, td: TreeDecomposition, cap: int, table: dict[int, np.ndarray]):
        self.cap = cap
        self.kept = SimpleNamespace(table=table)
        self.bag_list = {i: sorted(td.bag(i)) for i in td.nodes()}
        self.pos = {i: {v: p for p, v in enumerate(self.bag_list[i])} for i in td.nodes()}
        self.cost_edges: dict[int, list[tuple[int, int]]] = {i: [] for i in td.nodes()}
        occ = occurrences(td)
        for u, v in sorted(g.edges):
            self.cost_edges[edge_home(td, occ, u, v)].append((u, v))

    def own(self, i: int, rows: slice | None) -> np.ndarray:
        """Node i's base rows: the cut edges charged to it, at the cluster's own black count."""
        pos = self.pos[i]
        bits = _bits(len(pos)) if rows is None else _bits(len(pos))[rows]
        blacks = bits.sum(axis=1)
        cost = np.zeros(len(bits), dtype=np.int32)
        for u, v in self.cost_edges[i]:
            cost += bits[:, pos[u]] != bits[:, pos[v]]
        t = np.full((len(bits), min(len(pos), self.cap) + 1), INF, dtype=np.int32)
        fit = np.flatnonzero(blacks <= self.cap)
        t[fit, blacks[fit]] = cost[fit]
        return t

    def _shared(self, i: int, j: int) -> tuple[list[int], list[int]]:
        """Positions in bag(j) and in bag(i) of the vertices the two clusters share."""
        shared = [v for v in self.bag_list[j] if v in self.pos[i]]
        return [self.pos[j][v] for v in shared], [self.pos[i][v] for v in shared]

    def reduce_child(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Group the child table by the coloring of the shared vertices.

        Returns the reduction, whose row key (the shared vertices' colors
        packed in bag(j) order) holds at column c the best child entry with
        c black vertices counted below j but outside the shared set, and
        for each coloring of bag(i) the key of its row, in the smallest
        unsigned dtype that holds every key.
        """
        at_j, at_i = self._shared(i, j)
        tab = self.kept.table[j]
        width = tab.shape[1]
        # keys packed to 0..2^|shared| - 1; once sorted, each key's rows form one block
        keys = _pack(len(self.bag_list[j]), at_j)
        grouped = tab[np.argsort(keys, kind="stable")].reshape(1 << len(at_j), -1, width)
        padded = np.full((len(grouped), width + len(at_j)), INF, dtype=np.int32)
        padded[:, :width] = grouped.min(axis=1)
        # shift each key's row left by its number of shared black vertices
        shift = _bits(len(at_j)).sum(axis=1)
        mat = padded[np.arange(len(padded))[:, None], np.arange(width) + shift[:, None]]
        gather = _pack(len(self.bag_list[i]), at_i)
        return mat, gather.astype(np.min_scalar_type(len(mat) - 1))


# --- The tree DP with full-width tables ------------------------------------
#
# ``oracle.dp_min_size_cut_tree`` and its engine as they were before the
# tables kept only the feasible count band and identical subtrees shared a
# table: every table spans the counts 0..min(s, m), every vertex builds its
# own, and every merge runs the column loop.  Only the kernel and the entry
# point are renamed.  The reference for the black set and the width.

def _minplus_rows(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    """Row-wise min-plus: out[r, c] = min over i+j=c of a[r, i]+b[r, j], for c in 0..cap.

    ``a`` and ``b`` are 2-D with one row per coloring (one row for a single
    sequence) and entries in 0..INF.  Each step of the loop advances every
    row at once; it runs over the columns of the narrower operand that are
    finite in some row.
    """
    if b.shape[1] > a.shape[1]:
        a, b = b, a
    width = a.shape[1]
    out_len = min(width + b.shape[1] - 1, cap + 1)
    out = np.full((a.shape[0], out_len), INF, dtype=np.int32)
    for j, bj in enumerate(b[:, :out_len].min(axis=0).tolist()):
        if bj >= INF:
            continue
        hi = min(width, out_len - j)
        dst = out[:, j : j + hi]
        np.minimum(dst, a[:, :hi] + b[:, j : j + 1], out=dst)
    return out


def _split(prev: np.ndarray, part: np.ndarray, c: int, target: int) -> int | None:
    """Smallest cu with prev[c - cu] + part[cu] == target, or None.

    Undoes one min-plus step ``cur = _minplus_rows(prev, part)`` at count c,
    where target = cur[c].
    """
    lo = max(0, c - len(prev) + 1)
    hi = min(len(part), c + 1)
    if lo >= hi:
        return None
    sums = prev[c - hi + 1 : c - lo + 1][::-1] + part[lo:hi]
    hits = np.flatnonzero(sums == target)
    return lo + int(hits[0]) if len(hits) else None


KEEP_RATIO = 4  # a node keeps accumulations of at most this many times its table


class _Kept:
    """What one exact-cut DP keeps, under the memory guard.

    Every node's table stays, and so does every array counted by ``need``
    (the decomposition DP's reductions).  A node's intermediate
    accumulations (all but the last, which is its table) stay as well when
    they take at most KEEP_RATIO times the table's bytes and fit under the
    guard; a node with many children, whose accumulations grow with its
    degree times its table, recomputes the followed row when traced
    instead.  When an array that must stay does not fit, the
    accumulations are dropped first, so the guard trips only when the
    arrays that must stay exceed it.
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


class _Tables:
    """One exact-cut DP: a table per node of a rooted tree, filled bottom-up.

    A table has one row per state of its node and one column per black
    count up to ``cap``, INF where a state cannot reach the count.
    ``run`` fills ``kept``; ``trace`` follows one state down from the
    root, reading the kept accumulations and recomputing only the followed
    row where ``kept`` dropped them.  A subclass gives the node's own rows
    (``own``), a child's rows for each state of the node (``child_rows``),
    the child state a split came from (``child_state``) and the vertex
    colors of a state (``paint``); it may also paint a whole subtree whose
    count leaves one coloring (``paint_forced``).  ``rows`` is a slice of
    states, or None for all of them; given one state, ``child_rows``
    returns one row.
    """

    cap: int
    kept: _Kept
    order: list[int]  # BFS order from the root
    children: dict[int, list[int]]

    def accumulate(self, i: int, rows: slice | None = None) -> list[np.ndarray]:
        """Node i's own rows, then one min-plus merge per child; the last is its table."""
        accs = [self.own(i, rows)]
        for j in self.children[i]:
            accs.append(_minplus_rows(accs[-1], self.child_rows(i, j, rows), self.cap))
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
            for idx in range(len(children) - 1, -1, -1):
                j = children[idx]
                part = self.child_rows(i, j, s)
                cj = _split(accs[idx][r], part, c, int(accs[idx + 1][r, c]))
                if cj is None:
                    raise InvariantViolation("exact-cut DP trace failed to split a count")
                stack.append((j, *self.child_state(i, j, s, part, cj)))
                c -= cj
            if c != s.bit_count():
                raise InvariantViolation("exact-cut DP trace ended on a bad count")

    def paint_forced(self, i: int, s: int, c: int, color: dict[int, int]) -> bool:
        """Color all of node i's subtree when ``c`` leaves it one coloring; True if it did."""
        return False


def _best(du: np.ndarray) -> np.ndarray:
    """Row s: best of child table ``du`` under a parent of color s, paying 1 when colors differ."""
    return np.minimum(du, du[::-1] + 1)


class _TreeTables(_Tables):
    """Per-vertex DP tables for one component, rooted at its smallest id.

    A vertex's state is its color.  Every leaf shares one read-only table.
    ``kept`` is shared by all components of the forest.  ``order`` is the
    component's BFS order from its root, and ``parent`` the BFS parents
    of the sweep over the whole forest that found it.
    """

    def __init__(self, g: Graph, order: list[int], parent: list[int], cap: int, kept: _Kept):
        self.cap = cap
        self.kept = kept
        self.order = order
        adj = g.adj
        self.children = {v: [w for w in adj[v] if parent[w] == v] for v in order}
        self.size = dict.fromkeys(order, 1)
        for v in reversed(order[1:]):
            self.size[parent[v]] += self.size[v]
        self.leaf = np.full((2, min(1, cap) + 1), INF, dtype=np.int32)
        self.leaf[0, 0] = 0
        if cap >= 1:
            self.leaf[1, 1] = 0
        self.leaf_best = _best(self.leaf)
        self.leaf.flags.writeable = self.leaf_best.flags.writeable = False

    def own(self, v: int, rows: slice | None) -> np.ndarray:
        return self.leaf if rows is None else self.leaf[rows]

    def child_rows(self, v: int, u: int, rows: int | slice | None) -> np.ndarray:
        du = self.kept.table[u]
        best = self.leaf_best if du is self.leaf else _best(du)
        return best if rows is None else best[rows]

    def child_state(self, v: int, u: int, s: int, part: np.ndarray, cu: int) -> tuple[int, int]:
        return (s if self.kept.table[u][s, cu] == part[cu] else 1 - s), cu

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


def dp_min_size_cut_tree_full_width(forest: Graph, m: int) -> tuple[Cut, int]:
    """Exact minimum-width cut with |B| = m in a forest; O(n*m) time.

    One BFS sweep, from each smallest id not yet reached, roots the
    components.  With the edge count it also checks that the graph is a
    forest, so a caller that knows it has one pays no second check; only
    a graph with a cycle goes through ``require_forest``, which names an
    edge on it.
    """
    n = forest.n
    if not is_int(m) or not (0 <= m <= n):
        raise MOutOfRange(f"m={m!r} not in 0..{n}")
    orders, parent = component_orders(forest)
    if forest.num_edges != n - len(orders):
        require_forest(forest, "dp_min_size_cut_tree")  # a cycle: raises NotAForest naming an edge
    kept = _Kept(mem_limit_bytes())
    tables = [_TreeTables(forest, order, parent, min(m, len(order)), kept) for order in orders]
    roots = [t.run() for t in tables]
    dps = [np.minimum(r[:1], r[1:]) for r in roots]  # best over the root's colors

    # knapsack across components
    accs = [np.zeros((1, 1), dtype=np.int32)]
    for d in dps:
        accs.append(_minplus_rows(accs[-1], d, m))
    total = accs[-1][0]
    if m >= len(total) or total[m] >= INF:
        raise InvariantViolation("no cut of the requested size exists")
    width = int(total[m])

    color: dict[int, int] = {}
    c = m
    for idx in range(len(tables) - 1, -1, -1):
        cu = _split(accs[idx][0], dps[idx][0], c, int(accs[idx + 1][0][c]))
        if cu is None:
            raise InvariantViolation("component knapsack trace failed")
        root = roots[idx]  # its color: white unless black is strictly better
        tables[idx].trace(0 if root[0, cu] <= root[1, cu] else 1, cu, color)
        c -= cu
    black = {v for v, s in color.items() if s == 1}
    cut = Cut._trusted(forest, black)
    if len(cut.black) != m or cut.width != width:
        raise InvariantViolation("tree DP reconstruction mismatch")
    return cut, width


# --- The approximate cut on a BFS of a graph of its own ---------------------
#
# The black set of ``treecut.approximate_cut`` as computed before the cut
# read its subtree off a labeling's post-order: BFS-root the tree at v, size
# the subtrees, descend to a deepest vertex whose child subtree exceeds m,
# and collect the chosen roots' subtrees by a walk.


def approximate_black(tree: Graph, v: int, m: int) -> frozenset:
    n = tree.n
    if m >= n - 1:
        return frozenset(tree.vertices()) - {v}
    order, parent = bfs_tree(tree.adj, v)
    size = [1] * (n + 1)
    for u in reversed(order):
        if parent[u]:
            size[parent[u]] += size[u]
    x = v
    while True:
        down = [w for w in tree.adj[x] if parent[w] == x and size[w] > m]
        if not down:
            break
        x = min(down)
    children = [w for w in tree.adj[x] if parent[w] == x]
    heavy = [w for w in children if 2 * size[w] >= m]
    if heavy:
        roots = [min(heavy)]
    else:
        roots, total = [], 0
        for w in children:
            if 2 * total >= m:
                break
            roots.append(w)
            total += size[w]
    black: set[int] = set()
    stack = roots
    while stack:
        u = stack.pop()
        black.add(u)
        stack.extend(w for w in tree.adj[u] if parent[w] == u)
    return frozenset(black)


# --- The decomposition approximate cut on an induced decomposition -----------
#
# ``tdcut._approximate_cut_td`` as it was before it read S_i through its
# vertex set: it takes ``induced(td, S)``, depth-ranks every node to top each
# vertex at its shallowest occurrence, collects every child's part and x's
# cluster as singleton parts, and takes the first part within m/2..m or
# else parts in order until they hold m/2.  The body is verbatim.


def approximate_td_black(td: TreeDecomposition, vertices, m: int) -> frozenset:
    n = len(vertices)
    if not is_int(m) or not (1 <= m <= 2 * n):
        raise MOutOfRange(f"m={m!r} not in 1..{2 * n}")
    if m >= n:
        return frozenset(vertices)

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


# --- Labelings with a vertex->block map beside them ---------------------------
#
# The tree and decomposition labelings as built before ``PLabeling`` kept
# its blocks: each pipeline kept its own map from a vertex to its block.
# Only ``from_order`` moved out of ``PLabeling``, into ``labeling_from_order``.


class LabelingFromOrder(NamedTuple):
    n: int
    label_of: tuple
    vertex_of: tuple
    path_prefix: tuple
    on_path: tuple
    num_path: int


def labeling_from_order(order: list[int], marked: Container[int]) -> LabelingFromOrder:
    """Label ``order[i]`` with i+1; ``order`` lists the vertices 1..n once each."""
    n = len(order)
    label_of = [0] * (n + 1)
    for lbl, v in enumerate(order, start=1):
        label_of[v] = lbl
    on_path = (False, *map(marked.__contains__, order))
    prefix = (0, *accumulate(on_path[1:], initial=0))
    return LabelingFromOrder(
        n=n,
        label_of=tuple(label_of),
        vertex_of=(0, *order),
        path_prefix=prefix,
        on_path=on_path,
        num_path=prefix[n + 1],
    )


@dataclass(frozen=True)
class PathDecomposition:
    """Subtrees T_v hanging off a fixed path of a tree.

    ``subtree_of`` maps every vertex to its path vertex; ``subtree_members``
    maps each path vertex v to V(T_v) (including v itself).  ``order``
    lists every T_v in post-order, children ascending, so v closes its
    block, with the blocks in path order: the order ``labeling._p_labeling`` labels.
    """

    tree: Graph
    path: tuple
    subtree_of: dict
    subtree_members: dict
    order: list


def path_decomposition(tree: Graph, path) -> PathDecomposition:
    """``decompose_along_path`` for a graph the caller already knows is a tree.

    One sweep per path vertex v finds T_v and its post-order: a
    pre-order that takes the largest child first, reversed.
    """
    path = tuple(path)
    if len(set(path)) != len(path) or not path:
        raise ValueError("path vertices must be distinct and non-empty")
    adj = tree.adj
    for a, b in zip(path, path[1:]):
        if b not in adj[a]:
            raise ValueError(f"({a},{b}) is not an edge of the tree")
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
        raise ValueError("path does not lie in this tree")
    return PathDecomposition(
        tree=tree,
        path=path,
        subtree_of=subtree_of,
        subtree_members=members,
        order=order,
    )


def p_labeling(dec: PathDecomposition) -> LabelingFromOrder:
    """Label vertices by a DFS from y0 that finishes each subtree in a block."""
    return labeling_from_order(dec.order, frozenset(dec.path))


@dataclass(frozen=True)
class TDPLabeling:
    """The cyclic labeling with R marked, plus the blocks along the path."""

    labeling: LabelingFromOrder
    a_p: tuple  # vertex -> path node
    l_p: tuple  # path nodes in order
    r_of: dict  # path node -> sorted tuple R_i
    s_of: dict  # path node -> sorted tuple S_i


def td_p_labeling(g: Graph, td: TreeDecomposition, path: HeaviestPathResult) -> TDPLabeling:
    """Labeling of g along a path of a nonredundant decomposition.

    Blocks follow the path; within the block of node i the S_i vertices
    come first and the R_i vertices take the largest labels.  That order
    and the marked set R make the labeling the tree cut uses.  Raises
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
        labeling=labeling_from_order(order, in_r),
        a_p=tuple(path_node_of),
        l_p=path_nodes,
        r_of={i: tuple(r_of[i]) for i in path_nodes},
        s_of={i: tuple(sorted(s_of[i])) for i in path_nodes},
    )


# --- A tree round's passes before they were trimmed ----------------------------
#
# ``graph.forest_summary`` as it was when a FIFO sweep found each component and
# ``_farthest`` rebuilt its depths to find a far end; ``labeling._p_labeling``
# as it was when it built one list per path vertex and ``PLabeling`` flattened
# them; and ``find_anchor`` and ``labels_interval`` as they were when every
# label went through ``cyclic``.  The bodies are verbatim; the names that
# would clash with the package's, and the calls between them, are renamed.
# The reference for the level sweeps, the flat labeling and the label windows.


def fifo_bfs_tree(adj, root: int, parent: list[int] | None = None):
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


def fifo_component_orders(g: Graph, vertices=None) -> tuple[list, list[int]]:
    """One BFS sweep: each component's order from its smallest id in ``vertices``, and the parents."""
    parent = [-1] * (g.n + 1)
    vertices = g.vertices() if vertices is None else vertices
    return [fifo_bfs_tree(g.adj, s, parent)[0] for s in vertices if parent[s] < 0], parent


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


def forest_summary_by_depths(g: Graph, vertices=None) -> list[TreeSummary]:
    """Components of a forest, ascending by smallest id, each with a longest path.

    O(n + m): one BFS sweep finds the components and rejects cycles, a
    second sweep per component from the far end of the first gives a
    longest path.  Raises ``NotAForest`` naming an edge on a cycle.  Only
    ``vertices`` (ascending, default all) are summarized; the rest must be isolated.
    """
    orders, parent = fifo_component_orders(g, vertices)
    if g.num_edges != (g.n if vertices is None else len(vertices)) - len(orders):
        u, v = min(e for e in g.edges if parent[e[0]] != e[1] and parent[e[1]] != e[0])
        raise NotAForest(f"edge ({u},{v}) closes a cycle")
    depth = [0] * (g.n + 1)
    parent2 = [-1] * (g.n + 1)
    out = []
    for order in orders:
        a = _farthest(order, parent, depth)
        order2, _ = fifo_bfs_tree(g.adj, a, parent2)
        path = [_farthest(order2, parent2, depth)]
        while path[-1] != a:
            path.append(parent2[path[-1]])
        if path[0] > path[-1]:
            path.reverse()
        out.append(TreeSummary(order[0], len(order), tuple(path)))
    return out


def plabeling_of_blocks(blocks: list[list[int]], marked: Container[int]) -> PLabeling:
    """The labeling of the blocks' vertices 1..n in order, the blocks of distinct ids."""
    order = [v for block in blocks for v in block]
    n = len(order)
    on_path = (False, *map(marked.__contains__, order))
    prefix = (0, *accumulate(on_path[1:], initial=0))
    return PLabeling(
        n=n,
        vertex_of=(0, *order),
        path_prefix=prefix,
        on_path=on_path,
        num_path=prefix[n + 1],
        ends=tuple(accumulate(map(len, blocks))),
    )


def label_map(order: list[int], max_id: int) -> tuple:
    """``PLabeling.label_of`` as a field held it: order[i] labels i + 1, other ids to max_id 0."""
    label_of = [0] * (max_id + 1)
    for lbl, v in enumerate(order, start=1):
        label_of[v] = lbl
    return tuple(label_of)


def p_labeling_by_blocks(tree: Graph, path) -> tuple[PLabeling, list[int]]:
    """The labeling along ``path``, block by block, and its sweeps' parents; unchecked.

    Removing the path's edges leaves one subtree T_v per path vertex v;
    block i is T_v of the i-th path vertex v, in post-order with v last.
    One sweep per path vertex finds T_v and its post-order: a pre-order
    that takes the largest child first, reversed.  ``parent[u]`` is u's
    neighbour toward its path vertex, u on the path, 0 where no sweep came.
    ``path`` is read more than once.
    """
    adj = tree.adj
    # path vertices start out reached, so each sweep stays inside its T_v
    parent = [0] * (tree.n + 1)
    for v in path:
        parent[v] = v
    blocks = []
    for v in path:
        stack, block = [v], []
        while stack:
            u = stack.pop()
            block.append(u)
            for w in adj[u]:
                if not parent[w]:
                    parent[w] = u
                    stack.append(w)
        block.reverse()
        blocks.append(block)
    return plabeling_of_blocks(blocks, frozenset(path)), parent


def cyclic(label: int, n: int) -> int:
    """Normalize an integer to its representative in 1..n."""
    return (label - 1) % n + 1


def _d_p(lab: PLabeling, x: int, y: int) -> int:
    """Count marked vertices between labels x and y, excluding y (cyclic)."""
    n = lab.n
    x, y = cyclic(x, n), cyclic(y, n)
    if x <= y:
        return lab.path_prefix[y] - lab.path_prefix[x]
    return lab.num_path - lab.path_prefix[x] + lab.path_prefix[y]


def find_anchor_cyclic(lab: PLabeling, m: int) -> int:
    """Smallest label v with d_P(v, v+m) = floor(|P| m / n) hitting the path.

    The returned v satisfies: v or v+m is marked (a path vertex, or in
    R).  For a tree |P|/n is diam*, for a decomposition r.  Existence is
    guaranteed by an averaging argument; failure to find one means the
    labeling is corrupt.  ``m`` must be an integer in 1..n - 1
    (``MOutOfRange``).
    """
    n = lab.n
    if not is_int(m) or not 1 <= m <= n - 1:
        raise MOutOfRange(f"m={m!r} not in 1..{n - 1}")
    target = (lab.num_path * m) // n
    for v in range(1, n + 1):
        if lab.on_path[v] or lab.on_path[cyclic(v + m, n)]:
            if _d_p(lab, v, v + m) == target:
                return v
    raise InvariantViolation(f"no anchor for m={m}; labeling corrupt")


def labels_interval_cyclic(lab: PLabeling, start: int, count: int) -> set[int]:
    """Vertices whose labels are start, start+1, ..., start+count-1 (cyclic)."""
    n = lab.n
    return {lab.vertex_of[cyclic(start + i, n)] for i in range(count)}


# --- The anchor's window as each preserving cut read it -----------------------
#
# ``treecut.diameter_preserving_cut`` and ``tdcut.r_preserving_cut`` as they
# were when each read the anchor's m-window inline, up to the split of their
# block, before ``labeling.anchor_window`` read it for both.  The lines are
# verbatim, except: ``find_anchor``, ``labels_interval`` and ``cyclic`` are the
# ones above; the tree's ``lab.vertex(v + m)``, whose method is gone, reads
# ``vertex_of`` and is taken in every case; and each returns the window where
# its cut went on to use it.  The reference for ``anchor_window``.


def tree_cut_window(lab: PLabeling, m: int, path) -> AnchorWindow:
    """The tree cut's read of the window of ``lab``, labeled along the chain ``path``."""
    n = lab.n
    v = find_anchor_cyclic(lab, m)  # checks m: MOutOfRange unless an integer in 1..n - 1
    floor_dm = (lab.num_path * m) // n
    m_vertices = frozenset(labels_interval_cyclic(lab, v, m))
    v_on = lab.on_path[v]
    vm_on = lab.on_path[cyclic(v + m, n)]
    vm_vertex = lab.vertex_of[cyclic(v + m, n)]

    if v_on and vm_on:
        return AnchorWindow(v, floor_dm, m_vertices, "Case1", None, None, None, vm_vertex)

    # the unmarked end of the m-window lies in T_z, z the path vertex of its block
    i, first, last = lab.block(v + m if v_on else v)
    z = path[i]
    if v_on and lab.on_path[cyclic(v + m - 1, n)]:
        return AnchorWindow(v, floor_dm, m_vertices, "Case2a", (i, first, last), None, None,
                            vm_vertex)
    members = frozenset(lab.vertex_of[first : last + 1])
    t_z_prime = members - {z}
    m_tilde = 2 * len(t_z_prime & m_vertices)
    return AnchorWindow(v, floor_dm, m_vertices, "Case2b" if v_on else "Case3",
                        (i, first, last), t_z_prime, m_tilde, vm_vertex)


def td_cut_window(lab: PLabeling, m: int) -> AnchorWindow:
    """The decomposition cut's read of the window of ``lab``, with R marked."""
    n = lab.n
    v = find_anchor_cyclic(lab, m)  # checks m: MOutOfRange unless an integer in 1..n - 1
    floor_rm = (lab.num_path * m) // n
    m_vertices = frozenset(labels_interval_cyclic(lab, v, m))
    v_in_r = lab.on_path[v]
    vm_in_r = lab.on_path[cyclic(v + m, n)]
    vm_vertex = lab.vertex_of[cyclic(v + m, n)]

    if v_in_r and vm_in_r:
        return AnchorWindow(v, floor_rm, m_vertices, "Case1", None, None, None, vm_vertex)
    # the end of the m-window outside R lies in S_i of the split node i
    i, first, last = lab.block(v + m if v_in_r else v)
    if v_in_r and lab.on_path[cyclic(v + m - 1, n)]:
        return AnchorWindow(v, floor_rm, m_vertices, "Case2a", (i, first, last), None, None,
                            vm_vertex)

    case = "Case2b" if v_in_r else "Case3"
    s_set = frozenset(lab.vertex_of[x] for x in range(first, last + 1) if not lab.on_path[x])
    m_tilde = 2 * len(s_set & m_vertices)
    if not (2 <= m_tilde <= 2 * m):
        raise InvariantViolation(f"{case}: m-tilde {m_tilde} out of range")
    return AnchorWindow(v, floor_rm, m_vertices, case, (i, first, last), s_set, m_tilde,
                        vm_vertex)


# --- The .gr parser that checked each line twice ------------------------------
#
# ``graph.parse_gr`` as it was when it checked each line and then handed the
# edges to ``Graph(n, edges)``, which checked them again.  The body is
# verbatim; only the name is changed.  The reference for the parser, which
# must give the same graph or the same error.


def parse_gr_through_the_constructor(text: str) -> Graph:
    """Parse a .gr file; ``ResourceLimit`` when the declared n would not fit the memory guard."""
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
    return Graph(n, edges)


# --- The small-width search's widths 0 and 1 over a numpy preorder -------------
#
# ``oracle._Search`` and ``_Component`` as they were when every search built
# the forest's numpy preorder: width 1 sorted each component's candidates by
# (count, weight, vertex, root color) in ``one``, and ``sides`` flipped and
# accumulated over the preorder.  The bodies are verbatim; the class names
# are renamed, and ``search_upto_width_1`` is ``_small_width_cut`` without its
# width-2 stage, its caps and its check.  The reference for which tied cut of
# width 0 or 1 the search takes, and for ``_Component.one``'s table.


class PreorderComponent:
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

    def __init__(self, search: "PreorderSearch", base: int, c: int):
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


class PreorderSearch:
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
        self.comps = [PreorderComponent(self, base, len(order)) for base, order in zip(starts, orders)]
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


def search_upto_width_1(
    m: int, rooted: tuple[list[list[int]], Sequence[int]], outside: dict[int, int] | None = None
) -> tuple[list[int], int] | None:
    """The small-width search's (B, width) where the optimum is 0 or 1, else None; no caps."""
    orders, parent = rooted
    search = PreorderSearch(orders, parent, outside)
    for width, stage in enumerate((search.width_0, search.width_1)):
        best = min(stage(m), default=None)
        if best is None:
            continue
        _, cuts, colors = best
        return search.sides(cuts, colors)[0], width
    return None
