"""Independent reference implementations used only to check the library.

Everything here computes the slow, obvious way (subset enumeration,
all-pairs BFS, cyclic scans) and deliberately shares no code with the
package under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import networkx as nx
import numpy as np

from ksec.errors import InvariantViolation, ResourceLimit
from ksec.graph import Graph, bfs_tree
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


def naive_between(b, a, c, n) -> bool:
    if a == c:
        return b == a
    x = a
    while True:
        if x == b:
            return True
        if x == c:
            return False
        x = x % n + 1


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
