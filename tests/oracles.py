"""Independent reference implementations used only to check the library.

Everything here computes the slow, obvious way (subset enumeration,
all-pairs BFS, cyclic scans) and deliberately shares no code with the
package under test.
"""

from __future__ import annotations

import itertools

import networkx as nx


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
