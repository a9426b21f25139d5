"""Ground-truth computations: exact size-constrained cuts and minimum k-sections.

The tree DP follows the classic knapsack-over-subtrees scheme; the
decomposition DP keeps one table per node mapping (cluster coloring,
black count) to the minimum number of cut edges.  Both reconstruct an
optimal black set deterministically (ascending scans everywhere) and
respect a hard memory guard (KSEC_MAX_MEM_MB).

In both DPs a table is one 2-D array with a row per coloring (of the
vertex, or of the cluster) and a column per black count, and merging a
child is one call of the row-wise min-plus kernel ``_minplus`` over all
rows.  Decomposition tables are padded with INF to their widest row,
and the memory guard counts them at their allocated bytes.

The tree DP runs once: it keeps every vertex's table and, where they
take at most KEEP_RATIO times that table, its per-child accumulations,
and rebuilds the cut from them; only the accumulations of vertices with
many children are recomputed while tracing.  The decomposition DP runs
once as well: it keeps each child's table reduced to the coloring of
the cluster it shares with its parent, and the trace reads those
reductions.  The memory guard counts every kept array.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from .errors import (
    InvariantViolation,
    KOutOfRange,
    MOutOfRange,
    ResourceLimit,
    TooLarge,
    WidthTooLarge,
)
from .graph import Cut, Graph, KSection, bfs_tree, require_forest
from .treedec import TreeDecomposition, edge_home, occurrences, require_decomposition

INF = 1 << 28


def _mem_limit_bytes(mem_limit_mb: int | None) -> int:
    if mem_limit_mb is None:
        mem_limit_mb = int(os.environ.get("KSEC_MAX_MEM_MB", "2048"))
    return mem_limit_mb * (1 << 20)


def _minplus(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
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


# --- Trees ------------------------------------------------------------------

def _split(prev: np.ndarray, part: np.ndarray, c: int, target: int) -> int | None:
    """Smallest cu with prev[c - cu] + part[cu] == target, or None.

    Undoes one min-plus step ``cur = _minplus(prev, part)`` at count c,
    where target = cur[c].
    """
    lo = max(0, c - len(prev) + 1)
    hi = min(len(part), c + 1)
    if lo >= hi:
        return None
    sums = prev[c - hi + 1 : c - lo + 1][::-1] + part[lo:hi]
    hits = np.flatnonzero(sums == target)
    return lo + int(hits[0]) if len(hits) else None


KEEP_RATIO = 4  # a vertex keeps accumulations of at most this many times its table


class _Kept:
    """What the tree DP keeps for one forest, under the memory guard.

    Every vertex's table stays.  Its intermediate accumulations (all but
    the last, which is the table) stay as well when they take at most
    KEEP_RATIO times the table's bytes and fit under the guard; a vertex
    with many children, whose accumulations grow with its degree times
    its table, recomputes them when traced instead.  When a table does not
    fit, the intermediates are dropped first, so the guard trips only when
    the tables of the whole forest exceed it.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.table: dict[int, np.ndarray] = {}
        self.accs: dict[int, list[np.ndarray]] = {}  # the last one is the vertex's table
        self.table_bytes = 0
        self.inner_bytes = 0

    def add(self, v: int, accs: list[np.ndarray]) -> None:
        table = accs[-1]
        self.table[v] = table
        self.table_bytes += table.nbytes
        if self.table_bytes + self.inner_bytes > self.limit:
            self.accs.clear()
            self.inner_bytes = 0
            if self.table_bytes > self.limit:
                raise ResourceLimit(
                    f"tree DP tables exceed memory guard ({self.table_bytes >> 20} MB); "
                    "raise KSEC_MAX_MEM_MB"
                )
        inner = sum(a.nbytes for a in accs[:-1])
        if (
            inner <= KEEP_RATIO * table.nbytes
            and self.table_bytes + self.inner_bytes + inner <= self.limit
        ):
            self.accs[v] = accs
            self.inner_bytes += inner


def _best(du: np.ndarray) -> np.ndarray:
    """Row s: best of child table ``du`` under a parent of color s, paying 1 when colors differ."""
    return np.minimum(du, du[::-1] + 1)


class _TreeTables:
    """Per-vertex DP tables for one component, rooted at its smallest id.

    A table has one row per color of its vertex.  ``run`` fills ``kept``,
    shared by all components of the forest, and ``trace`` rebuilds the cut
    from it, recomputing only the accumulations ``kept`` dropped.  Every
    leaf shares one read-only table.  ``parent`` is BFS scratch shared by
    all components.
    """

    def __init__(self, g: Graph, root: int, parent: list[int], cap: int, kept: _Kept):
        self.cap = cap
        self.root = root
        self.kept = kept
        self.order, _ = bfs_tree(g.adj, root, parent)
        self.children = {v: [w for w in g.adj[v] if parent[w] == v] for v in self.order}
        self.leaf = np.full((2, min(1, cap) + 1), INF, dtype=np.int32)
        self.leaf[0, 0] = 0
        if cap >= 1:
            self.leaf[1, 1] = 0
        self.leaf_best = _best(self.leaf)
        self.leaf.flags.writeable = self.leaf_best.flags.writeable = False

    def best(self, du: np.ndarray) -> np.ndarray:
        return self.leaf_best if du is self.leaf else _best(du)

    def accumulate(self, v: int) -> list[np.ndarray]:
        accs = [self.leaf]
        for u in self.children[v]:
            accs.append(_minplus(accs[-1], self.best(self.kept.table[u]), self.cap))
        return accs

    def run(self) -> np.ndarray:
        """Fill the tables; returns the component's row, best over the root's colors."""
        for v in reversed(self.order):
            self.kept.add(v, self.accumulate(v))
        root_t = self.kept.table[self.root]
        return np.minimum(root_t[:1], root_t[1:])

    def trace(self, count: int, color: dict[int, int]) -> None:
        """Assign colors for the whole component given the root's black count."""
        root_t = self.kept.table[self.root]
        if count < root_t.shape[1] and root_t[0][count] <= root_t[1][count]:
            state = (self.root, 0, count)
        else:
            state = (self.root, 1, count)
        stack = [state]
        while stack:
            v, s, c = stack.pop()
            color[v] = s
            accs = self.kept.accs.get(v) or self.accumulate(v)
            children = self.children[v]
            for idx in range(len(children) - 1, -1, -1):
                du = self.kept.table[children[idx]]
                best = self.best(du)[s]
                cu = _split(accs[idx][s], best, c, int(accs[idx + 1][s][c]))
                if cu is None:
                    raise InvariantViolation("tree DP trace failed to split a count")
                su = s if du[s][cu] == best[cu] else 1 - s
                stack.append((children[idx], su, cu))
                c -= cu
            if c != (1 if s else 0):
                raise InvariantViolation("tree DP trace ended on a bad count")


def dp_min_size_cut_tree(
    forest: Graph, m: int, mem_limit_mb: int | None = None
) -> tuple[Cut, int]:
    """Exact minimum-width cut with |B| = m in a forest; O(n*m) time."""
    n = forest.n
    if not (0 <= m <= n):
        raise MOutOfRange(f"m={m} not in 0..{n}")
    comps = require_forest(forest, "dp_min_size_cut_tree")
    mem_limit = _mem_limit_bytes(mem_limit_mb)

    parent = [-1] * (n + 1)
    kept = _Kept(mem_limit)
    tables = [
        _TreeTables(forest, comp.order[0], parent, min(m, len(comp.order)), kept)
        for comp in comps
    ]
    dps = [t.run() for t in tables]

    # knapsack across components
    accs = [np.zeros((1, 1), dtype=np.int32)]
    for d in dps:
        accs.append(_minplus(accs[-1], d, m))
    total = accs[-1][0]
    if m >= len(total) or total[m] >= INF:
        raise InvariantViolation("no cut of the requested size exists")
    width = int(total[m])

    color: dict[int, int] = {}
    c = m
    for idx in range(len(comps) - 1, -1, -1):
        cu = _split(accs[idx][0], dps[idx][0], c, int(accs[idx + 1][0][c]))
        if cu is None:
            raise InvariantViolation("component knapsack trace failed")
        tables[idx].trace(cu, color)
        c -= cu
    black = {v for v, s in color.items() if s == 1}
    cut = Cut.from_black(forest, black)
    if len(cut.black) != m or cut.width != width:
        raise InvariantViolation("tree DP reconstruction mismatch")
    return cut, width


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


class _TDTables:
    """Per-node DP tables over the decomposition, rooted at node 1.

    A node's table has one row per coloring of its cluster (bit p of the
    row's mask colors the p-th smallest cluster vertex) and one column per
    black count, INF where a coloring cannot reach the count.  ``run``
    fills the tables, merging each child in one min-plus call over all
    colorings, and keeps each child's ``reduce_child`` result beside them;
    ``trace`` follows one root state down through the kept reductions,
    building the base row only for the coloring it follows.  The memory
    guard counts tables and reductions alike, at their allocated bytes.
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
        self.table: dict[int, np.ndarray] = {}
        self.red: dict[int, tuple[int, dict[int, np.ndarray]]] = {}
        self.used_bytes = 0

    def base(self, i: int, rows: slice) -> np.ndarray:
        """Node i's own table for the colorings ``rows`` of its cluster."""
        pos = self.pos[i]
        bits = _bits(len(pos))[rows]
        blacks = bits.sum(axis=1)
        cost = np.zeros(len(bits), dtype=np.int32)
        for u, v in self.cost_edges[i]:
            cost += bits[:, pos[u]] != bits[:, pos[v]]
        t = np.full((len(bits), min(len(pos), self.cap) + 1), INF, dtype=np.int32)
        fit = np.flatnonzero(blacks <= self.cap)
        t[fit, blacks[fit]] = cost[fit]
        return t

    def reduce_child(self, i: int, j: int) -> tuple[int, dict[int, np.ndarray], np.ndarray]:
        """Group the child table by the coloring of the shared vertices.

        Returns the mask of the shared positions in bag(i), the reduction
        and its rows gathered for every coloring of bag(i).  Keys of the
        reduction are masks over bag(i) positions restricted to shared
        vertices (each occurs); red[key][0, c] = best child entry with c
        black vertices counted below j but outside the shared set.
        """
        shared = [v for v in self.bag_list[j] if v in self.pos[i]]
        at_i = [self.pos[i][v] for v in shared]
        tab = self.table[j]
        width = tab.shape[1]
        # keys packed to 0..2^|shared| - 1; once sorted, each key's rows form one block
        keys = _pack(len(self.bag_list[j]), [self.pos[j][v] for v in shared])
        grouped = tab[np.argsort(keys, kind="stable")].reshape(1 << len(shared), -1, width)
        padded = np.full((len(grouped), width + len(shared)), INF, dtype=np.int32)
        padded[:, :width] = grouped.min(axis=1)
        # shift each key's row left by its number of shared black vertices
        shift = _bits(len(shared)).sum(axis=1)
        mat = padded[np.arange(len(padded))[:, None], np.arange(width) + shift[:, None]]
        key_of = _bits(len(shared)) @ (1 << np.array(at_i, dtype=np.int64))
        red = dict(zip(key_of.tolist(), mat[:, None]))
        shared_mask = sum(1 << p for p in at_i)
        return shared_mask, red, mat[_pack(len(self.bag_list[i]), at_i)]

    def _keep(self, arrays) -> None:
        self.used_bytes += sum(a.nbytes for a in arrays)
        if self.used_bytes > self.mem_limit:
            raise ResourceLimit(
                f"decomposition DP tables exceed memory guard "
                f"({self.used_bytes >> 20} MB); raise KSEC_MAX_MEM_MB"
            )

    def run(self) -> np.ndarray:
        for i in reversed(self.order):
            tab = self.base(i, slice(None))
            for j in self.children[i]:
                shared_mask, red, rows = self.reduce_child(i, j)
                self.red[j] = (shared_mask, red)
                self._keep(red.values())
                tab = _minplus(tab, rows, self.cap)
            self.table[i] = tab
            self._keep([tab])
        return self.table[self.order[0]]

    def trace(self, mask0: int, count: int) -> dict[int, int]:
        color: dict[int, int] = {}
        stack = [(self.order[0], mask0, count)]
        while stack:
            i, mask, c = stack.pop()
            for v, p in self.pos[i].items():
                color[v] = (mask >> p) & 1
            # the accumulation sequence of node i under this coloring
            accs = [self.base(i, slice(mask, mask + 1))]
            steps = []
            for j in self.children[i]:
                shared_mask, red = self.red[j]
                key = mask & shared_mask
                steps.append((j, key, red[key]))
                accs.append(_minplus(accs[-1], red[key], self.cap))
            for idx in range(len(steps) - 1, -1, -1):
                j, key, row = steps[idx]
                ct = _split(accs[idx][0], row[0], c, int(accs[idx + 1][0, c]))
                if ct is None:
                    raise InvariantViolation("decomposition DP trace failed on a count")
                stack.append((j, *self._find_child_state(i, j, key, int(row[0, ct]), ct)))
                c -= ct
            blacks = bin(mask).count("1")
            if c != blacks:
                raise InvariantViolation("decomposition DP trace ended on a bad count")
        return color

    def _find_child_state(self, i: int, j: int, key: int, want: int, ct: int) -> tuple[int, int]:
        shared = [v for v in self.bag_list[j] if v in self.pos[i]]
        for mask_j, t in enumerate(self.table[j]):
            k = 0
            s_count = 0
            for v in shared:
                if (mask_j >> self.pos[j][v]) & 1:
                    k |= 1 << self.pos[i][v]
                    s_count += 1
            if k != key:
                continue
            c_j = ct + s_count
            if c_j < len(t) and int(t[c_j]) == want:
                return mask_j, c_j
        raise InvariantViolation("decomposition DP trace failed on a cluster coloring")


def dp_min_size_cut_td(
    g: Graph,
    td: TreeDecomposition,
    m: int,
    max_width: int = 12,
    mem_limit_mb: int | None = None,
) -> tuple[Cut, int]:
    """Exact minimum-width cut with |B| = m, via DP over the decomposition.

    Exponential in the decomposition width; refuses widths above
    ``max_width``.  ``td`` is checked against ``g``
    (``NotATreeDecomposition`` with a witness).
    """
    n = g.n
    if not (0 <= m <= n):
        raise MOutOfRange(f"m={m} not in 0..{n}")
    if td.width > max_width:
        raise WidthTooLarge(f"decomposition width {td.width} exceeds limit {max_width}")
    require_decomposition(td, g, "dp_min_size_cut_td")

    tables = _TDTables(g, td, m, _mem_limit_bytes(mem_limit_mb))
    root_tabs = tables.run()
    best_mask, best = None, INF
    for mask, t in enumerate(root_tabs):
        if m < len(t) and int(t[m]) < best:
            best_mask, best = mask, int(t[m])
    if best_mask is None or best >= INF:
        raise InvariantViolation("no cut of the requested size exists")
    color = tables.trace(best_mask, m)
    black = {v for v, s in color.items() if s == 1}
    cut = Cut.from_black(g, black)
    if len(cut.black) != m or cut.width != best:
        raise InvariantViolation("decomposition DP reconstruction mismatch")
    return cut, best


# --- Brute force ------------------------------------------------------------

def balanced_sizes(n: int, k: int) -> list[int]:
    """Part sizes of a k-section: (n mod k) ceilings first, then floors."""
    q, r = divmod(n, k)
    return [q + 1] * r + [q] * (k - r)


def brute_min_ksection(g: Graph, k: int, limit: int = 14) -> tuple[KSection, int]:
    """Exact MinSec(k, g) by enumerating balanced partitions (n <= limit)."""
    if g.n > limit:
        raise TooLarge(f"n={g.n} exceeds enumeration limit {limit}")
    if k < 1:
        raise KOutOfRange(f"k={k} must be >= 1")
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
