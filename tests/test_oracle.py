from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import TreeDPSpy, diam_star, path, star, star_comb
from ksec import bounds, oracle, treedec
from ksec.engine import ksection_td
from ksec.errors import KsecError, MOutOfRange, ResourceLimit, TooLarge, WidthTooLarge
from ksec.graph import Graph, component_orders, forest_summary, max_degree
from ksec.instances import (
    Xorshift64Star,
    adversarial_ternary_path,
    caterpillar_graph,
    random_partial_ktree,
    random_tree_maxdeg,
)
from ksec.oracle import (
    balanced_sizes,
    brute_min_ksection,
    dp_min_size_cut_td,
    dp_min_size_cut_tree,
)
from ksec.treedec import TreeDecomposition, induced


def test_balanced_sizes():
    assert balanced_sizes(10, 3) == [4, 3, 3]
    assert balanced_sizes(9, 3) == [3, 3, 3]
    assert balanced_sizes(2, 3) == [1, 1, 0]


def _naive_minplus(a, b, lo, hi):
    """out[r][c] = min over i+j=lo+c of a[r][i]+b[r][j], for lo+c <= hi, by a double loop per row."""
    out_len = min(len(a[0]) + len(b[0]) - 1, hi + 1) - lo
    out = []
    for ra, rb in zip(a, b):
        row = [oracle.INF] * out_len
        for i, x in enumerate(ra):
            for j, y in enumerate(rb):
                if 0 <= i + j - lo < out_len:
                    row[i + j - lo] = min(row[i + j - lo], x + y)
        out.append(row)
    return out


# (rows, both widths) on each side of ``oracle._strided``: small merges of one or two rows,
# with wide or narrow operands, and of up to 16 rows; too much work for two rows and for
# many; more than 16 rows
_SHAPES = {
    "strided": ((1, 2), (5, 40), (5, 40)),
    "narrow": ((1, 2), (1, 4), (1, 60)),
    "many rows": ((3, 16), (1, 40), (1, 40)),
    "large": ((2, 2), (200, 260), (200, 260)),
    "many rows, large": ((6, 16), (100, 120), (100, 120)),
    "too many rows": ((17, 64), (1, 12), (1, 12)),
}
_LOOPED = ("large", "many rows, large", "too many rows")
_FULL = ("large", "many rows, large")  # over the 2^16-sum cap only with the whole output


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_SHAPES)), st.data())
def test_minplus_matches_a_per_row_double_loop(shape, data):
    rows_range, *width_ranges = _SHAPES[shape]
    rows = data.draw(st.integers(*rows_range))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
    inf_share = data.draw(st.sampled_from([0.0, 0.3, 0.9]))

    def operand(width):
        cells = rng.integers(0, 61, size=(rows, width), dtype=np.int32)
        cells[rng.random((rows, width)) < inf_share] = oracle.INF
        cells[:, rng.random(width) < inf_share / 3] = oracle.INF  # INF in every row
        return cells

    a, b = (operand(data.draw(st.integers(*w))) for w in width_ranges)
    full = a.shape[1] + b.shape[1] - 2  # the last index sum
    hi = full if shape in _FULL else data.draw(st.integers(0, full + 5))
    lo = data.draw(st.integers(0, min(full, hi, 50)))
    out_len = min(full, hi) + 1 - lo
    strided = oracle._strided(rows, out_len, min(a.shape[1], b.shape[1]))
    assert strided == (shape not in _LOOPED)
    want = _naive_minplus(a.tolist(), b.tolist(), lo, hi)
    for x, y in ((a, b), (b, a)):  # the kernel loops over the narrower operand
        out = oracle._minplus(x, y, lo, hi)
        assert out.dtype == np.int32 and out.tolist() == want


def test_brute_min_ksection_examples():
    assert brute_min_ksection(path(9), 3)[1] == 2
    assert brute_min_ksection(star(6), 2)[1] == 3
    with pytest.raises(TooLarge):
        brute_min_ksection(path(15), 2)


def test_brute_min_ksection_adversarial_unique_bisection():
    g = adversarial_ternary_path(1)  # ternary part 1..4, path part 5..8
    sec, width = brute_min_ksection(g, 2)
    assert width == 1
    assert frozenset({5, 6, 7, 8}) in {frozenset(p) for p in sec.parts}


def test_brute_matches_independent_enumeration():
    rng = Xorshift64Star(123)
    for _ in range(25):
        g = random_tree_maxdeg(rng.randint(2, 9), 4, rng)
        for k in (2, 3):
            assert brute_min_ksection(g, k)[1] == oracles.min_ksection_width(g, k)


def test_brute_min_ksection_lower_bound_on_connected():
    rng = Xorshift64Star(321)
    for _ in range(20):
        g = random_tree_maxdeg(rng.randint(2, 10), 5, rng)
        for k in range(2, min(5, g.n) + 1):
            width = brute_min_ksection(g, k)[1]
            assert width >= k - 1
    assert brute_min_ksection(path(8), 4)[1] == 3  # equality on paths


def test_dp_tree_examples():
    g = path(9)
    for m in range(1, 9):
        assert dp_min_size_cut_tree(g, m)[1] == 1
    assert dp_min_size_cut_tree(g, 9)[1] == 0
    assert dp_min_size_cut_tree(g, 0)[1] == 0
    assert dp_min_size_cut_tree(star(7), 3)[1] == 3
    with pytest.raises(MOutOfRange):
        dp_min_size_cut_tree(g, 10)


def test_dp_tree_on_forests():
    g = Graph(7, [(1, 2), (2, 3), (5, 6), (6, 7)])
    for m in range(8):
        cut, w = dp_min_size_cut_tree(g, m)
        assert len(cut.black) == m
        assert w == oracles.min_cut_over_subsets(g, m)


def test_dp_tree_matches_subset_enumeration():
    rng = Xorshift64Star(999)
    for _ in range(30):
        g = random_tree_maxdeg(rng.randint(2, 10), 5, rng)
        for m in range(g.n + 1):
            cut, w = dp_min_size_cut_tree(g, m)
            assert len(cut.black) == m
            assert w == oracles.min_cut_over_subsets(g, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60))
def test_dp_tree_on_random_forests_matches_subset_enumeration(seed):
    g = oracles.random_forest(Xorshift64Star(seed), n_lo=2, n_hi=12, drop=4)
    assume(len(forest_summary(g)) >= 2)
    for m in range(g.n + 1):
        cut, w = dp_min_size_cut_tree(g, m)
        assert len(cut.black) == m
        assert cut.width == w == oracles.min_cut_over_subsets(g, m)


def _union(*gs):
    """The disjoint union of ``gs``, each numbered after the ones before it."""
    edges, n = [], 0
    for g in gs:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return Graph(n, edges)


def _relabel(g, seed):
    """``g`` with its vertices relabelled by a permutation drawn from ``seed``."""
    perm = [0, *Xorshift64Star(seed).sample(list(range(1, g.n + 1)), g.n)]
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _assert_full_width_cut(g, ms):
    """The tree DP traces the black set and width of the full-width reference for each m."""
    rooted = component_orders(g)
    for m in ms:
        black, w = oracle._dp_cut_tree(g.adj, m, rooted)
        ref, ref_w = oracles.dp_min_size_cut_tree_full_width(g, m)
        assert (frozenset(black), w) == (ref.black, ref_w), m


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 60), st.data())
def test_dp_tree_traces_the_cut_of_the_full_width_dp_on_random_forests(seed, data):
    g = oracles.random_forest(Xorshift64Star(seed), n_lo=1, n_hi=80, drop=6)
    _assert_full_width_cut(g, sorted({0, 1, g.n - 1, g.n, data.draw(st.integers(0, g.n))}))


@pytest.mark.parametrize(
    "g",
    [star_comb(6, 5), star_comb(12, 12), caterpillar_graph(120), caterpillar_graph(121),
     *(adversarial_ternary_path(h) for h in range(1, 5)),
     _union(star_comb(6, 5), Graph(1, []), star_comb(6, 5), star_comb(6, 5), Graph(2, []),
            path(20), star_comb(6, 5))],
    ids=["comb-6x5", "comb-12x12", "caterpillar-120", "caterpillar-121",
         *(f"adversarial-{h}" for h in range(1, 5)), "four-combs-forest"],
)
def test_dp_tree_traces_the_cut_of_the_full_width_dp_on_structured_trees(g):
    _assert_full_width_cut(g, sorted({*range(0, g.n + 1, max(1, g.n // 40)), g.n - 1, g.n}))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["forest", "comb", "caterpillar"]), st.integers(0, 2 ** 60), st.data())
def test_dp_tree_traces_the_cut_of_the_full_width_dp_with_siblings_in_shuffled_order(kind, seed, data):
    """Identical and leaf siblings in any id order: one table per unordered class changes no cut."""
    rng = Xorshift64Star(seed)
    if kind == "forest":
        g = oracles.random_forest(rng, n_lo=1, n_hi=80, drop=6)
    elif kind == "comb":
        g = star_comb(rng.randint(1, 8), rng.randint(1, 8))
    else:
        g = caterpillar_graph(rng.randint(1, 90))
    g = _relabel(g, seed)
    _assert_full_width_cut(g, sorted({1, g.n // 2, g.n - 1, data.draw(st.integers(0, g.n))}))


def _mixed(g, black):
    """Vertices whose subtree holds black and white vertices: the ones the trace splits."""
    size = oracles.subtree_totals(g, lambda v: 1)
    blacks = oracles.subtree_totals(g, lambda v: int(v in black))
    return {v for v in size if 0 < blacks[v] < size[v]}


def test_dp_tree_merges_each_class_of_identical_subtrees_once(monkeypatch):
    """One table per class of identical unordered subtrees, across the whole forest.

    Copies of a star comb, relabelled, list a hub's leaf and non-leaf
    children in different orders, but share one table.  No vertex but the
    virtual root keeps accumulations, so the trace recomputes the followed
    row of every vertex it splits, and of no other.
    """
    spy = TreeDPSpy(monkeypatch)
    forest = oracles.random_forest(Xorshift64Star(77), n_lo=40, n_hi=40, drop=5)
    g = _relabel(_union(forest, *[star_comb(2, 3)] * 4), 77)
    assert len(forest_summary(g)) >= 7
    cls = oracles.subtree_classes(g)
    assert len(set(cls.values())) < len(set(oracles.subtree_classes(g, ordered=True).values()))
    assert len(set(cls.values())) < g.n - 30  # leaves and small shapes repeat
    rooted = component_orders(g)
    for m in (1, g.n // 2, g.n):
        spy.reset()
        black, _ = oracle._dp_cut_tree(g.adj, m, rooted)
        assert len(spy.tables()) == len(set(cls.values()))
        assert list(spy.dp.kept.accs) == [0]
        assert sorted(spy.traced) == sorted(_mixed(g, frozenset(black)))


def test_dp_tree_merges_each_child_in_one_minplus_call(monkeypatch):
    """One kernel call per child, leaves included, for each subtree class, covers both colors.

    The virtual root adds a one-row call per component, and a row the
    trace recomputes one per child of its vertex.
    """
    spy = TreeDPSpy(monkeypatch)
    g = oracles.random_forest(Xorshift64Star(78), n_lo=40, n_hi=40, drop=5)
    comps = len(forest_summary(g))
    assert comps >= 3
    cls = oracles.subtree_classes(g)
    merges = oracles.inner_merges(cls)
    assert merges < len(g.edges)
    rooted = component_orders(g)
    for m in (1, g.n // 2, g.n):
        spy.reset()
        oracle._dp_cut_tree(g.adj, m, rooted)
        assert spy.rows(False) == [1] * comps + [2] * merges
        assert spy.rows(True) == [1] * sum(len(cls[v]) for v in spy.traced)
        assert bool(spy.traced) == (m == g.n // 2)


def test_dp_tree_trace_reads_the_virtual_roots_kept_accumulations(monkeypatch):
    """The trace splits the root's count over the components without merging its row again."""
    spy = TreeDPSpy(monkeypatch)
    g = oracles.random_forest(Xorshift64Star(78), n_lo=40, n_hi=40, drop=5)
    assert len(forest_summary(g)) == 3
    rooted = component_orders(g)
    for m in range(g.n + 1):
        spy.reset()
        oracle._dp_cut_tree(g.adj, m, rooted)
        assert not [v for rows, tracing, v in spy.merges if tracing and v == 0], m
        assert len(spy.dp.kept.accs[0]) == 4  # the root's own row, then one per component


def test_dp_tree_merges_each_child_of_a_star_comb_under_a_1mb_guard(monkeypatch):
    """A star comb of 40 hubs with 40 leaves each merges once per child of each hub.

    Each hub is its own class, and all leaves are one: a hub merges its
    40 leaves, and each hub but the last also the next hub.  The tables
    (~0.2 MB) stay under a 1 MB guard; the trace recomputes a hub's row
    unless its subtree takes one color (then it paints the subtree whole),
    and never splits a leaf.
    """
    spy = TreeDPSpy(monkeypatch)
    comb = star_comb(40, 40)
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1")
    black, w = oracle._dp_cut_tree(comb.adj, comb.n // 2, component_orders(comb))
    assert (len(black), w) == (comb.n // 2, 1)
    cls = oracles.subtree_classes(comb)
    assert len(set(cls.values())) == len(spy.tables()) == 41
    assert spy.rows(False) == [1] + [2] * (40 * 40 + 39)
    assert list(spy.dp.kept.accs) == [0] and spy.dp.kept.need_bytes < 1 << 18
    mixed = _mixed(comb, frozenset(black))
    assert mixed and sorted(spy.traced) == sorted(mixed)


def test_a_malformed_memory_guard_is_named(monkeypatch):
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1.5")
    with pytest.raises(KsecError, match=r"KSEC_MAX_MEM_MB must be an integer \(MB\), got '1\.5'"):
        dp_min_size_cut_tree(path(4), 2)
    with pytest.raises(KsecError, match="KSEC_MAX_MEM_MB"):
        dp_min_size_cut_td(path(4), oracles.tree_to_width1_td(path(4)), 2)


def test_dp_tree_memory_guard_trips_only_on_the_tables_of_all_components(monkeypatch):
    # with n = 1200 and m = 600 a 600-vertex path keeps ~1.4 MB of tables: two identical
    # paths share them and fit under 2 MB, but a path beside a path ending in a fork does not
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "2")
    two_paths = Graph(1200, [(i, i + 1) for i in range(1, 1200) if i != 600])
    assert oracle._dp_cut_tree(two_paths.adj, 600, component_orders(two_paths))[1] == 0
    path_and_fork = Graph(1200, [(i, i + 1) for i in range(1, 1199) if i != 600] + [(1198, 1200)])
    with pytest.raises(ResourceLimit):
        oracle._dp_cut_tree(path_and_fork.adj, 600, component_orders(path_and_fork))
    # with m = 400 a caterpillar on a 400-vertex spine keeps 0.61 MB of tables and no
    # accumulations below the virtual root, so a 1 MB guard does not trip
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1")
    spine = [(i, i + 1) for i in range(1, 400)]
    caterpillar = Graph(800, spine + [(i, 400 + i) for i in range(1, 401)])
    assert oracle._dp_cut_tree(caterpillar.adj, 400, component_orders(caterpillar))[1] == 1


def test_dp_tree_meets_existence_bound():
    rng = Xorshift64Star(1000003)
    for _ in range(1000):
        g = oracles.random_forest(rng, n_lo=2, n_hi=40)
        d = diam_star(g)
        delta = max_degree(g)
        m = rng.randint(1, g.n)
        _, w = dp_min_size_cut_tree(g, m)
        assert w <= bounds.size_cut_bound(d, delta) if delta else w == 0
        if delta:
            assert bounds.size_cut_bound_improved_holds(w, d, delta)


def test_dp_td_path_decomposition():
    g = path(8)
    td = TreeDecomposition([{i, i + 1} for i in range(1, 8)], [(i, i + 1) for i in range(1, 7)])
    for m in range(1, 8):
        assert dp_min_size_cut_td(g, td, m)[1] == 1


def test_dp_td_agrees_with_tree_dp():
    rng = Xorshift64Star(246)
    for _ in range(25):
        g = random_tree_maxdeg(rng.randint(2, 16), 4, rng)
        td = oracles.tree_to_width1_td(g)
        for m in range(g.n + 1):
            assert dp_min_size_cut_td(g, td, m)[1] == dp_min_size_cut_tree(g, m)[1]


def test_dp_td_partial_two_tree_matches_subsets():
    rng = Xorshift64Star(135)
    g, td = random_partial_ktree(16, 3, rng)
    for m in range(17):
        cut, w = dp_min_size_cut_td(g, td, m)
        assert len(cut.black) == m
        assert cut.width == w
        assert w == oracles.min_cut_over_subsets(g, m)


def test_dp_td_reduces_each_child_once(monkeypatch):
    """The trace reads the reductions ``run`` kept; the DP runs once."""
    calls = []
    reduce = oracle._TDTables.reduce_child

    def spy(self, i, j):
        calls.append((i, j))
        return reduce(self, i, j)

    monkeypatch.setattr(oracle._TDTables, "reduce_child", spy)
    g, td = random_partial_ktree(60, 4, Xorshift64Star(31))
    for m in (1, g.n // 2, g.n):
        calls.clear()
        dp_min_size_cut_td(g, td, m)
        assert sorted(tuple(sorted(e)) for e in calls) == sorted(td.tree_edges)


def _homes(g, td):
    """Each edge of g, ascending, with its home, from the homing pass of the DP's check.

    Taken from the pass itself, not from ``require_decomposition``: on
    the peel's induced clusters, T1 fails by design.
    """
    return treedec._checked(td, g)[1]


def test_dp_td_homes_each_edge_once(monkeypatch):
    """The DP's one check homes each edge, and the tables take its homes: one pass per DP."""
    counts = Counter()
    for name in ("occurrences", "edge_home"):
        real = getattr(treedec, name)

        def spy(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        for mod in (treedec, oracle):  # every module that binds it
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy)
    per_call = []
    real_dp = oracle.dp_min_size_cut_td

    def dp(g, *args):
        counts.clear()
        out = real_dp(g, *args)
        per_call.append((counts["occurrences"], counts["edge_home"], g.num_edges))
        return out

    monkeypatch.setattr(oracle, "dp_min_size_cut_td", dp)
    g, td = random_partial_ktree(200, 4, Xorshift64Star(36))
    oracle.dp_min_size_cut_td(g, td, g.n // 2)
    ksection_td(*random_partial_ktree(400, 4, Xorshift64Star(2024)), 4)  # its inner DPs
    assert len(per_call) > 1
    assert per_call == [(1, edges, edges) for _, _, edges in per_call]


def _count_minplus(monkeypatch):
    """Record the row count of every ``oracle._minplus`` call."""
    rows = []
    kernel = oracle._minplus

    def spy(a, b, lo, hi):
        rows.append(a.shape[0])
        return kernel(a, b, lo, hi)

    monkeypatch.setattr(oracle, "_minplus", spy)
    return rows


def test_dp_td_merges_each_child_in_one_minplus_call(monkeypatch):
    """One kernel call per decomposition tree edge, over every coloring of the parent's cluster."""
    calls = _count_minplus(monkeypatch)
    g, td = random_partial_ktree(60, 4, Xorshift64Star(33))
    tables = oracle._TDTables(_homes(g, td), td, g.n // 2, oracle._Kept(1 << 40))
    tables.run()
    want = [1 << len(td.bag(tables.parent[j])) for j in td.nodes() if j != tables.order[0]]
    assert sorted(calls) == sorted(want) and len(calls) == len(td.tree_edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4), st.booleans())
def test_dp_td_padded_tables_extend_the_per_coloring_rows(seed, n, t, half):
    """Each row equals the per-coloring row where that is defined and is INF beyond it."""
    rng = Xorshift64Star(seed)
    g, td = random_partial_ktree(n, t, rng)
    if half:  # the peel loop's shape: induced clusters, many of them empty
        keep = set(rng.sample(list(range(1, n + 1)), n // 2))
        td = induced(td, keep)
        g = Graph(n, [(u, v) for u, v in g.edges if u in keep and v in keep])
    m = rng.randint(0, n)
    new = oracle._TDTables(_homes(g, td), td, m, oracle._Kept(1 << 40))
    new.run()
    old = oracles.TDTablesPerColoring(g, td, m, mem_limit=1 << 40)
    old.run()
    for i in td.nodes():
        assert len(new.kept.table[i]) == len(old.table[i])
        for row, ref in zip(new.kept.table[i], old.table[i]):
            assert row[: len(ref)].tolist() == ref.tolist()
            assert (row[len(ref):] == oracle.INF).all()
    assert new.red.keys() == old.red.keys()
    for j, (shared_mask, red) in old.red.items():
        # each coloring of the parent's cluster reads its row through its shared colors
        mat, gather = new.red[j]
        masks = np.arange(len(gather))
        assert (gather[masks & shared_mask] == gather).all() and len(mat) == len(red)
        for key, arr in red.items():
            assert mat[gather[key]].tolist() == arr.tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4), st.booleans(),
       st.booleans())
def test_dp_td_shared_plans_and_own_rows_equal_the_per_node_ones(seed, n, t, half, small):
    """Every reduction and own row built once per shape equals the one built per node.

    m of 0 to 2 makes tables narrower than a key's shift.
    """
    rng = Xorshift64Star(seed)
    g, td = random_partial_ktree(n, t, rng)
    if half:  # the peel loop's shape: induced clusters, many of them empty
        keep = set(rng.sample(list(range(1, n + 1)), n // 2))
        td = induced(td, keep)
        g = Graph(n, [(u, v) for u, v in g.edges if u in keep and v in keep])
    m = rng.randint(0, min(2, n)) if small else rng.randint(0, n)
    new = oracle._TDTables(_homes(g, td), td, m, oracle._Kept(1 << 40))
    new.run()
    old = oracles.TDReductionsPerNode(g, td, m, new.kept.table)
    for i in td.nodes():
        own, want = new.own(i, None), old.own(i, None)
        assert own.dtype == want.dtype and np.array_equal(own, want)
        for s in {0, len(want) // 2, len(want) - 1}:  # the rows a trace recomputes
            assert np.array_equal(new.own(i, slice(s, s + 1)), old.own(i, slice(s, s + 1)))
    assert len(new.red) == len(td.tree_edges)
    for j, (mat, gather) in new.red.items():
        want_mat, want_gather = old.reduce_child(new.parent[j], j)
        assert mat.dtype == want_mat.dtype and np.array_equal(mat, want_mat)
        assert gather.dtype == want_gather.dtype and np.array_equal(gather, want_gather)


def _shapes(g, td, parent):
    """The distinct reduction shapes (cluster sizes and shared positions) and own-row patterns."""
    per_node = oracles.TDReductionsPerNode(g, td, 0, {})
    shapes = set()
    for j in td.nodes():
        i = parent[j]
        if i:
            at_j, at_i = per_node._shared(i, j)
            shapes.add((len(td.bag(j)), tuple(at_j), len(td.bag(i)), tuple(at_i)))
    patterns = {
        (len(td.bag(i)), tuple(sorted((pos[u], pos[v]) for u, v in per_node.cost_edges[i])))
        for i, pos in per_node.pos.items()
    }
    return shapes, patterns


def test_dp_td_builds_one_plan_per_shape_and_one_own_table_per_pattern(monkeypatch):
    """Nodes of one shape share their index work; a partial 3-tree has far fewer shapes than nodes."""
    built = {"plan": 0, "own": 0}

    def counted(name, build):
        def spy(*args):
            built[name] += 1
            return build(*args)
        return spy

    monkeypatch.setattr(oracle, "_reduction_plan", counted("plan", oracle._reduction_plan))
    monkeypatch.setattr(oracle, "_own_table", counted("own", oracle._own_table))
    g, td = random_partial_ktree(400, 4, Xorshift64Star(34))
    m = g.n // 3
    tables = oracle._TDTables(_homes(g, td), td, m, oracle._Kept(1 << 40))
    tables.cut(g.adj, m)
    shapes, patterns = _shapes(g, td, tables.parent)
    assert built["plan"] == len(tables.plans) == len(shapes) < len(td.tree_edges)
    assert built["own"] == len(tables.owns) == len(patterns) < td.num_nodes
    assert all(not t.flags.writeable for t in tables.owns.values())
    for i in td.nodes():  # a traced row is a view of its node's shared table
        assert np.shares_memory(tables.own(i, slice(0, 1)), tables.owns[tables.own_key[i]])
    for order, _, place, gather in tables.plans.values():
        assert not (order.flags.writeable or place.flags.writeable or gather.flags.writeable)


def _module_caches():
    """The size of every cache and container at module level in ``oracle``."""
    sizes = {}
    for name, obj in vars(oracle).items():
        if hasattr(obj, "cache_info"):
            sizes[name] = obj.cache_info().currsize
        elif isinstance(obj, (dict, list, set)):
            sizes[name] = len(obj)
    return sizes


def test_dp_td_memos_live_and_die_with_one_call():
    """Only ``_bits`` grows across DP calls; the plans and own tables belong to one call."""
    dp_min_size_cut_td(*random_partial_ktree(30, 3, Xorshift64Star(35))[:2], 10)
    before = _module_caches()
    for n, t in ((60, 4), (40, 6), (80, 2)):
        g, td = random_partial_ktree(n, t, Xorshift64Star(n + t))
        dp_min_size_cut_td(g, td, n // 2)
    after = _module_caches()
    del before["_bits"], after["_bits"]
    assert after == before


def test_dp_td_reduction_indices_take_the_smallest_dtype():
    """Keys stay below 2^|shared|: one byte each for partial 3-trees, two for wide clusters."""
    g, td = random_partial_ktree(120, 4, Xorshift64Star(32))
    wide = TreeDecomposition([set(range(1, 11)), set(range(2, 12))], [(1, 2)])
    for graph, dec, itemsize in ((g, td, 1), (Graph(11, [(2, 11)]), wide, 2)):
        tables = oracle._TDTables(_homes(graph, dec), dec, graph.n // 2, oracle._Kept(1 << 40))
        tables.run()
        assert tables.red
        for mat, gather in tables.red.values():
            assert gather.dtype.kind == "u" and gather.dtype.itemsize == itemsize
            assert gather.max() < len(mat)


def test_dp_td_memory_guard_counts_the_kept_reductions():
    g, td = random_partial_ktree(120, 4, Xorshift64Star(32))
    m = g.n // 2
    kept = oracle._Kept(1 << 40)
    tables = oracle._TDTables(_homes(g, td), td, m, kept)
    tables.run()
    table_bytes = sum(t.nbytes for tabs in kept.table.values() for t in tabs)
    red_bytes = sum(a.nbytes for red in tables.red.values() for a in red)
    assert red_bytes > 0 and kept.need_bytes == table_bytes + red_bytes
    oracle._TDTables(_homes(g, td), td, m, oracle._Kept(table_bytes + red_bytes)).run()
    with pytest.raises(ResourceLimit):  # the tables alone would fit
        oracle._TDTables(_homes(g, td), td, m, oracle._Kept(table_bytes + red_bytes - 1)).run()


def test_dp_td_accumulates_each_node_once(monkeypatch):
    """Under a roomy guard the trace reads the kept accumulations.

    A node recomputes one row when traced only where its accumulations
    take more than KEEP_RATIO times its table, as in the tree DP; with
    m = 1 all rows are two counts wide, so a node with five children does.
    """
    full, single, heavy = [], [], set()
    merge = oracle._TDTables.accumulate

    def spy(self, i, rows=None):
        accs = merge(self, i, rows)
        if rows is not None:
            assert rows.stop - rows.start == 1
            single.append(i)
        else:
            full.append(i)
            if sum(a.nbytes for a in accs[:-1]) > oracle.KEEP_RATIO * accs[-1].nbytes:
                heavy.add(i)
        return accs

    monkeypatch.setattr(oracle._TDTables, "accumulate", spy)
    g, td = random_partial_ktree(60, 4, Xorshift64Star(31))
    for m in (1, g.n // 2, g.n):
        full.clear(), single.clear(), heavy.clear()
        dp_min_size_cut_td(g, td, m)
        assert sorted(full) == sorted(td.nodes())
        assert sorted(single) == sorted(heavy)
        assert bool(heavy) == (m == 1)


def _td_trace(g, td, m, kept):
    """Width and black set the decomposition DP traces from its best root coloring."""
    tables = oracle._TDTables(_homes(g, td), td, m, kept)
    root = tables.run()
    color = {}
    tables.trace(int(np.argmin(root[:, m])), m, color)
    return int(root[:, m].min()), {v for v, s in color.items() if s}


def test_dp_td_trace_recomputes_single_rows_under_a_guard_for_tables_and_reductions(monkeypatch):
    g, td = random_partial_ktree(120, 4, Xorshift64Star(32))
    m = g.n // 2
    roomy = oracle._Kept(1 << 40)
    want = _td_trace(g, td, m, roomy)
    assert want[1] == dp_min_size_cut_td(g, td, m)[0].black
    recomputed = []
    merge = oracle._TDTables.accumulate

    def spy(self, i, rows=None):
        if rows is not None:
            recomputed.append(rows.stop - rows.start)
        return merge(self, i, rows)

    monkeypatch.setattr(oracle._TDTables, "accumulate", spy)
    assert _td_trace(g, td, m, oracle._Kept(roomy.need_bytes)) == want
    assert recomputed and set(recomputed) == {1}


def test_dp_td_width_guard():
    g = Graph(14, [])
    td = TreeDecomposition([set(range(1, 15))], [])
    with pytest.raises(WidthTooLarge):
        dp_min_size_cut_td(g, td, 3)
