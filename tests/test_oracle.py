import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import diam_star, path, star
from ksec import bounds, oracle
from ksec.errors import KsecError, MOutOfRange, ResourceLimit, TooLarge, WidthTooLarge
from ksec.graph import Graph, forest_summary, max_degree
from ksec.instances import (
    Xorshift64Star,
    adversarial_ternary_path,
    random_partial_ktree,
    random_tree_maxdeg,
)
from ksec.oracle import (
    balanced_sizes,
    brute_min_ksection,
    dp_min_size_cut_td,
    dp_min_size_cut_tree,
)
from ksec.treedec import TreeDecomposition, induced, tree_to_width1_td


def test_balanced_sizes():
    assert balanced_sizes(10, 3) == [4, 3, 3]
    assert balanced_sizes(9, 3) == [3, 3, 3]
    assert balanced_sizes(2, 3) == [1, 1, 0]


def _naive_minplus(a, b, cap):
    """out[r][c] = min over i+j=c of a[r][i]+b[r][j] by a double loop per row, capped at INF."""
    out_len = min(len(a[0]) + len(b[0]) - 1, cap + 1)
    out = []
    for ra, rb in zip(a, b):
        row = [oracle.INF] * out_len
        for i, x in enumerate(ra):
            for j, y in enumerate(rb):
                if i + j < out_len:
                    row[i + j] = min(row[i + j], x + y)
        out.append(row)
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minplus_matches_a_per_row_double_loop(data):
    rows = data.draw(st.integers(1, 16))
    entry = st.one_of(st.integers(0, 60), st.just(oracle.INF))

    def operand():
        width = data.draw(st.integers(1, 40))
        cells = data.draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                                   min_size=rows, max_size=rows))
        dead = data.draw(st.sets(st.integers(0, width - 1)))  # INF in every row
        return np.array([[oracle.INF if c in dead else x for c, x in enumerate(row)]
                         for row in cells], dtype=np.int32)

    a, b = operand(), operand()
    cap = data.draw(st.integers(0, 80))
    want = _naive_minplus(a.tolist(), b.tolist(), cap)
    for x, y in ((a, b), (b, a)):  # the kernel loops over the narrower operand
        out = oracle._minplus(x, y, cap)
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


def test_dp_tree_merges_each_vertex_once(monkeypatch):
    """The trace rebuilds the cut from kept accumulations; the DP runs once."""
    calls = []
    merge = oracle._TreeTables.accumulate

    def spy(self, v, rows=None):
        calls.append(v)
        return merge(self, v, rows)

    monkeypatch.setattr(oracle._TreeTables, "accumulate", spy)
    g = oracles.random_forest(Xorshift64Star(77), n_lo=40, n_hi=40, drop=5)
    assert len(forest_summary(g)) >= 3
    for m in (1, g.n // 2, g.n):
        calls.clear()
        dp_min_size_cut_tree(g, m)
        assert sorted(calls) == list(g.vertices())


def _count_minplus(monkeypatch):
    """Record the row count of every ``oracle._minplus`` call."""
    rows = []
    kernel = oracle._minplus

    def spy(a, b, cap):
        rows.append(a.shape[0])
        return kernel(a, b, cap)

    monkeypatch.setattr(oracle, "_minplus", spy)
    return rows


def test_dp_tree_merges_each_child_in_one_minplus_call(monkeypatch):
    """One kernel call per tree edge covers both colors; the knapsack adds one per component."""
    calls = _count_minplus(monkeypatch)
    g = oracles.random_forest(Xorshift64Star(78), n_lo=40, n_hi=40, drop=5)
    comps = len(forest_summary(g))
    assert comps >= 3
    for m in (1, g.n // 2, g.n):
        calls.clear()
        dp_min_size_cut_tree(g, m)
        assert sorted(calls) == [1] * comps + [2] * len(g.edges)


def _star_comb(hubs, leaves):
    """``hubs`` vertices on a path, each with ``leaves`` pendant leaves numbered after them."""
    edges = [(h, h + 1) for h in range(1, hubs)]
    for h in range(1, hubs + 1):
        edges += [(h, hubs + (h - 1) * leaves + i) for i in range(1, leaves + 1)]
    return Graph(hubs * (leaves + 1), edges)


def test_dp_tree_recomputes_only_the_accumulations_of_high_degree_vertices(monkeypatch):
    """A star comb keeps its tables (~0.2 MB) under a 1 MB guard, not all accumulations (~8 MB)."""
    calls = []
    merge = oracle._TreeTables.accumulate

    def spy(self, v, rows=None):
        calls.append(v)
        return merge(self, v, rows)

    monkeypatch.setattr(oracle._TreeTables, "accumulate", spy)
    comb = _star_comb(40, 40)
    cut, w = dp_min_size_cut_tree(comb, comb.n // 2, mem_limit_mb=1)
    assert (len(cut.black), w) == (comb.n // 2, 1)
    # the trace merges a hub again unless its subtree takes one color (then it paints
    # the subtree whole); every leaf keeps its accumulations
    def below(h):
        return {*range(h, 41), *(40 + (g - 1) * 40 + i for g in range(h, 41) for i in range(1, 41))}

    mixed = [h for h in range(1, 41) if 0 < len(below(h) & cut.black) < len(below(h))]
    assert mixed and sorted(calls) == sorted([*comb.vertices(), *mixed])


def test_a_malformed_memory_guard_is_named(monkeypatch):
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1.5")
    with pytest.raises(KsecError, match=r"KSEC_MAX_MEM_MB must be an integer \(MB\), got '1\.5'"):
        dp_min_size_cut_tree(path(4), 2)
    with pytest.raises(KsecError, match="KSEC_MAX_MEM_MB"):
        dp_min_size_cut_td(path(4), tree_to_width1_td(path(4)), 2)


def test_dp_tree_memory_guard_trips_only_on_the_tables_of_all_components():
    # one 600-vertex path keeps ~1.4 MB of tables; two of them in one forest exceed 2 MB together
    dp_min_size_cut_tree(path(600), 600, mem_limit_mb=2)
    two_paths = Graph(1200, [(i, i + 1) for i in range(1, 1200) if i != 600])
    with pytest.raises(ResourceLimit):
        dp_min_size_cut_tree(two_paths, 600, mem_limit_mb=2)
    # a 350-vertex caterpillar keeps 0.7 MB of tables and 0.7 MB of accumulations:
    # the accumulations are dropped, so a 1 MB guard does not trip
    spine = [(i, i + 1) for i in range(1, 350)]
    caterpillar = Graph(700, spine + [(i, 350 + i) for i in range(1, 351)])
    assert dp_min_size_cut_tree(caterpillar, 350, mem_limit_mb=1)[1] == 1


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
        td = tree_to_width1_td(g)
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


def test_dp_td_merges_each_child_in_one_minplus_call(monkeypatch):
    """One kernel call per decomposition tree edge, over every coloring of the parent's cluster."""
    calls = _count_minplus(monkeypatch)
    g, td = random_partial_ktree(60, 4, Xorshift64Star(33))
    tables = oracle._TDTables(g, td, g.n // 2, oracle._Kept(1 << 40))
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
    new = oracle._TDTables(g, td, m, oracle._Kept(1 << 40))
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


def test_dp_td_reduction_indices_take_the_smallest_dtype():
    """Keys stay below 2^|shared|: one byte each for partial 3-trees, two for wide clusters."""
    g, td = random_partial_ktree(120, 4, Xorshift64Star(32))
    wide = TreeDecomposition([set(range(1, 11)), set(range(2, 12))], [(1, 2)])
    for graph, dec, itemsize in ((g, td, 1), (Graph(11, [(2, 11)]), wide, 2)):
        tables = oracle._TDTables(graph, dec, graph.n // 2, oracle._Kept(1 << 40))
        tables.run()
        assert tables.red
        for mat, gather in tables.red.values():
            assert gather.dtype.kind == "u" and gather.dtype.itemsize == itemsize
            assert gather.max() < len(mat)


def test_dp_td_memory_guard_counts_the_kept_reductions():
    g, td = random_partial_ktree(120, 4, Xorshift64Star(32))
    m = g.n // 2
    kept = oracle._Kept(1 << 40)
    tables = oracle._TDTables(g, td, m, kept)
    tables.run()
    table_bytes = sum(t.nbytes for tabs in kept.table.values() for t in tabs)
    red_bytes = sum(a.nbytes for red in tables.red.values() for a in red)
    assert red_bytes > 0 and kept.need_bytes == table_bytes + red_bytes
    oracle._TDTables(g, td, m, oracle._Kept(table_bytes + red_bytes)).run()
    with pytest.raises(ResourceLimit):  # the tables alone would fit
        oracle._TDTables(g, td, m, oracle._Kept(table_bytes + red_bytes - 1)).run()


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
    tables = oracle._TDTables(g, td, m, kept)
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
