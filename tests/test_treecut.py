import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import TreeDPSpy, diam_star, path, star
from ksec import bounds, oracle, treecut
from ksec.errors import InvariantViolation, MOutOfRange
from ksec.graph import (
    Graph,
    _forest_summary,
    boundary_width,
    forest_summary,
    induced_sorted,
    max_degree,
)
from ksec.instances import (
    Xorshift64Star,
    adversarial_ternary_path,
    caterpillar_graph,
    perfect_dary_tree,
    random_tree_maxdeg,
    spider_graph,
)
from ksec.oracle import dp_min_size_cut_tree
from ksec.treecut import approximate_cut, diameter_preserving_cut


def check_approx(g, cut, v, m):
    assert m <= 2 * len(cut.black) and len(cut.black) <= m
    assert cut.width <= max_degree(g)
    assert v not in cut.black


def test_approximate_cut_path_contract():
    g = path(8)
    cut = approximate_cut(g, 1, 4)
    check_approx(g, cut, 1, 4)
    assert 2 <= len(cut.black) <= 4


def test_approximate_cut_star_center():
    g = star(7)
    cut = approximate_cut(g, 1, 4)
    check_approx(g, cut, 1, 4)
    assert cut.black <= set(range(2, 8))
    assert cut.width == len(cut.black)


def test_approximate_cut_max_m_takes_everything_but_v():
    for g, v in ((path(6), 3), (star(5), 1), (caterpillar_graph(9), 2)):
        m = 2 * g.n - 2
        cut = approximate_cut(g, v, m)
        assert cut.black == frozenset(set(g.vertices()) - {v})
        assert cut.width == len(g.adj[v])


def test_approximate_cut_m_out_of_range():
    with pytest.raises(MOutOfRange):
        approximate_cut(path(4), 1, 0)
    with pytest.raises(MOutOfRange):
        approximate_cut(path(4), 1, 7)


def test_approximate_cut_random_instances():
    rng = Xorshift64Star(7171)
    for _ in range(300):
        n = rng.randint(2, 60)
        g = random_tree_maxdeg(n, rng.randint(2, 6), rng)
        v = rng.randint(1, n)
        m = rng.randint(1, 2 * n - 2)
        check_approx(g, approximate_cut(g, v, m), v, m)


def test_approximate_cut_takes_the_black_set_of_a_bfs_rooted_cut():
    """The cut read off the labeling's post-order equals the one a BFS of the tree gives."""
    rng = Xorshift64Star(7272)
    for _ in range(120):
        n = rng.randint(2, 50)
        g = random_tree_maxdeg(n, rng.randint(2, 6), rng)
        v = rng.randint(1, n)
        for m in range(1, 2 * n - 1):
            assert approximate_cut(g, v, m).black == oracles.approximate_black(g, v, m)


def test_the_subtree_cut_is_the_approximate_cut_of_t_z_induced():
    """Case 2b and 3 cut T_z in the forest's ids, as an approximate cut of G[T_z] would."""
    rng = Xorshift64Star(7373)
    seen = 0
    for i in range(150):
        g = (random_tree_maxdeg(rng.randint(4, 80), rng.randint(3, 5), rng) if i % 2
             else oracles.random_forest(rng, n_lo=4, n_hi=80))
        for m in range(1, g.n):
            _, trace = diameter_preserving_cut(g, m)
            if trace.b_z is None:
                continue
            seen += 1
            members = trace.b_z | trace.w_z
            old_of = sorted(members)
            sub = induced_sorted(g, old_of)
            local = oracles.approximate_black(sub, old_of.index(trace.z) + 1, trace.m_tilde)
            assert trace.b_z == {old_of[u - 1] for u in local}
    assert seen > 1000


# The diameter-preserving cut's inner exact cut is the DP's optimum: it
# must meet the size-cut bounds, since cuts within them exist.
def test_exact_cut_bounded_path_width_one():
    g = path(11)
    for m in range(1, 11):
        cut, _ = dp_min_size_cut_tree(g, m)
        assert len(cut.black) == m
        assert cut.width <= 1
    assert dp_min_size_cut_tree(g, 11)[0].width == 0


def test_exact_cut_bounded_star_matches_subset_enumeration():
    g = star(7)
    cut, _ = dp_min_size_cut_tree(g, 3)
    assert cut.width == oracles.min_cut_over_subsets(g, 3) == 3
    assert cut.width <= bounds.size_cut_bound(diam_star(g), max_degree(g))


def test_exact_cut_bounded_random_trees_all_m():
    rng = Xorshift64Star(333)
    for _ in range(12):
        g = random_tree_maxdeg(12, 4, rng)
        d = diam_star(g)
        delta = max_degree(g)
        for m in range(1, 13):
            cut, _ = dp_min_size_cut_tree(g, m)
            assert len(cut.black) == m
            assert cut.width == oracles.min_cut_over_subsets(g, m)
            assert cut.width <= bounds.size_cut_bound(d, delta)
            assert bounds.size_cut_bound_improved_holds(cut.width, d, delta)


def check_diam_cut(g, m, cut):
    d = diam_star(g)
    delta = max_degree(g)
    assert len(cut.black) == m
    rest = induced_sorted(g, [u for u in g.vertices() if u not in cut.black])
    assert diam_star(rest) >= d
    assert cut.width <= bounds.tree_cut_bound(d, delta)
    if delta:
        assert bounds.tree_cut_bound_improved_holds(cut.width, d, delta)


def chain(g):
    """The forest's longest paths in component order, the path its cut labels along."""
    return [v for c in forest_summary(g) for v in c.path]


def test_diameter_preserving_cut_path():
    g = path(10)
    cut, trace = diameter_preserving_cut(g, 3)
    assert trace.case_tag == "Case1"
    assert cut.black == frozenset(chain(g)[:3])
    assert cut.width <= 1
    check_diam_cut(g, 3, cut)
    rest = induced_sorted(g, [u for u in g.vertices() if u not in cut.black])
    assert diam_star(rest) == 1


def test_diameter_preserving_cut_two_paths():
    g = Graph(9, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)])
    for m in range(1, 9):
        cut, trace = diameter_preserving_cut(g, m)
        assert trace.case_tag == "Case1"
        assert cut.black == frozenset(chain(g)[:m])
        assert cut.width <= 2
        check_diam_cut(g, m, cut)
        rest = induced_sorted(g, [u for u in g.vertices() if u not in cut.black])
        assert diam_star(rest) == 1
    # a forest of paths lies wholly on its chain: every cut is the chain's prefix
    rng = Xorshift64Star(2024)
    for _ in range(60):
        g = oracles.random_forest(rng, n_lo=2, n_hi=40, max_degree=2, drop=12)
        prefix = chain(g)
        for m in range(1, g.n):
            cut, trace = diameter_preserving_cut(g, m)
            assert trace.case_tag == "Case1" and trace.anchor == 1
            assert cut.black == frozenset(prefix[:m])


def test_diameter_preserving_cut_caterpillar16_case():
    g = caterpillar_graph(16)
    cut, trace = diameter_preserving_cut(g, 5)
    check_diam_cut(g, 5, cut)
    # hand classification: anchor label 1 lies on the path and label 6 is a
    # path vertex again, so the interval itself is the black set
    assert trace.case_tag == "Case1"
    assert cut.black == frozenset({1, 2, 9, 10, 11})
    assert cut.width == 2
    # the best size-5 cut costs at most this one
    assert oracles.min_cut_over_subsets(g, 5) <= cut.width


def test_diameter_preserving_cut_m_out_of_range():
    with pytest.raises(MOutOfRange):
        diameter_preserving_cut(path(5), 5)
    with pytest.raises(MOutOfRange):
        diameter_preserving_cut(path(5), 0)


def test_case2b_and_3_internal_assertions():
    rng = Xorshift64Star(60601)
    seen = set()
    for _ in range(400):
        g = oracles.random_forest(rng, n_lo=4, n_hi=48, max_degree=6)
        if max_degree(g) <= 2:
            continue
        m = rng.randint(1, g.n - 1)
        cut, trace = diameter_preserving_cut(g, m)
        check_diam_cut(g, m, cut)
        seen.add(trace.case_tag)
        if trace.case_tag in ("Case2b", "Case3a", "Case3b"):
            assert m <= len(trace.v_tilde) <= 2 * m
            assert trace.z not in trace.v_tilde
            assert trace.m_tilde % 2 == 0 and trace.m_tilde >= 2
            assert trace.outer_width <= 2 * max_degree(g)
        if trace.case_tag == "Case2b":
            # the inner graph splits: the approximate cut side is detached
            inner = induced_sorted(g, sorted(trace.v_tilde))
            # inside the *linked* tree this has >= 2 components; in the
            # original forest it can only split further
            assert len(forest_summary(inner)) >= 2
    assert {"Case1", "Case2a", "Case2b", "Case3a", "Case3b"} <= seen


def test_pathological_families_all_m():
    broom = Graph(
        40, [(i, i + 1) for i in range(1, 20)] + [(20, v) for v in range(21, 41)]
    )
    families = [
        star(30),
        caterpillar_graph(31),
        spider_graph(5, 5),
        perfect_dary_tree(2, 4),
        perfect_dary_tree(4, 2),
        broom,
    ]
    for g in families:
        for m in range(1, g.n):
            cut, _ = diameter_preserving_cut(g, m)
            check_diam_cut(g, m, cut)


def test_m_tilde_definition_matches_trace():
    rng = Xorshift64Star(918273)
    hits = 0
    for _ in range(300):
        g = random_tree_maxdeg(rng.randint(6, 40), 6, rng)
        if max_degree(g) <= 2:
            continue
        m = rng.randint(1, g.n - 1)
        cut, trace = diameter_preserving_cut(g, m)
        if trace.m_tilde is None:
            continue
        hits += 1
        t_z_prime = (trace.b_z | trace.w_z) - {trace.z}
        assert trace.m_tilde == 2 * len(t_z_prime & trace.m_set)
    assert hits > 20


def _sparse_forest_cut(seed, sparse):
    """A random forest, its summary and an m, shaped like the peel's remainders when ``sparse``.

    A sparse forest has the shape of a peel's remainder: its cut ids keep
    no edge, and its summary covers only the live ids.
    """
    rng = Xorshift64Star(seed)
    g = oracles.random_forest(rng, n_lo=2, n_hi=60, drop=8)
    live = list(g.vertices())
    if sparse:
        live = sorted(rng.sample(live, rng.randint(2, g.n)))
        alive = set(live)
        g = Graph(g.n, [e for e in g.edges if alive.issuperset(e)])
    return g, _forest_summary(g, live), rng.randint(1, len(live) - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 60), st.booleans())
def test_the_inner_cut_sees_the_linked_trees_share_of_v_tilde(seed, sparse):
    """G[Ṽ], its rooting, the outside weights and the outer width are those of the reference linked tree.

    The exact cut gets G[Ṽ] in the forest's ids: the adjacency restricted
    to Ṽ is the linked tree's, and the rooting is the BFS sweep of the
    linked tree's G[Ṽ] relabeled 1..|Ṽ|, read back in the forest's ids.
    """
    g, comps, m = _sparse_forest_cut(seed, sparse)
    calls, dp = [], oracle.dp_min_size_cut_tree

    def spy_dp(inner, size, **kwargs):
        calls.append((inner, size, kwargs))
        return dp(inner, size, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "dp_min_size_cut_tree", spy_dp)
        _, trace = diameter_preserving_cut(g, m, comps)
    assert len(calls) == (trace.v_tilde is not None)
    if not calls:
        return
    (inner, inner_m, kwargs), v_tilde = calls[0], trace.v_tilde
    adj, (orders, parent), outside = inner.adj, inner.rooted, inner.outside
    tree, old_of = oracles.link_summarized(g, comps), sorted(v_tilde)
    assert inner_m == m and not kwargs and inner.n == len(v_tilde)
    assert [[u for u in adj[v] if u in v_tilde] for v in old_of] == [
        [u for u in tree.adj[v] if u in v_tilde] for v in old_of
    ]
    ref_orders, ref_parent = oracles.fifo_component_orders(induced_sorted(tree, old_of))
    assert orders == [[old_of[u - 1] for u in order] for order in ref_orders]
    assert [parent[v] for v in old_of] == [old_of[p - 1] if p else 0 for p in ref_parent[1:]]
    weights = {v: sum(u not in v_tilde for u in g.adj[v]) for v in old_of}
    assert outside == {v: w for v, w in weights.items() if w}
    assert trace.outer_width == sum((u in v_tilde) != (v in v_tilde) for u, v in tree.edges)
    links = [(a.path[-1], b.path[0]) for a, b in zip(comps, comps[1:])]
    assert trace.outer_width == boundary_width(g, v_tilde) + sum(
        (x in v_tilde) != (y in v_tilde) for x, y in links
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 60), st.booleans())
def test_the_inner_cut_is_the_public_exact_cut_of_the_linked_trees_g_v_tilde(seed, sparse):
    """The same black set and width as ``dp_min_size_cut_tree`` on G[Ṽ] relabeled, with the outside weights."""
    g, comps, m = _sparse_forest_cut(seed, sparse)
    cut, trace = diameter_preserving_cut(g, m, comps)
    if trace.v_tilde is not None:
        assert (cut.black, trace.inner_width) == oracles.inner_cut_by_public_dp(g, comps, trace)


def test_a_forest_cut_builds_no_graph_over_the_forests_id_range(monkeypatch):
    """Only Ṽ's share of the linked tree is built: no graph has more than 2m vertices."""
    built, trusted = [], Graph._trusted

    def spy_trusted(cls, n, adj):
        built.append(n)
        return trusted(n, adj)

    monkeypatch.setattr(Graph, "_trusted", classmethod(spy_trusted))
    rng = Xorshift64Star(0x5EC7)
    cases = set()
    for _ in range(300):
        g = oracles.random_forest(rng, n_lo=8, n_hi=60, drop=6)
        comps = forest_summary(g)
        if len(comps) < 2:
            continue
        m = rng.randint(1, (g.n - 1) // 2)
        built.clear()
        _, trace = diameter_preserving_cut(g, m, comps)
        assert all(n <= 2 * m for n in built)
        cases.add(trace.case_tag)
    assert {"Case1", "Case2a", "Case2b", "Case3a", "Case3b"} <= cases


def _full_width_columns(forest, m):
    """Table columns of a DP that keeps the counts 0..min(s, m) for every subtree of s vertices."""
    return sum(min(s, m) + 1 for s in oracles.subtree_totals(forest, lambda v: 1).values())


@pytest.fixture(scope="module")
def inner_dps():
    """The inner DPs of 12 real Case 2b, 3a and 3b cuts: (forest, m, ``TreeDPSpy`` state) each.

    The cuts' inner forests are captured where ``dp_min_size_cut_tree``
    receives them, in the forest's ids, then the tree DP
    (``oracle._dp_cut_tree``) runs on each under the spy; the forest
    kept beside it is the linked G[Ṽ] relabeled 1..|Ṽ|, for the
    reference counts.  The last two are the perfect d-ary cuts whose
    inner optimum (5 and 6) sends the section itself to the DP.
    """
    inner = []
    with pytest.MonkeyPatch.context() as mp:
        dp = oracle.dp_min_size_cut_tree

        def spy_dp(forest, m, **kwargs):
            inner.append((forest, m))
            return dp(forest, m, **kwargs)

        mp.setattr(oracle, "dp_min_size_cut_tree", spy_dp)
        rng = Xorshift64Star(0xBA4D)
        cuts = [(spider_graph(3, 100), m) for m in (13, 157, 229, 289)]
        cuts += [(adversarial_ternary_path(6), m) for m in (610, 1480, 2002)]
        cuts += [(caterpillar_graph(400), 65)]
        cuts += [(random_tree_maxdeg(n, 6, rng), n // 2) for n in (1500, 3000)]
        cuts += [(perfect_dary_tree(3, 6), 547), (perfect_dary_tree(5, 4), 391)]
        for g, m in cuts:
            diameter_preserving_cut(g, m)
    assert len(inner) == len(cuts)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        spy = TreeDPSpy(mp)
        for forest, m in inner:
            spy.reset()
            oracle._dp_cut_tree(forest.adj, m, forest.rooted)
            vertices = sorted(v for order in forest.rooted[0] for v in order)
            relabeled = induced_sorted(Graph._trusted(len(forest.adj) - 1, tuple(forest.adj)), vertices)
            calls.append((relabeled, m, copy.copy(spy)))
    return calls


def test_inner_exact_cut_keeps_the_count_band_and_builds_each_subtree_class_once(inner_dps):
    """Counted, not timed: the inner DP of Cases 2b, 3a and 3b stays within O(N * min(m, N - m)).

    On its forest of N vertices it keeps at most N * (min(m, N - m) + 1)
    table columns, beside the virtual root's one, in one table per class
    of identical unordered subtrees, and no accumulations but the virtual
    root's.  On trees with long paths Ṽ holds few vertices beside m, and
    tables of min(s, m) + 1 columns would exceed that bound.
    """
    wide = 0
    for forest, m, spy in inner_dps:
        n, table = forest.n, spy.dp.kept.table
        bound = n * (min(m, n - m) + 1)
        assert sum(table[v].shape[1] for v in spy.dp.order[1:]) <= bound
        assert len(spy.tables()) == len(set(oracles.subtree_classes(forest).values()))
        assert list(spy.dp.kept.accs) == [0]
        wide += _full_width_columns(forest, m) > bound
    assert wide >= 6


def test_inner_exact_cut_merges_once_per_inner_child_of_each_subtree_class(inner_dps):
    """Counted, not timed: the kernel calls of the inner DP of 12 real cuts.

    Building the tables takes one two-row ``_minplus`` call per child,
    leaves included, summed over the classes of identical unordered
    subtrees, and one one-row call per component at the virtual root.  The
    trace adds at most one one-row call per child of each vertex whose row
    it recomputes.
    """
    for forest, m, spy in inner_dps:
        merges = oracles.inner_merges(oracles.subtree_classes(forest))
        assert spy.rows(False) == [1] * len(spy.dp.children[0]) + [2] * merges
        retraced = spy.rows(True)
        assert set(retraced) <= {1}
        assert len(retraced) <= sum(len(spy.dp.children[v]) for v in spy.traced)


@pytest.mark.parametrize("outer, raises", [(2, False), (12, False), (13, True)])
def test_the_outer_check_raises_exactly_above_twice_the_max_degree(monkeypatch, outer, raises):
    """Ṽ's degrees (here at most 1) are tested first, then Δ = 6 of the whole tree."""
    g, m = random_tree_maxdeg(40, 6, Xorshift64Star(1)), 1
    _, trace = diameter_preserving_cut(g, m)
    assert trace.case_tag == "Case3a" and max_degree(g) == 6
    assert max(len(g.adj[v]) for v in trace.v_tilde) == 1
    real = treecut._inner_cut

    def forged(*args):
        black, width, _, top = real(*args)
        return black, width, outer, top

    monkeypatch.setattr(treecut, "_inner_cut", forged)
    if raises:
        with pytest.raises(InvariantViolation, match="outer cut exceeds 2Δ"):
            diameter_preserving_cut(g, m)
    else:
        assert diameter_preserving_cut(g, m)[1].outer_width == outer
