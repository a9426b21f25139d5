"""The small-width search, which answers the exact inner cut before the tree DP runs.

``oracle._small_width_cut`` must agree with the tree DP (``oracle._dp_cut_tree``)
on the width, return None exactly when the optimum exceeds 2 (on inputs
under its caps), and among the optimal cuts pick one of least outside
weight.  The tree DP still runs where the inner optimum exceeds 2.  It
never runs on the adversarial family at heights 2 to 7, nor on the
random trees at the seeds sampled here; other seeds of the random trees
the benchmark sections do reach it, as one inner cut of
``random_tree_maxdeg(8000, 6, Xorshift64Star(2))`` at k = 16 does.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import path, star_comb
from ksec import oracle
from ksec.engine import ksection_tree, ksection_tree_detailed
from ksec.graph import Cut, Graph, component_orders
from ksec.instances import (
    Xorshift64Star,
    adversarial_ternary_path,
    caterpillar_graph,
    perfect_dary_tree,
    random_tree_maxdeg,
    spider_graph,
)

KINDS = ["forest", "caterpillar", "spider", "comb", "adversarial"]


def _family(kind, rng, small):
    """A seeded member of ``kind``; with ``small``, of at most 12 vertices."""
    if kind == "forest":
        return oracles.random_forest(rng, n_lo=1, n_hi=12 if small else 60, drop=5)
    if kind == "caterpillar":
        return caterpillar_graph(rng.randint(1, 12 if small else 60))
    if kind == "spider":
        legs = rng.randint(1, 3 if small else 6)
        return spider_graph(legs, rng.randint(1, 11 // legs if small else 10))
    if kind == "comb":
        hubs = rng.randint(1, 4 if small else 8)
        return star_comb(hubs, rng.randint(1, 12 // hubs - 1 if small else 6))
    return adversarial_ternary_path(1 if small else rng.randint(1, 3))


def _under_caps(g, m):
    """Whether the search's caps let it answer every width up to 2 for this (forest, m)."""
    orders, parent = component_orders(g)
    if len(orders) > oracle.SEARCH_COMPONENTS:
        return False
    return oracle._Search(orders, parent, None).width_2_targets(m) is not None


def _weight(black, outside):
    return sum(outside[v] for v in black)


def _sparse(outside):
    """The search's form of the dense weights ``outside``: vertex -> weight."""
    return dict(enumerate(outside[1:], 1))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 2 ** 60))
def test_search_agrees_with_the_tree_dp_at_every_m(kind, seed):
    rng = Xorshift64Star(seed)
    g = _family(kind, rng, small=False)
    outside = [0, *(rng.randint(0, 3) for _ in range(g.n))]
    rooted = component_orders(g)
    for m in range(g.n + 1):
        dp_black, dp_width = oracle._dp_cut_tree(g.adj, m, rooted)
        found = oracle._small_width_cut(g.adj, m, rooted, _sparse(outside))
        if found is None:
            assert dp_width > 2 or not _under_caps(g, m), m
            continue
        black, width = found
        assert width == dp_width <= 2, m
        assert len(black) == m and Cut._trusted(g, black).width == width
        assert _weight(black, outside) <= _weight(dp_black, outside), m


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KINDS), st.integers(0, 2 ** 60))
def test_search_finds_the_least_width_then_weight_over_all_m_subsets(kind, seed):
    rng = Xorshift64Star(seed)
    g = _family(kind, rng, small=True)
    assert g.n <= 12
    outside = [0, *(rng.randint(0, 3) for _ in range(g.n))]
    rooted = component_orders(g)
    for m in range(g.n + 1):
        best = min(
            (Cut._trusted(g, black).width, _weight(black, outside))
            for black in itertools.combinations(g.vertices(), m)
        )
        found = oracle._small_width_cut(g.adj, m, rooted, _sparse(outside))
        if found is None:
            assert best[0] > 2 or not _under_caps(g, m), m
        else:
            assert (found[1], _weight(found[0], outside)) == best, m


def test_search_meets_every_width_and_the_fallback_on_small_forests():
    """The inputs of the tests above reach widths 0, 1 and 2, and optima above 2."""
    seen = set()
    rng = Xorshift64Star(2024)
    for kind in KINDS * 20:
        g = _family(kind, rng, small=True)
        rooted = component_orders(g)
        for m in range(g.n + 1):
            found = oracle._small_width_cut(g.adj, m, rooted)
            seen.add(found and found[1])
    assert seen == {0, 1, 2, None}


def test_ties_go_to_the_least_weight_then_to_ascending_ids():
    # the path is rooted at 1: {1, 2, 3} lies above the cut over 4, {7, 8, 9} below the one over 7
    g = path(9)
    assert oracle.dp_min_size_cut_tree(g, 3)[0].black == {1, 2, 3}
    weighed = oracle._InnerForest(g.adj, g.n, component_orders(g), {1: 1})
    assert sorted(oracle.dp_min_size_cut_tree(weighed, 3)[0]) == [7, 8, 9]


def _count_calls(monkeypatch):
    """Record the m of every call of the public inner cut and of the tree DP behind it."""
    calls = {"public": [], "dp": []}
    public, dp = oracle.dp_min_size_cut_tree, oracle._dp_cut_tree

    def spy_public(forest, m, **kwargs):
        calls["public"].append(m)
        return public(forest, m, **kwargs)

    def spy_dp(adj, m, rooted):
        calls["dp"].append(m)
        return dp(adj, m, rooted)

    monkeypatch.setattr(oracle, "dp_min_size_cut_tree", spy_public)
    monkeypatch.setattr(oracle, "_dp_cut_tree", spy_dp)
    return calls


@pytest.mark.parametrize(
    "g, m, width",
    [(perfect_dary_tree(3, 5), 182, 5), (path(9), 3, 1)],
    ids=["dp-fallback", "search-hit"],
)
def test_the_inner_cut_roots_its_forest_once(monkeypatch, g, m, width):
    """One ``component_orders`` sweep feeds the search and, where it gives up, the tree DP."""
    calls, sweep = _count_calls(monkeypatch), oracle.component_orders
    sweeps = []

    def spy_sweep(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(oracle, "component_orders", spy_sweep)
    assert oracle.dp_min_size_cut_tree(g, m)[1] == width
    assert len(sweeps) == 1 and len(calls["dp"]) == (width > 2)


@pytest.mark.parametrize(
    "arity, height, k, widths",
    [(3, 6, 2, [5]), (5, 4, 2, [6]), (4, 5, 3, [4, 3]), (7, 5, 2, [12])],
)
def test_the_tree_dp_runs_where_the_inner_optimum_exceeds_2(monkeypatch, arity, height, k, widths):
    calls = _count_calls(monkeypatch)
    _, _, traces = ksection_tree_detailed(perfect_dary_tree(arity, height), k)
    assert [t["inner_width"] for t in traces if t["inner_width"] is not None] == widths
    assert len(calls["dp"]) == len(calls["public"]) == len(widths)


@pytest.mark.parametrize("k", [2, 16])
@pytest.mark.parametrize("n", [2000, 8000])
def test_the_tree_dp_never_runs_on_random_trees(monkeypatch, n, k):
    """At the seeds ``Xorshift64Star(n + k)`` only: other seeds reach the DP (the test below)."""
    calls = _count_calls(monkeypatch)
    ksection_tree(random_tree_maxdeg(n, 6, Xorshift64Star(n + k)), k)
    assert calls["public"] and not calls["dp"]


def test_the_tree_dp_runs_once_on_a_random_tree_whose_inner_optimum_is_3(monkeypatch):
    """At seed 2 one inner cut (|Ṽ| = 862, m = 500) has no cut of width 2 or less."""
    calls = _count_calls(monkeypatch)
    _, _, traces = ksection_tree_detailed(random_tree_maxdeg(8000, 6, Xorshift64Star(2)), 16)
    assert calls["dp"] == [500]
    assert [t["inner_width"] for t in traces if (t["inner_width"] or 0) > 2] == [3]


@pytest.mark.parametrize("height", range(2, 8))
def test_the_tree_dp_never_runs_on_the_adversarial_family(monkeypatch, height):
    calls = _count_calls(monkeypatch)
    for k in (2, 4, 16):
        ksection_tree(adversarial_ternary_path(height), k)
    assert calls["public"] and not calls["dp"]


def test_the_width_2_work_cap_sends_a_width_2_cut_to_the_tree_dp(monkeypatch):
    """Eight perfect d-ary trees side by side: width 2 would scan past SEARCH_WORK * n."""
    edges, total = [], 0
    for arity, height in [(3, 5), (4, 4), (5, 3), (3, 4), (6, 3), (7, 3), (2, 7), (3, 6)]:
        part = perfect_dary_tree(arity, height)
        edges += [(u + total, v + total) for u, v in part.edges]
        total += part.n
    g, m = Graph(total, edges), 1079
    assert g.n == 2989 and not _under_caps(g, m)
    calls = _count_calls(monkeypatch)
    cut, width = oracle.dp_min_size_cut_tree(g, m)
    assert width == 2 == Cut._trusted(g, cut.black).width and len(cut.black) == m
    assert calls["dp"] == [m]
