from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import path
from ksec import bounds, tdcut
from ksec.errors import InvariantViolation, MOutOfRange, RedundantDecomposition
from ksec.graph import max_degree
from ksec.instances import Xorshift64Star, random_partial_ktree, random_tree_maxdeg
from ksec.labeling import PLabeling, cyclic, find_anchor
from ksec.oracle import dp_min_size_cut_td, dp_min_size_cut_tree
from ksec.tdcut import approximate_cut_td, r_preserving_cut
from ksec.treedec import (
    TreeDecomposition,
    heaviest_path,
    induced,
    make_nonredundant,
    validation_errors,
)


def p4_with_td():
    g = path(4)
    td = TreeDecomposition([{1, 2}, {2, 3}, {3, 4}], [(1, 2), (2, 3)])
    return g, td


def labeled(g, td):
    td0 = make_nonredundant(td)
    hp = heaviest_path(td0, g.n)
    return td0, hp, PLabeling._trusted(*tdcut._td_blocks(td0, hp.path, g.n))


def blocks_of(lab):
    """(S_i, R_i) of each block in path order, read through ``lab.block`` from its first label."""
    out, x = [], 1
    while x <= lab.n:
        i, first, last = lab.block(x)
        assert (i, first) == (len(out), x)
        labels = range(first, last + 1)
        out.append((
            tuple(lab.vertex_of[y] for y in labels if not lab.on_path[y]),
            tuple(lab.vertex_of[y] for y in labels if lab.on_path[y]),
        ))
        x = last + 1
    return out


def test_td_labeling_path_decomposition():
    g, td = p4_with_td()
    td0, hp, lab = labeled(g, td)
    assert lab.num_path == 4  # R = V
    assert blocks_of(lab) == [((), (1, 2)), ((), (3,)), ((), (4,))]


def test_td_labeling_single_node():
    g = path(3)
    td = TreeDecomposition([{1, 2, 3}], [])
    td0, hp, lab = labeled(g, td)
    assert lab.num_path == 3
    assert hp.path == (1,)
    assert blocks_of(lab) == [((), (1, 2, 3))]


def test_td_labeling_rejects_redundant():
    g = path(3)
    td = TreeDecomposition([{1, 2}, {2}, {2, 3}], [(1, 2), (2, 3)])
    hp = heaviest_path(td, 3)
    with pytest.raises(RedundantDecomposition):
        PLabeling._trusted(*tdcut._td_blocks(td, hp.path, g.n))


def test_td_labeling_invariants_random():
    rng = Xorshift64Star(64)
    for _ in range(60):
        g, td = random_partial_ktree(rng.randint(3, 40), rng.randint(2, 4), rng)
        td0, hp, lab = labeled(g, td)
        ref = oracles.td_p_labeling(g, td0, hp)
        blocks = blocks_of(lab)
        assert len(blocks) == len(hp.path)
        union_r = set()
        for s_i, r_i in blocks:
            union_r |= set(r_i)
            assert r_i, "nonredundant decomposition must feed every block"
        assert union_r == {v for i in ref.l_p for v in ref.r_of[i]}
        assert len(union_r) == lab.num_path == hp.weight
        # blocks: S_i then R_i, consecutive, ordered along the path
        cursor = 0
        for node, (s_i, r_i) in zip(hp.path, blocks):
            assert (s_i, r_i) == (ref.s_of[node], ref.r_of[node])
            block = [lab.label_of[v] for v in s_i + r_i]
            assert block == list(range(cursor + 1, cursor + 1 + len(block)))
            cursor += len(block)
        assert cursor == g.n


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(1, 60), st.integers(2, 4))
def test_td_labeling_matches_the_reference_blocks(seed, n, t):
    """Labels, marks and prefix counts as before; each label's block is its node's S_i, R_i."""
    g, td = random_partial_ktree(n, t, Xorshift64Star(seed))
    td0, hp, lab = labeled(g, td)
    ref = oracles.td_p_labeling(g, td0, hp)
    assert (lab.n, lab.num_path) == (ref.labeling.n, ref.labeling.num_path)
    assert lab.label_of == ref.labeling.label_of
    assert lab.vertex_of == ref.labeling.vertex_of
    assert lab.on_path == ref.labeling.on_path
    assert lab.path_prefix == ref.labeling.path_prefix
    blocks = blocks_of(lab)
    for x in range(1, n + 1):
        i = lab.block(x)[0]
        node = ref.a_p[lab.vertex_of[x]]
        assert hp.path[i] == node
        assert blocks[i] == (ref.s_of[node], ref.r_of[node])
        assert lab.block(x + n) == lab.block(x)  # cyclic


def r_labels_of(g, td0, hp, lab):
    """Labels of the R vertices, read off the reference blocks rather than the labeling's flags."""
    ref = oracles.td_p_labeling(g, td0, hp)
    return {lab.label_of[v] for i in ref.l_p for v in ref.r_of[i]}


def test_d_r_examples_and_naive_scan():
    """d_R is d_P of the decomposition labeling, whose marked set is R."""
    g, td = p4_with_td()
    _, _, lab = labeled(g, td)
    assert oracles._d_p(lab, 2, 2) == 0
    for x in range(1, 5):
        for y in range(1, 5):
            assert oracles._d_p(lab, x, y) == (y - x) % 4  # R = V: cyclic distance

    rng = Xorshift64Star(4096)
    for _ in range(25):
        g, td = random_partial_ktree(rng.randint(3, 30), 3, rng)
        td0, hp, lab = labeled(g, td)
        r_labels = r_labels_of(g, td0, hp, lab)
        for _ in range(20):
            x, y = rng.randint(1, g.n), rng.randint(1, g.n)
            assert oracles._d_p(lab, x, y) == oracles.naive_cyclic_count(r_labels, g.n, x, y)


def test_find_anchor_td_matches_definition():
    """The tree's anchor search on the decomposition labeling meets the R definition."""
    rng = Xorshift64Star(888)
    for _ in range(40):
        g, td = random_partial_ktree(rng.randint(3, 30), 3, rng)
        td0, hp, lab = labeled(g, td)
        m = rng.randint(1, g.n - 1)
        v = find_anchor(lab, m)
        r_labels = r_labels_of(g, td0, hp, lab)
        target = (len(r_labels) * m) // g.n
        assert oracles._d_p(lab, v, v + m) == target
        assert v in r_labels or cyclic(v + m, g.n) in r_labels
        for u in range(1, v):
            um = (u + m - 1) % g.n + 1
            if u in r_labels or um in r_labels:
                assert oracles.naive_cyclic_count(r_labels, g.n, u, u + m) != target


def check_approx_td(g, td, cut, m):
    t = td.width + 1
    assert m <= 2 * len(cut.black) and len(cut.black) <= m
    assert cut.width <= t * max_degree(g)


def test_approximate_cut_td_tree_width1():
    g = random_tree_maxdeg(20, 4, Xorshift64Star(5))
    td = oracles.tree_to_width1_td(g)
    cut = approximate_cut_td(g, td, 4)
    check_approx_td(g, td, cut, 4)
    assert cut.width <= 2 * max_degree(g)


def test_approximate_cut_td_single_node():
    g = path(6)
    td = TreeDecomposition([set(g.vertices())], [])
    for m in range(1, 13):
        cut = approximate_cut_td(g, td, m)
        check_approx_td(g, td, cut, m)
    with pytest.raises(MOutOfRange):
        approximate_cut_td(g, td, 13)


def test_approximate_cut_td_partial_two_tree_all_m():
    rng = Xorshift64Star(30303)
    g, td = random_partial_ktree(30, 3, rng)
    for m in range(1, 61):
        check_approx_td(g, td, approximate_cut_td(g, td, m), m)


def test_approximate_cut_td_takes_the_black_set_of_the_induced_decompositions_cut():
    """Reading the clusters through S picks what the cut of ``induced(td, S)`` picked.

    Raw and nonredundant partial k-trees; random sets S at every m in
    1..2|S|, and the whole vertex set through the public cut at every m in 1..2n.
    """
    rng = Xorshift64Star(31313)
    for _ in range(60):
        n = rng.randint(2, 60)
        g, raw = random_partial_ktree(n, rng.randint(1, 5), rng)
        for td in (raw, make_nonredundant(raw)):
            keep = rng.randint(1, 9)
            s_set = frozenset(v for v in g.vertices() if rng.chance(keep, 10)) or frozenset({n})
            for m in range(1, 2 * len(s_set) + 1):
                assert tdcut._approximate_cut_td(td, s_set, m) == oracles.approximate_td_black(
                    induced(td, s_set), s_set, m
                )
            for m in range(1, 2 * n + 1):
                assert approximate_cut_td(g, td, m).black == oracles.approximate_td_black(
                    td, g.vertices(), m
                )


def test_exact_cut_bounded_td_bound_specializations():
    # r = 1: the bound collapses to 4tΔ
    g, td = p4_with_td()
    for m in range(1, 5):
        cut, _ = dp_min_size_cut_td(g, td, m)
        assert cut.width <= 4 * 2 * max_degree(g)
        assert bounds.td_size_cut_bound_holds(cut.width, Fraction(1), 2, max_degree(g))


def test_exact_cut_bounded_td_cross_checks():
    rng = Xorshift64Star(777)
    g = random_tree_maxdeg(14, 4, rng)
    td = oracles.tree_to_width1_td(g)
    for m in range(1, g.n + 1):
        assert dp_min_size_cut_td(g, td, m)[0].width == dp_min_size_cut_tree(g, m)[1]

    g2, td2 = random_partial_ktree(20, 3, rng)
    for m in range(1, 21):
        assert dp_min_size_cut_td(g2, td2, m)[0].width == oracles.min_cut_over_subsets(g2, m)


def r_after_cut(g, td_used, black):
    white = [v for v in g.vertices() if v not in black]
    sub = induced(td_used, white)
    return heaviest_path(sub, len(white)).relative_weight


def test_r_preserving_cut_path_graph():
    g = path(10)
    td = TreeDecomposition([{i, i + 1} for i in range(1, 10)], [(i, i + 1) for i in range(1, 9)])
    for m in range(1, 10):
        cut, trace = r_preserving_cut(g, td, m)
        assert trace.case_tag == "Case1"
        assert len(cut.black) == m
        assert cut.width <= 2 * trace.t * max_degree(g)
        assert r_after_cut(g, trace.normalized_td, cut.black) == 1
        # black set is a label interval, here a path prefix or suffix
        blk = sorted(cut.black)
        assert blk == list(range(blk[0], blk[0] + m))


def test_r_preserving_cut_tree_width1():
    rng = Xorshift64Star(98765)
    for _ in range(25):
        g = random_tree_maxdeg(rng.randint(4, 30), 5, rng)
        td = oracles.tree_to_width1_td(g)
        m = rng.randint(1, g.n - 1)
        cut, trace = r_preserving_cut(g, td, m)
        assert len(cut.black) == m
        assert r_after_cut(g, trace.normalized_td, cut.black) >= trace.r
        assert bounds.td_cut_bound_holds(cut.width, trace.r, trace.t, max_degree(g))


def test_r_preserving_cut_partial_two_tree_selected_m():
    rng = Xorshift64Star(5150)
    g, td = random_partial_ktree(60, 3, rng)
    delta = max_degree(g)
    for m in (1, 20, 59):
        cut, trace = r_preserving_cut(g, td, m)
        assert len(cut.black) == m
        assert r_after_cut(g, trace.normalized_td, cut.black) >= trace.r
        assert bounds.td_cut_bound_holds(cut.width, trace.r, trace.t, delta)


def test_r_preserving_case_internals():
    rng = Xorshift64Star(171717)
    seen = set()
    with glue_spy() as captured:
        for _ in range(250):
            g, td = random_partial_ktree(rng.randint(6, 40), rng.randint(2, 4), rng)
            m = rng.randint(1, g.n - 1)
            before = len(captured)
            cut, trace = r_preserving_cut(g, td, m)
            seen.add(trace.case_tag)
            assert len(cut.black) == m
            assert r_after_cut(g, trace.normalized_td, cut.black) >= trace.r
            assert bounds.td_cut_bound_holds(cut.width, trace.r, trace.t, max_degree(g))
            if trace.case_tag in ("Case2b", "Case3"):
                assert 2 <= trace.m_tilde <= 2 * m
                assert m <= len(trace.v_tilde) <= 2 * m
                assert 2 * trace.r_tilde >= trace.r
                assert trace.outer_width <= 3 * trace.t * max_degree(g)
                # every glued decomposition is valid for its inner graph
                assert len(captured) == before + 1
                g_tilde, glued = captured[-1]
                assert not validation_errors(glued, g_tilde)
            else:
                assert len(captured) == before
    assert {"Case1", "Case2a", "Case2b", "Case3"} <= seen


def test_r_preserving_cut_degenerate_decompositions():
    # single-bag decomposition and a sparse (disconnected) graph reusing a td
    from ksec.instances import random_partial_ktree, star_graph
    from ksec.graph import Graph

    star = star_graph(24)
    for m in (1, 11, 23):
        cut, trace = r_preserving_cut(star, oracles.tree_to_width1_td(star), m)
        assert len(cut.black) == m
        assert r_after_cut(star, trace.normalized_td, cut.black) >= trace.r

    g, _ = random_partial_ktree(12, 4, Xorshift64Star(3))
    one = TreeDecomposition([set(g.vertices())], [])
    for m in range(1, 12):
        cut, trace = r_preserving_cut(g, one, m)
        assert len(cut.black) == m
        assert r_after_cut(g, trace.normalized_td, cut.black) >= trace.r

    g2, td2 = random_partial_ktree(30, 3, Xorshift64Star(8))
    sparse = Graph(30, sorted(g2.edges)[::2])
    delta = max_degree(sparse)
    for m in range(1, 30):
        cut, trace = r_preserving_cut(sparse, td2, m)
        assert len(cut.black) == m
        assert r_after_cut(sparse, trace.normalized_td, cut.black) >= trace.r
        assert delta == 0 or bounds.td_cut_bound_holds(cut.width, trace.r, trace.t, delta)


def test_cut_plabeling_parts_edge_scan():
    # deleting the edges around a path node's cluster splits the graph into
    # the R_i singletons, G[S_i], and the two label intervals
    rng = Xorshift64Star(200)
    for _ in range(40):
        g, td_in = random_partial_ktree(rng.randint(4, 30), 3, rng)
        td0, hp, lab = labeled(g, td_in)
        blocks = blocks_of(lab)
        for pos, i in enumerate(hp.path):
            bag = td0.bag(i)
            removed = {e for e in g.edges if e[0] in bag or e[1] in bag}
            where = {}
            s_i, r_i = blocks[pos]
            for v in r_i:
                where[v] = ("r", v)
            for v in s_i:
                where[v] = ("s", 0)
            before = [v for s_j, r_j in blocks[:pos] for v in s_j + r_j]
            after = [v for s_j, r_j in blocks[pos + 1 :] for v in s_j + r_j]
            for v in before:
                where[v] = ("lo", 0)
            for v in after:
                where[v] = ("hi", 0)
            for e in g.edges - removed:
                assert where[e[0]] == where[e[1]]
            # the two interval parts are exactly {1..x-} and {x+..n}
            if before:
                labels = sorted(lab.label_of[v] for v in before)
                assert labels == list(range(1, len(before) + 1))
            if after:
                labels = sorted(lab.label_of[v] for v in after)
                assert labels == list(range(g.n - len(after) + 1, g.n + 1))


@contextmanager
def glue_spy():
    """Yield a list that gets (inner graph, glued decomposition) of each Case 2b/3 cut made."""
    captured = []
    real_inner, real_glue = tdcut.induced_sorted, tdcut._glue_decompositions

    def inner(*args, **kwargs):
        captured.append([real_inner(*args, **kwargs)])
        return captured[-1][0]

    def glue(*args):
        captured[-1].append(real_glue(*args))
        return captured[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tdcut, "induced_sorted", inner)
        mp.setattr(tdcut, "_glue_decompositions", glue)
        yield captured


def glued_decompositions(g, td, ms):
    """(inner graph, glued decomposition) of each Case 2b/3 cut of g for the sizes ms."""
    with glue_spy() as captured:
        for m in ms:
            r_preserving_cut(g, td, m)
    return captured


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4))
def test_glued_decompositions_are_valid_and_weigh_as_before(seed, n, t):
    """The glued decomposition reaches the inner DP's check; this holds without it too."""
    rng = Xorshift64Star(seed)
    g, td = random_partial_ktree(n, t, rng)
    for g_tilde, glued in glued_decompositions(g, td, rng.sample(range(1, n), 4)):
        assert not validation_errors(glued, g_tilde)
        assert not validation_errors(make_nonredundant(glued), g_tilde)
        assert heaviest_path(glued, g_tilde.n) == \
            oracles.heaviest_path_candidate_list(glued, g_tilde.n)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4))
def test_glued_decompositions_equal_the_checked_constructors(seed, n, t):
    """The glued tree, built without the constructor's checks, is the one the constructor builds."""
    rng = Xorshift64Star(seed)
    g, td = random_partial_ktree(n, t, rng)
    for g_tilde, glued in glued_decompositions(g, td, rng.sample(range(1, n), 4)):
        checked = TreeDecomposition(glued.bags, glued.tree_edges)
        assert glued.num_nodes == checked.num_nodes
        assert glued.bags == checked.bags
        assert glued.tree_adj == checked.tree_adj
        assert glued.tree_edges == checked.tree_edges
        assert not validation_errors(glued, g_tilde)


@pytest.mark.parametrize("outer, raises", [(27, False), (144, False), (145, True)])
def test_the_outer_check_raises_exactly_above_3t_times_the_max_degree(monkeypatch, outer, raises):
    """Ṽ's degrees (here at most 3) are tested first, then Δ = 16 of the whole graph; t = 3."""
    g, td = random_partial_ktree(30, 3, Xorshift64Star(1))
    _, trace = r_preserving_cut(g, td, 1)
    assert (trace.case_tag, trace.t, max_degree(g)) == ("Case3", 3, 16)
    assert max(len(g.adj[v]) for v in trace.v_tilde) == 3
    real, forged = tdcut.boundary_width, []

    def spy(h, side):  # the count of Ṽ's edges leaving it in g is its outer width
        if h is g and side == trace.v_tilde:
            forged.append(side)
            return outer
        return real(h, side)

    monkeypatch.setattr(tdcut, "boundary_width", spy)
    if raises:
        with pytest.raises(InvariantViolation, match="outer cut exceeds 3tΔ"):
            r_preserving_cut(g, td, 1)
    else:
        assert r_preserving_cut(g, td, 1)[1].outer_width == outer
    assert len(forged) == 1
