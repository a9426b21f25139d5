import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import path, star
from ksec.errors import PathNotInTree
from ksec.graph import require_tree
from ksec.instances import Xorshift64Star, caterpillar_graph, random_tree_maxdeg
from ksec.labeling import (
    cyclic,
    d_p,
    decompose_along_path,
    find_anchor,
    p_labeling,
)


def labeled_tree(seed, n, cap=5):
    g = random_tree_maxdeg(n, cap, Xorshift64Star(seed))
    dec = decompose_along_path(g, require_tree(g, "test").path)
    return g, dec, p_labeling(dec)


def test_decompose_path_itself():
    g = path(5)
    dec = decompose_along_path(g, [1, 2, 3, 4, 5])
    assert all(dec.subtree_members[v] == frozenset({v}) for v in g.vertices())


def test_decompose_star_off_path_leaf():
    g = star(4)
    dec = decompose_along_path(g, [2, 1, 3])
    assert dec.subtree_members[1] == frozenset({1, 4})
    assert dec.subtree_of[4] == 1


def test_decompose_caterpillar_two_per_subtree():
    # spine P4 with one leg per spine vertex (n = 8)
    g = caterpillar_graph(8)
    dec = decompose_along_path(g, [1, 2, 3, 4])
    assert all(len(dec.subtree_members[v]) == 2 for v in (1, 2, 3, 4))


def test_decompose_rejects_non_paths():
    g = path(5)
    with pytest.raises(PathNotInTree):
        decompose_along_path(g, [1, 3])
    with pytest.raises(PathNotInTree):
        decompose_along_path(g, [1, 2, 1])


def test_p_labeling_path_is_identity_from_x0():
    g = path(6)
    dec = decompose_along_path(g, require_tree(g, "test").path)
    lab = p_labeling(dec)
    assert [lab.label_of[v] for v in range(1, 7)] == [1, 2, 3, 4, 5, 6]


def test_p_labeling_star_block_order():
    # path leaf-center-leaf: the off-path leaf is labeled before the center,
    # and the center closes its block
    g = star(4)
    lab = p_labeling(decompose_along_path(g, [2, 1, 3]))
    assert lab.label_of[2] == 1
    assert lab.label_of[4] == 2
    assert lab.label_of[1] == 3
    assert lab.label_of[3] == 4


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(2, 60))
def test_p_labeling_invariants(seed, n):
    g, dec, lab = labeled_tree(seed, n)
    labels = sorted(lab.label_of[1:])
    assert labels == list(range(1, n + 1))  # bijection
    order_on_path = []
    for v in dec.path:
        block = sorted(lab.label_of[x] for x in dec.subtree_members[v])
        assert block == list(range(block[0], block[0] + len(block)))  # consecutive
        assert lab.label_of[v] == block[-1]  # path vertex takes the block maximum
        order_on_path.append(lab.label_of[v])
    assert order_on_path == sorted(order_on_path)  # label order follows the path


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(2, 30))
def test_vertex_after_on_path_matches_path_order(seed, n):
    # the tree containing label v+1 is the next subtree along the path
    g, dec, lab = labeled_tree(seed, n)
    for idx, v in enumerate(dec.path):
        nxt = dec.subtree_of[lab.vertex(lab.label_of[v] + 1)]
        if idx + 1 < len(dec.path):
            assert nxt == dec.path[idx + 1]
        else:
            assert nxt == dec.path[0]  # wraps to x0


def test_d_p_against_naive_scan():
    rng = Xorshift64Star(99)
    g, dec, lab = labeled_tree(31415, 200)
    path_labels = {lab.label_of[v] for v in dec.path}
    for x in range(1, 201, 7):
        for y in range(1, 201, 11):
            assert d_p(lab, x, y) == oracles.naive_cyclic_count(path_labels, 200, x, y)
    for _ in range(40):
        n = rng.randint(2, 50)
        g, dec, lab = labeled_tree(rng.next_u64(), n)
        path_labels = {lab.label_of[v] for v in dec.path}
        for _ in range(12):
            x, y = rng.randint(1, n), rng.randint(1, n)
            assert d_p(lab, x, y) == oracles.naive_cyclic_count(path_labels, n, x, y)
        assert d_p(lab, 3, 3) == 0


def test_d_p_on_pure_path_is_label_difference():
    g = path(8)
    lab = p_labeling(decompose_along_path(g, require_tree(g, "test").path))
    for x in range(1, 9):
        for y in range(x, 9):
            assert d_p(lab, x, y) == y - x


def test_d_p_shift_continuity():
    rng = Xorshift64Star(512)
    for _ in range(500):
        n = rng.randint(2, 24)
        g, dec, lab = labeled_tree(rng.next_u64(), n)
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                assert abs(d_p(lab, x, y) - d_p(lab, x + 1, y + 1)) <= 1


def test_find_anchor_on_path_returns_first_label():
    g = path(9)
    lab = p_labeling(decompose_along_path(g, require_tree(g, "test").path))
    for m in range(1, 9):
        assert find_anchor(lab, m) == 1
        assert d_p(lab, 1, 1 + m) == m


def test_find_anchor_star_m2():
    g = star(4)
    lab = p_labeling(decompose_along_path(g, require_tree(g, "test").path))
    v = find_anchor(lab, 2)
    # d = 3/4, target = floor(3/2) = 1; label 1 qualifies
    assert v == 1
    assert d_p(lab, v, v + 2) == 1
    # exhaustive check that no smaller qualifying label exists
    target = (lab.num_path * 2) // 4
    hits = [
        u
        for u in range(1, 5)
        if (lab.on_path[u] or lab.on_path[cyclic(u + 2, 4)]) and d_p(lab, u, u + 2) == target
    ]
    assert hits and hits[0] == v


def test_find_anchor_exhaustive_scan_oracle():
    g, dec, lab = labeled_tree(4242, 50, cap=4)
    n, m = 50, 20
    v = find_anchor(lab, m)
    target = (lab.num_path * m) // n
    path_labels = {lab.label_of[u] for u in dec.path}
    qualifying = [
        u
        for u in range(1, n + 1)
        if (u in path_labels or cyclic(u + m, n) in path_labels)
        and oracles.naive_cyclic_count(path_labels, n, u, u + m) == target
    ]
    assert qualifying and qualifying[0] == v
