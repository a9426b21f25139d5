from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import TREE_SHAPES, mixed_forest, path, star
from ksec.errors import InvariantViolation
from ksec.graph import Graph, _forest_summary, require_tree
from ksec.instances import (
    Xorshift64Star,
    caterpillar_graph,
    random_partial_ktree,
    random_tree_maxdeg,
    spider_graph,
)
from ksec.labeling import (
    PLabeling,
    _p_labeling,
    anchor_window,
    cyclic,
    find_anchor,
    labels_interval,
)
from ksec.tdcut import _td_blocks
from ksec.treedec import heaviest_path, make_nonredundant


def labeled_tree(seed, n, cap=5):
    g = random_tree_maxdeg(n, cap, Xorshift64Star(seed))
    p = require_tree(g, "test").path
    return g, p, _p_labeling(g, p)[0]


def block_vertices(lab, label):
    """The vertices of the block that holds ``label``."""
    _, first, last = lab.block(label)
    return frozenset(lab.vertex_of[first : last + 1])


def test_p_labeling_path_itself_has_one_vertex_per_block():
    lab = _p_labeling(path(5), [1, 2, 3, 4, 5])[0]
    assert [lab.block(x) for x in range(1, 6)] == [(x - 1, x, x) for x in range(1, 6)]


def test_p_labeling_star_off_path_leaf_shares_the_center_block():
    lab = _p_labeling(star(4), [2, 1, 3])[0]
    assert lab.block(lab.label_of[4]) == (1, 2, 3)
    assert block_vertices(lab, lab.label_of[4]) == frozenset({1, 4})


def test_p_labeling_caterpillar_two_per_block():
    # spine P4 with one leg per spine vertex (n = 8)
    lab = _p_labeling(caterpillar_graph(8), [1, 2, 3, 4])[0]
    blocks = [(i, 2 * i + 1, 2 * i + 2) for i in range(4)]
    assert [lab.block(x) for x in range(1, 9)] == [b for b in blocks for _ in range(2)]
    assert [block_vertices(lab, lab.label_of[v]) for v in (1, 2, 3, 4)] == [
        frozenset({v, v + 4}) for v in (1, 2, 3, 4)
    ]


def test_p_labeling_path_is_identity_from_x0():
    g = path(6)
    lab = _p_labeling(g, require_tree(g, "test").path)[0]
    assert [lab.label_of[v] for v in range(1, 7)] == [1, 2, 3, 4, 5, 6]


def test_p_labeling_star_block_order():
    # path leaf-center-leaf: the off-path leaf is labeled before the center,
    # and the center closes its block
    lab = _p_labeling(star(4), [2, 1, 3])[0]
    assert lab.label_of[2] == 1
    assert lab.label_of[4] == 2
    assert lab.label_of[1] == 3
    assert lab.label_of[3] == 4


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(2, 60))
def test_p_labeling_invariants(seed, n):
    g, p, lab = labeled_tree(seed, n)
    ref = oracles.path_decomposition(g, p)
    labels = sorted(lab.label_of[1:])
    assert labels == list(range(1, n + 1))  # bijection
    next_first = 1
    for idx, v in enumerate(p):
        i, first, last = lab.block(lab.label_of[v])
        assert (i, first) == (idx, next_first)  # blocks follow the path, back to back
        assert last == lab.label_of[v]  # path vertex takes the block maximum
        block = sorted(lab.label_of[x] for x in ref.subtree_members[v])
        assert block == list(range(first, last + 1))  # T_v is the block
        next_first = last + 1
    assert next_first == n + 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(2, 30))
def test_vertex_after_on_path_matches_path_order(seed, n):
    # the block holding label v+1 is the next subtree along the path
    g, p, lab = labeled_tree(seed, n)
    for idx, v in enumerate(p):
        nxt = p[lab.block(lab.label_of[v] + 1)[0]]
        if idx + 1 < len(p):
            assert nxt == p[idx + 1]
        else:
            assert nxt == p[0]  # wraps to x0


def reference_trees():
    """Random trees, caterpillars and spiders, each with the path ``require_tree`` picks."""
    random_trees = st.builds(
        lambda seed, n, cap: random_tree_maxdeg(n, cap, Xorshift64Star(seed)),
        st.integers(0, 2 ** 60), st.integers(1, 80), st.integers(2, 6),
    )
    caterpillars = st.builds(caterpillar_graph, st.integers(1, 40))
    spiders = st.builds(spider_graph, st.integers(1, 6), st.integers(1, 8))
    return st.one_of(random_trees, caterpillars, spiders)


@settings(max_examples=150, deadline=None)
@given(reference_trees())
def test_p_labeling_matches_the_reference_path_decomposition(g):
    """Labels, marks and prefix counts as before; each label's block is its T_z."""
    p = require_tree(g, "test").path
    lab = _p_labeling(g, p)[0]
    ref_dec = oracles.path_decomposition(g, p)
    ref = oracles.p_labeling(ref_dec)
    assert (lab.n, lab.num_path) == (ref.n, ref.num_path)
    assert lab.label_of == ref.label_of
    assert lab.vertex_of == ref.vertex_of
    assert lab.on_path == ref.on_path
    assert lab.path_prefix == ref.path_prefix
    for x in range(1, g.n + 1):
        z = ref_dec.subtree_of[lab.vertex_of[x]]
        assert p[lab.block(x)[0]] == z
        assert block_vertices(lab, x) == ref_dec.subtree_members[z]
        assert lab.block(x + g.n) == lab.block(x - g.n) == lab.block(x)  # cyclic


def test_d_p_against_naive_scan():
    rng = Xorshift64Star(99)
    g, p, lab = labeled_tree(31415, 200)
    path_labels = {lab.label_of[v] for v in p}
    for x in range(1, 201, 7):
        for y in range(1, 201, 11):
            assert oracles._d_p(lab, x, y) == oracles.naive_cyclic_count(path_labels, 200, x, y)
    for _ in range(40):
        n = rng.randint(2, 50)
        g, p, lab = labeled_tree(rng.next_u64(), n)
        path_labels = {lab.label_of[v] for v in p}
        for _ in range(12):
            x, y = rng.randint(1, n), rng.randint(1, n)
            assert oracles._d_p(lab, x, y) == oracles.naive_cyclic_count(path_labels, n, x, y)
        assert oracles._d_p(lab, 3, 3) == 0


def test_d_p_on_pure_path_is_label_difference():
    g = path(8)
    lab = _p_labeling(g, require_tree(g, "test").path)[0]
    for x in range(1, 9):
        for y in range(x, 9):
            assert oracles._d_p(lab, x, y) == y - x


def test_d_p_shift_continuity():
    rng = Xorshift64Star(512)
    for _ in range(500):
        n = rng.randint(2, 24)
        g, p, lab = labeled_tree(rng.next_u64(), n)
        for x in range(1, n + 1):
            for y in range(1, n + 1):
                assert abs(oracles._d_p(lab, x, y) - oracles._d_p(lab, x + 1, y + 1)) <= 1


def test_find_anchor_on_path_returns_first_label():
    g = path(9)
    lab = _p_labeling(g, require_tree(g, "test").path)[0]
    for m in range(1, 9):
        assert find_anchor(lab, m) == 1
        assert oracles._d_p(lab, 1, 1 + m) == m


def test_find_anchor_star_m2():
    g = star(4)
    lab = _p_labeling(g, require_tree(g, "test").path)[0]
    v = find_anchor(lab, 2)
    # d = 3/4, target = floor(3/2) = 1; label 1 qualifies
    assert v == 1
    assert oracles._d_p(lab, v, v + 2) == 1
    # exhaustive check that no smaller qualifying label exists
    target = (lab.num_path * 2) // 4
    hits = [
        u
        for u in range(1, 5)
        if (lab.on_path[u] or lab.on_path[cyclic(u + 2, 4)])
        and oracles._d_p(lab, u, u + 2) == target
    ]
    assert hits and hits[0] == v


def test_find_anchor_exhaustive_scan_oracle():
    g, p, lab = labeled_tree(4242, 50, cap=4)
    n, m = 50, 20
    v = find_anchor(lab, m)
    target = (lab.num_path * m) // n
    path_labels = {lab.label_of[u] for u in p}
    qualifying = [
        u
        for u in range(1, n + 1)
        if (u in path_labels or cyclic(u + m, n) in path_labels)
        and oracles.naive_cyclic_count(path_labels, n, u, u + m) == target
    ]
    assert qualifying and qualifying[0] == v


def anchor_or_none(find, lab, m):
    """``find(lab, m)``, or None where no label qualifies."""
    try:
        return find(lab, m)
    except InvariantViolation:
        return None


def assert_windows_match_the_cyclic_ones(lab, rng):
    """Every anchor, and windows from every start, some wrapping past n, as the ``cyclic`` ones."""
    n = lab.n
    for m in range(1, n):
        assert anchor_or_none(find_anchor, lab, m) == anchor_or_none(
            oracles.find_anchor_cyclic, lab, m
        )
    for start in range(-n, 2 * n + 1):
        for count in {0, 1, n - 1, n, rng.randint(0, 2 * n)}:
            assert labels_interval(lab, start, count) == oracles.labels_interval_cyclic(
                lab, start, count
            )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 60),
       st.lists(st.sampled_from(sorted(TREE_SHAPES)), min_size=1, max_size=4), st.booleans())
def test_the_flat_p_labeling_is_the_block_list_one(seed, shapes, sparse):
    """The tree cut's labeling along its chain of longest paths, flat or built block by block.

    A sparse forest has the shape of a peel's remainder: its other ids are
    isolated and labeled 0.
    """
    rng = Xorshift64Star(seed)
    g = mixed_forest(rng, shapes)
    live = list(g.vertices())
    if sparse:
        live = sorted(rng.sample(live, rng.randint(1, g.n)))
        alive = set(live)
        g = Graph(g.n, [e for e in g.edges if alive.issuperset(e)])
    chain = [v for c in _forest_summary(g, live) for v in c.path]
    lab, parent = _p_labeling(g, chain)
    assert (lab, parent) == oracles.p_labeling_by_blocks(g, chain)
    assert_labels_match_the_label_map(lab, g.n)
    assert_windows_match_the_cyclic_ones(lab, rng)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(1, 30))
def test_labelings_from_blocks_and_their_windows_match_the_cyclic_ones(seed, n):
    """Random blocks and marked sets, where some m has no anchor at all."""
    rng = Xorshift64Star(seed)
    order = rng.sample(list(range(1, n + 1)), n)
    cuts = sorted(rng.sample(list(range(1, n)), rng.randint(0, n - 1)))
    blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    marked = set(rng.sample(order, rng.randint(0, n)))
    lab = PLabeling._trusted(order, [*cuts, n], marked)
    assert lab == oracles.plabeling_of_blocks(blocks, marked)
    assert_labels_match_the_label_map(lab, n)
    assert_windows_match_the_cyclic_ones(lab, rng)


def assert_labels_match_the_label_map(lab, max_id):
    """``label_of``, built on first read, labels as the map built with every labeling did."""
    assert "label_of" not in vars(lab)
    want = oracles.label_map(lab.vertex_of[1:], max_id)
    assert lab.label_of == want[: len(lab.label_of)] and not any(want[len(lab.label_of) :])


def assert_marked_labels_close_each_block(lab):
    """Each block lists its unmarked labels first and its marked ones last, at least one."""
    for first, last in zip((1, *(e + 1 for e in lab.ends)), lab.ends):
        marks = lab.on_path[first : last + 1]
        assert marks[-1] and list(marks) == sorted(marks)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 60),
       st.lists(st.sampled_from(sorted(TREE_SHAPES)), min_size=1, max_size=4))
def test_anchor_window_of_a_forest_is_the_tree_cuts_own(seed, shapes):
    """Along the chain of a forest's longest paths, for every m, as the tree cut read it inline."""
    g = mixed_forest(Xorshift64Star(seed), shapes)
    chain = [v for c in _forest_summary(g, g.vertices()) for v in c.path]
    lab = _p_labeling(g, chain)[0]
    assert_marked_labels_close_each_block(lab)
    for m in range(1, lab.n):
        assert anchor_window(lab, m) == oracles.tree_cut_window(lab, m, chain)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(2, 60), st.integers(1, 5))
def test_anchor_window_of_a_decomposition_is_the_decomposition_cuts_own(seed, n, t):
    """With R marked along the heaviest path, for every m, as the r-preserving cut read it."""
    g, td = random_partial_ktree(n, t, Xorshift64Star(seed))
    td0 = make_nonredundant(td)
    lab = PLabeling._trusted(*_td_blocks(td0, heaviest_path(td0, n).path, n))
    assert_marked_labels_close_each_block(lab)
    for m in range(1, n):
        assert anchor_window(lab, m) == oracles.td_cut_window(lab, m)
