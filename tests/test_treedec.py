from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import path
from ksec import tdcut, treedec
from ksec.errors import FormatError, InvariantViolation, NotATreeDecomposition
from ksec.graph import Graph, bfs_tree, require_tree
from ksec.instances import Xorshift64Star, random_partial_ktree, random_tree_maxdeg
from ksec.treedec import (
    TreeDecomposition,
    edge_home,
    heaviest_path,
    induced,
    make_nonredundant,
    occurrences,
    parse_td,
    require_decomposition,
    validation_errors,
    write_td,
)


def p4_td():
    return TreeDecomposition([{1, 2}, {2, 3}, {3, 4}], [(1, 2), (2, 3)])


def test_constructor_rejects_non_trees():
    with pytest.raises(NotATreeDecomposition):
        TreeDecomposition([{1}, {2}], [])  # disconnected
    with pytest.raises(NotATreeDecomposition):
        TreeDecomposition([{1}, {2}, {3}], [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotATreeDecomposition):
        TreeDecomposition([], [])


def test_validate_examples():
    g = path(4)
    single = TreeDecomposition([set(g.vertices())], [])
    assert not validation_errors(single, g)
    assert single.width == 3

    td = p4_td()
    assert not validation_errors(td, g)
    assert td.width == 1

    broken = TreeDecomposition([{1, 2}, {2}, {3, 4}], [(1, 2), (2, 3)])
    errors = validation_errors(broken, g)
    assert ("T2", (2, 3)) in errors


def test_validate_t3_witness():
    g = Graph(3, [])
    td = TreeDecomposition([{1}, {2}, {1, 3}], [(1, 2), (2, 3)])
    assert ("T3", 1) in validation_errors(td, g)


def test_validate_equals_triple_checker():
    rng = Xorshift64Star(2024)
    for _ in range(60):
        g, td = random_partial_ktree(rng.randint(3, 24), rng.randint(2, 4), rng)
        assert not validation_errors(td, g)
        assert oracles.naive_t3_holds(td)
        # break T3 by injecting a vertex into a far cluster
        bags = [set(b) for b in td.bags]
        if td.num_nodes >= 3:
            bags[-1].add(min(bags[0]) if bags[0] else 1)
            hacked = TreeDecomposition(bags, td.tree_edges)
            assert (not validation_errors(hacked, g)) == oracles.naive_t3_holds(hacked)


def scanned_homes(td, g):
    """Each edge of g, ascending, with the first node whose cluster holds it, or None."""
    return [((u, v), next((i for i in td.nodes() if {u, v} <= td.bag(i)), None))
            for u, v in sorted(g.edges)]


def test_edge_homes_and_t2_witnesses_match_a_scan_of_all_clusters():
    """The check's one homing pass finds each edge's home; a passed check returns them."""
    rng = Xorshift64Star(4048)
    for _ in range(40):
        g, td = random_partial_ktree(rng.randint(3, 30), rng.randint(2, 4), rng)
        assert require_decomposition(td, g, "test") == scanned_homes(td, g)
        bags = [set(b) for b in td.bags]
        for _ in range(rng.randint(0, 3)):  # drop vertices from clusters to break T2
            bag = bags[rng.randint(0, len(bags) - 1)]
            if bag:
                bag.discard(min(bag))
        hacked = TreeDecomposition(bags, td.tree_edges)
        occ = occurrences(hacked)
        homes = scanned_homes(hacked, g)
        assert [(e, edge_home(hacked, occ, *e)) for e, _ in homes] == homes
        assert treedec._checked(hacked, g)[1] == homes
        t2 = [w for cond, w in validation_errors(hacked, g) if cond == "T2"]
        assert t2 == [e for e, home in homes if home is None]


def test_induced_examples():
    td = p4_td()
    g = path(4)
    assert induced(td, set(g.vertices())).bags == td.bags
    assert all(not b for b in induced(td, set()).bags)
    sub = induced(td, {1, 2})
    assert sub.bags == (frozenset({1, 2}), frozenset({2}), frozenset())
    assert sub.width <= td.width and sub.size <= td.size


def test_make_nonredundant_examples():
    td = p4_td()
    out = make_nonredundant(td)
    assert out.num_nodes == 3 and out.width == 1  # already nonredundant

    chain = TreeDecomposition([{1, 2}, {1, 2}, {2, 3}], [(1, 2), (2, 3)])
    out = make_nonredundant(chain)
    assert out.num_nodes == 2
    assert set(out.bags) == {frozenset({1, 2}), frozenset({2, 3})}


def test_make_nonredundant_random_postconditions():
    rng = Xorshift64Star(555)
    for _ in range(200):
        n = rng.randint(2, 30)
        g, td = random_partial_ktree(n, rng.randint(2, 4), rng)
        # make it redundant: subdivide by duplicating clusters and add empties
        bags = list(td.bags)
        edges = list(td.tree_edges)
        dup = rng.randint(1, td.num_nodes)
        bags.append(td.bag(dup))
        edges.append((dup, len(bags)))
        bags.append(frozenset())
        edges.append((rng.randint(1, td.num_nodes), len(bags)))
        redundant = TreeDecomposition(bags, edges)
        before_r = heaviest_path(redundant, n).relative_weight

        out = make_nonredundant(redundant)
        checked = TreeDecomposition(out.bags, out.tree_edges)  # the rebuild skips this constructor
        assert out.bags == checked.bags and out.num_nodes == checked.num_nodes
        assert out.tree_adj == checked.tree_adj and out.tree_edges == checked.tree_edges
        assert not validation_errors(out, g)
        assert out.width == redundant.width
        assert out.size <= redundant.size
        assert heaviest_path(out, n).relative_weight >= before_r
        for i, j in out.tree_edges:
            assert not out.bag(i) <= out.bag(j)
            assert not out.bag(j) <= out.bag(i)
        if out.num_nodes > 1:
            assert all(out.bag(i) for i in out.nodes())  # empty clusters are gone


@st.composite
def redundant_decompositions(draw):
    """Small trees with shuffled node ids whose clusters repeat, nest and are often empty."""
    num = draw(st.integers(1, 14))
    ids = draw(st.permutations(range(1, num + 1)))
    parents = [draw(st.integers(0, k - 1)) for k in range(1, num)]
    pool = st.frozensets(st.integers(1, 4), max_size=3)
    bags = [draw(pool) for _ in range(num)]
    edges = [(ids[p], ids[k]) for k, p in enumerate(parents, start=1)]
    return TreeDecomposition(bags, edges)


@settings(max_examples=300, deadline=None)
@given(redundant_decompositions())
def test_make_nonredundant_keeps_the_rescan_order_on_small_decompositions(td):
    out, ref = make_nonredundant(td), oracles.make_nonredundant_rescan(td)
    assert out.bags == ref.bags and out.tree_edges == ref.tree_edges


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4))
def test_make_nonredundant_keeps_the_rescan_order_on_induced_halves(seed, n, t):
    """The peel loop's shape: a partial k-tree's decomposition induced on half its vertices."""
    rng = Xorshift64Star(seed)
    _, td = random_partial_ktree(n, t, rng)
    sub = induced(td, rng.sample(list(range(1, n + 1)), n // 2))
    out, ref = make_nonredundant(sub), oracles.make_nonredundant_rescan(sub)
    assert out.bags == ref.bags and out.tree_edges == ref.tree_edges


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4))
def test_make_nonredundant_keeps_the_rescan_order_on_glued_decompositions(seed, n, t):
    """The inner cut's shape: two induced copies of a nonredundant decomposition, bridged.

    A random vertex subset is split at random between the copies, so the glued
    tree carries the empty and equal clusters whose tie rules pick the survivors.
    """
    rng = Xorshift64Star(seed)
    _, td = random_partial_ktree(n, t, rng)
    td0 = make_nonredundant(td)
    kept = sorted(rng.sample(list(range(1, n + 1)), rng.randint(1, n)))
    new_of = {old: i for i, old in enumerate(kept, start=1)}
    b_side = frozenset(rng.sample(kept, rng.randint(1, len(kept))))
    glued = tdcut._glue_decompositions(td0, new_of, b_side, rng.randint(1, td0.num_nodes))
    out, ref = make_nonredundant(glued), oracles.make_nonredundant_rescan(glued)
    assert out.bags == ref.bags
    assert out.tree_adj == ref.tree_adj
    assert out.tree_edges == ref.tree_edges


def random_glue_input(seed, n, t):
    """(td0, new_of, b_side, j0): a random Ṽ of a partial t-tree, split at random, and a j0."""
    rng = Xorshift64Star(seed)
    _, td = random_partial_ktree(n, t, rng)
    td0 = make_nonredundant(td)
    kept = sorted(rng.sample(list(range(1, n + 1)), rng.randint(1, n)))
    new_of = {old: i for i, old in enumerate(kept, start=1)}
    b_side = frozenset(rng.sample(kept, rng.randint(1, len(kept))))
    return td0, new_of, b_side, rng.randint(1, td0.num_nodes)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(1, 6))
def test_glue_on_the_spans_normalizes_and_weighs_as_the_whole_copies(seed, n, t):
    """The glue builds only the spans and the empty stand-ins, and loses nothing by it."""
    args = random_glue_input(seed, n, t)
    glued, whole = tdcut._glue_decompositions(*args), oracles.glue_decompositions_whole(*args)
    out, ref = make_nonredundant(glued), make_nonredundant(whole)
    assert out.bags == ref.bags
    assert out.tree_adj == ref.tree_adj
    assert out.tree_edges == ref.tree_edges
    size = len(args[1])
    assert heaviest_path(glued, size).relative_weight == heaviest_path(whole, size).relative_weight


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(1, 6))
def test_glued_empty_nodes_are_span_nodes_or_stand_ins(seed, n, t):
    """Each empty node lies between two nonempty ones, or is a leaf on an empty larger id."""
    glued = tdcut._glue_decompositions(*random_glue_input(seed, n, t))
    order, parent = bfs_tree(glued.tree_adj, 1)
    full = [0] * (glued.num_nodes + 1)  # nonempty nodes in each subtree
    for i in reversed(order):
        full[i] += bool(glued.bag(i))
        full[parent[i]] += full[i]
    for i in glued.nodes():
        if glued.bag(i):
            continue
        around = [full[w] for w in glued.tree_adj[i] if parent[w] == i]
        around.append(full[1] - full[i])  # the side above i
        if sum(map(bool, around)) >= 2:
            continue
        (w,) = glued.tree_adj[i]
        assert not glued.bag(w) and w > i


@settings(max_examples=300, deadline=None)
@given(redundant_decompositions())
def test_make_nonredundant_returns_a_nonredundant_input_itself(td):
    out = make_nonredundant(td)
    assert make_nonredundant(out) is out
    ref = oracles.make_nonredundant_rescan(out)
    assert ref.bags == out.bags and ref.tree_edges == out.tree_edges


def test_make_nonredundant_returns_the_path_decomposition_itself():
    td = p4_td()
    assert make_nonredundant(td) is td


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4))
def test_derived_decompositions_stay_valid(seed, n, t):
    """What the peel loop derives from a checked decomposition is valid without a check.

    A remainder is the input with the cut vertices isolated, in the
    input's ids; its decomposition is the input's induced on the kept
    vertices (``induced``), and the cuts then normalize it.
    """
    rng = Xorshift64Star(seed)
    g, td = random_partial_ktree(n, t, rng)
    assert not validation_errors(make_nonredundant(td), g)
    keep = sorted(rng.sample(list(range(1, n + 1)), rng.randint(1, n)))
    rest = Graph(n, [(u, v) for u, v in g.edges if u in keep and v in keep])
    dead = [("T1", v) for v in range(1, n + 1) if v not in keep]
    for sub_td in (induced(td, keep), make_nonredundant(induced(td, keep))):
        assert not oracles.live_decomposition_errors(sub_td, rest, keep)
        assert validation_errors(sub_td, rest) == dead  # only the cut ids lie in no cluster


def heaviest_path_outcome(fn, td, n):
    """The result, or the invariant violation a broken (T3) shows up as."""
    try:
        return fn(td, n)
    except InvariantViolation:
        return InvariantViolation


@settings(max_examples=400, deadline=None)
@given(redundant_decompositions())
def test_heaviest_path_matches_the_candidate_list_version_on_small_decompositions(td):
    for given_td in (td, make_nonredundant(td)):
        assert heaviest_path_outcome(heaviest_path, given_td, 4) == \
            heaviest_path_outcome(oracles.heaviest_path_candidate_list, given_td, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4))
def test_heaviest_path_matches_the_candidate_list_version_on_induced_halves(seed, n, t):
    rng = Xorshift64Star(seed)
    _, td = random_partial_ktree(n, t, rng)
    sub = induced(td, rng.sample(list(range(1, n + 1)), n // 2))
    for given_td in (td, sub, make_nonredundant(sub)):
        assert heaviest_path(given_td, n) == oracles.heaviest_path_candidate_list(given_td, n)


def test_heaviest_path_path_shaped():
    td = p4_td()
    res = heaviest_path(td, 4)
    assert res.weight == 4 and res.relative_weight == 1
    assert res.path == (1, 2, 3)


def test_heaviest_path_small_matches_bruteforce():
    td = TreeDecomposition(
        [{1, 2}, {2, 3}, {3, 4, 5}, {5, 6}, {3, 7}, {7, 8, 9}],
        [(1, 2), (2, 3), (3, 4), (3, 5), (5, 6)],
    )
    assert heaviest_path(td, 9).weight == oracles.naive_heaviest_path_weight(td)


def test_heaviest_path_random_matches_bruteforce():
    rng = Xorshift64Star(777)
    for _ in range(80):
        g, td = random_partial_ktree(rng.randint(2, 26), rng.randint(2, 4), rng)
        res = heaviest_path(td, g.n)
        assert res.weight == oracles.naive_heaviest_path_weight(td)
        union = set()
        for i in res.path:
            union |= td.bag(i)
        assert len(union) == res.weight
        assert Fraction(1, g.n) <= res.relative_weight <= 1


def test_width1_td_of_tree_reaches_diameter_weight():
    rng = Xorshift64Star(31337)
    for _ in range(50):
        tree = random_tree_maxdeg(rng.randint(2, 40), 5, rng)
        td = oracles.tree_to_width1_td(tree)
        assert not validation_errors(td, tree)
        assert td.width <= 1
        r = heaviest_path(td, tree.n).relative_weight
        assert r >= Fraction(len(require_tree(tree, "test").path), tree.n)


def test_heaviest_path_on_induced_decompositions():
    # induced decompositions carry empty clusters; the DP must stay exact
    rng = Xorshift64Star(17)
    for _ in range(60):
        g, td = random_partial_ktree(rng.randint(4, 22), 3, rng)
        keep = {v for v in g.vertices() if rng.chance(2, 3)}
        sub = induced(td, keep)
        assert heaviest_path(sub, max(1, len(keep))).weight == \
            oracles.naive_heaviest_path_weight(sub)


def test_heaviest_path_dominates_sampled_paths():
    rng = Xorshift64Star(606060)
    samples = 0
    while samples < 1000:
        g, td = random_partial_ktree(rng.randint(2, 30), 3, rng)
        best = heaviest_path(td, g.n).weight
        import networkx as nx

        h = nx.Graph()
        h.add_nodes_from(range(1, td.num_nodes + 1))
        h.add_edges_from(td.tree_edges)
        for _ in range(25):
            a = rng.randint(1, td.num_nodes)
            b = rng.randint(1, td.num_nodes)
            union = set()
            for i in nx.shortest_path(h, a, b):
                union |= td.bag(i)
            assert len(union) <= best
            samples += 1


def test_td_roundtrip_and_errors():
    td = p4_td()
    text = write_td(td, 4, comment="demo")
    back, n = parse_td(text)
    assert n == 4 and back.bags == td.bags and back.tree_edges == td.tree_edges
    assert write_td(back, n) == write_td(td, 4, comment="demo").replace("c demo\n", "")

    with pytest.raises(FormatError):
        parse_td("b 1 1 2\n")  # bag before header
    with pytest.raises(FormatError):
        parse_td("s td 2 2 3\nb 1 1 2\nb 1 2 3\n1 1\n")  # duplicate bag id
    with pytest.raises(FormatError):
        parse_td("s td 1 2 3\nb 1 1 2 9\n")  # vertex out of range
    with pytest.raises(FormatError):
        parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n")  # missing tree edge
    with pytest.raises(FormatError):
        parse_td("s td 1 3 3\nb 1 1 2\n")  # declared max bag size wrong
