import re
import time
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    FILE_EDITS, FILE_TOKENS, TREE_SHAPES, diam_star, mixed_forest, mutate, path, star,
)
from ksec.errors import FormatError, KsecError, NotAForest, NotAPartition, NotATree, ResourceLimit
from ksec.graph import (
    Cut,
    Graph,
    _forest_summary,
    bfs_tree,
    component_orders,
    cut_width,
    first_bad,
    forest_summary,
    induced_sorted,
    is_int,
    max_degree,
    parse_gr,
    require_tree,
    write_gr,
)
from ksec.instances import Xorshift64Star, random_partial_ktree, random_tree_maxdeg


def test_graph_rejects_bad_edges():
    with pytest.raises(KsecError):
        Graph(3, [(1, 1)])
    with pytest.raises(KsecError):
        Graph(3, [(1, 4)])
    with pytest.raises(KsecError):
        Graph(3, [(1, 2), (2, 1)])


def test_validate_forest_examples():
    assert len(forest_summary(path(4))) == 1
    with pytest.raises(NotAForest, match=r"edge \(2,3\) closes a cycle"):
        forest_summary(Graph(3, [(1, 2), (2, 3), (1, 3)]))
    assert len(forest_summary(Graph(3, []))) == 3


def test_max_degree_examples():
    assert max_degree(star(5)) == 4
    assert max_degree(path(5)) == 2
    assert max_degree(Graph(1, [])) == 0


def components(g):
    orders, _ = component_orders(g)
    assert [(c.root, c.size) for c in forest_summary(g)] == [(o[0], len(o)) for o in orders]
    return [set(o) for o in orders]


def longest_path(tree):
    return require_tree(tree, "test").path


def test_components_examples():
    g = Graph(5, [(1, 2), (2, 3), (4, 5)])
    assert components(g) == [{1, 2, 3}, {4, 5}]
    assert components(path(4)) == [{1, 2, 3, 4}]
    assert components(Graph(2, [])) == [{1}, {2}]


def test_longest_path_examples():
    assert longest_path(path(6)) == (1, 2, 3, 4, 5, 6)
    lp = longest_path(star(4))
    assert len(lp) == 3 and lp[1] == 1  # leaf-center-leaf
    with pytest.raises(NotATree):
        longest_path(Graph(4, [(1, 2), (3, 4)]))


def test_longest_path_adversarial_contains_path_part_and_root():
    from ksec.instances import adversarial_ternary_path

    g = adversarial_ternary_path(2)
    t = (3 ** 3 - 1) // 2
    lp = set(longest_path(g))
    assert set(range(t + 1, 2 * t + 1)) <= lp
    assert 1 in lp  # the ternary root


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(2, 200))
def test_longest_path_matches_bfs_diameter(seed, n):
    g = random_tree_maxdeg(n, 5, Xorshift64Star(seed))
    assert len(longest_path(g)) - 1 == oracles.bfs_diameter(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(1, 40), st.integers(0, 3))
def test_forest_summary_matches_bfs_diameter(seed, n_hi, isolated):
    rng = Xorshift64Star(seed)
    base = oracles.random_forest(rng, n_lo=1, n_hi=n_hi, drop=5)
    g = Graph(base.n + isolated, base.edges)  # trailing isolated vertices
    comps = forest_summary(g)
    expected = sorted((sorted(c) for c in nx.connected_components(oracles.to_nx(g))), key=min)
    assert [sorted(o) for o in component_orders(g)[0]] == expected
    assert [(c.root, c.size) for c in comps] == [(min(e), len(e)) for e in expected]
    for c, members in zip(comps, expected):
        sub = induced_sorted(g, sorted(members))
        assert c.diameter == oracles.bfs_diameter(sub)
        assert c.path[0] <= c.path[-1] and len(set(c.path)) == len(c.path)
        assert all(b in g.adj[a] for a, b in zip(c.path, c.path[1:]))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(1, 60))
def test_forest_summary_of_live_ids_is_that_of_their_induced_forest(seed, n_hi):
    """Summarizing the live ids of a graph whose other ids are isolated relabels nothing.

    The peel's remainders keep their input's ids; their summary must be
    the one of the induced forest, whose ids are the live ones in order.
    """
    rng = Xorshift64Star(seed)
    g = oracles.random_forest(rng, n_lo=1, n_hi=n_hi, drop=5)
    live = sorted(rng.sample(list(g.vertices()), rng.randint(0, g.n)))
    alive = set(live)
    cut = Graph(g.n, [e for e in g.edges if alive.issuperset(e)])
    old_of = sorted(set(live))
    sub = induced_sorted(g, old_of)
    back = [(old_of[c.root - 1], c.size, tuple(old_of[u - 1] for u in c.path))
            for c in forest_summary(sub)]
    assert _forest_summary(cut, live) == back


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 60),
       st.lists(st.sampled_from(sorted(TREE_SHAPES)), min_size=1, max_size=4))
def test_level_sweeps_summarize_like_fifo_sweeps_with_depths(seed, shapes):
    """The level sweeps give the FIFO sweep's order and parents, and the far ends depths gave.

    Paths, stars and caterpillars tie several vertices on a last level,
    where the far end is the smallest id.  A summary of live ids leaves
    the others isolated; a cycle is named by the same edge.
    """
    rng = Xorshift64Star(seed)
    g = mixed_forest(rng, shapes)
    for root in {1, g.n, rng.randint(1, g.n)}:
        assert bfs_tree(g.adj, root) == oracles.fifo_bfs_tree(g.adj, root)
    assert forest_summary(g) == oracles.forest_summary_by_depths(g)
    live = sorted(rng.sample(list(g.vertices()), rng.randint(0, g.n)))
    alive = set(live)
    cut = Graph(g.n, [e for e in g.edges if alive.issuperset(e)])
    assert _forest_summary(cut, live) == oracles.forest_summary_by_depths(cut, live)
    extra = next(((o[0], v) for o in component_orders(g)[0] for v in o[1:]
                  if v not in g.adj[o[0]]), None)  # a chord of one component
    if extra is not None:
        cyclic = Graph(g.n, [*g.edges, extra])
        with pytest.raises(NotAForest) as expected:
            oracles.forest_summary_by_depths(cyclic)
        with pytest.raises(NotAForest, match=re.escape(str(expected.value))):
            forest_summary(cyclic)


def test_forest_summary_single_vertex_and_cycle():
    (only,) = forest_summary(Graph(1, []))
    assert only == (1, 1, (1,)) and only.diameter == 0
    rng = Xorshift64Star(77)
    for _ in range(50):
        tree = random_tree_maxdeg(rng.randint(3, 40), 4, rng)
        extra = next((u, v) for u in tree.vertices() for v in tree.vertices()
                     if u < v and v not in tree.adj[u])
        with pytest.raises(NotAForest):
            forest_summary(Graph(tree.n, list(tree.edges) + [extra]))


def test_relative_diameter_examples():
    assert diam_star(path(7)) == 1
    assert diam_star(star(4)) == Fraction(3, 4)
    forest = Graph(8, [(1, 2), (1, 3), (1, 4), (5, 6), (6, 7), (7, 8)])
    assert diam_star(forest) == Fraction(7, 8)


def test_cut_width_examples():
    g = path(9)
    assert cut_width(g, [{1, 2, 3}, {4, 5, 6}, {7, 8, 9}]) == 2
    assert cut_width(g, [set(range(1, 10))]) == 0
    assert cut_width(star(7), [{2, 3, 4}, {1, 5, 6, 7}]) == 3
    with pytest.raises(NotAPartition):
        cut_width(g, [{1, 2}, {2, 3}])
    with pytest.raises(NotAPartition):
        cut_width(g, [{1, 2, 3}])


def test_cut_width_takes_ids_of_an_int_subclass_and_one_pass_parts():
    """Ids that are no plain ``int`` miss the C-level scans and are checked one by one."""

    class Id(int):
        pass

    g = path(9)
    assert cut_width(g, [[Id(v) for v in range(1, 5)], iter(range(5, 10))]) == 1
    with pytest.raises(NotAPartition, match="vertex 4 repeated or out of range"):
        cut_width(g, [[Id(v) for v in range(1, 5)], iter(range(4, 10))])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(2, 40), st.integers(2, 5))
def test_cut_width_matches_recount(seed, n, k):
    rng = Xorshift64Star(seed)
    g = random_tree_maxdeg(n, 6, rng)
    parts = [set() for _ in range(k)]
    for v in g.vertices():
        parts[rng.randint(0, k - 1)].add(v)
    assert cut_width(g, parts) == oracles.recount_cut(g, parts)


def linked(g):
    return oracles.link_summarized(g, forest_summary(g))


def test_link_components_examples():
    g = Graph(7, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7)])
    t = linked(g)
    assert len(forest_summary(t)) == 1
    assert len(t.edges) == len(g.edges) + 1
    assert diam_star(t) == 1  # P7

    connected = path(5)
    assert linked(connected) is connected

    two_stars = Graph(8, [(1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (5, 8)])
    t = linked(two_stars)
    assert diam_star(t) == Fraction(6, 8)
    assert max_degree(t) == 3


def test_link_components_preserves_invariants_many():
    rng = Xorshift64Star(20240809)
    for _ in range(1000):
        g = oracles.random_forest(rng, n_lo=2, n_hi=40)
        t = linked(g)
        assert g.edges <= t.edges  # any cut in t is at least as wide in g
        assert len(forest_summary(t)) == 1
        assert diam_star(t) == diam_star(g)
        if max_degree(g) >= 2:
            assert max_degree(t) == max_degree(g)


def test_gr_roundtrip_and_errors():
    g = Graph(4, [(1, 2), (2, 3), (2, 4)])
    text = write_gr(g, comment="demo")
    assert parse_gr(text) == g
    assert parse_gr(write_gr(parse_gr(text))) == g

    with pytest.raises(FormatError) as err:
        parse_gr("p ks 3 1\n1 5\n")
    assert err.value.line == 2
    with pytest.raises(FormatError):
        parse_gr("1 2\n")
    with pytest.raises(FormatError):
        parse_gr("p ks 3 2\n1 2\n")  # declared edge count mismatch
    with pytest.raises(FormatError):
        parse_gr("p ks 3 2\n1 2\n1 2\n")  # duplicate edge


def test_induced_subgraph_relabels_densely():
    g = path(6)
    old = sorted({2, 3, 5, 6})
    sub = induced_sorted(g, old)
    assert sub.n == 4 and old == [2, 3, 5, 6]
    assert sub.edges == frozenset({(1, 2), (3, 4)})
    assert require_tree(path(9), "test").diameter == 8


@pytest.mark.parametrize(
    "n, edges, named",
    [
        (2.5, [], "got 2.5"),
        ("3", [], "got '3'"),
        (True, [], "got True"),
        (3, [(1, 2, 3)], r"edge \(1, 2, 3\) is not a pair"),
        (3, [5], "edge 5 is not a pair"),
        (3, [(1.0, 2)], r"vertex id 1\.0 in edge \(1\.0, 2\) is not an integer"),
        (3, [(1, 2), (2, "3")], "vertex id '3'"),
        (3, iter([(1, 2), (2, 3.0)]), r"vertex id 3\.0"),
    ],
)
def test_graph_names_a_count_edge_or_id_of_the_wrong_type(n, edges, named):
    with pytest.raises(KsecError, match=named):
        Graph(n, edges)


ID_LIKE = st.one_of(
    st.integers(-3, 12), st.booleans(), st.none(), st.floats(allow_nan=False),
    st.text(max_size=2), st.lists(st.integers(0, 3), max_size=2),
)


@given(
    st.one_of(st.lists(st.integers(-3, 12)), st.lists(ID_LIKE)), st.integers(-2, 4), st.integers(0, 10)
)
def test_first_bad_names_what_a_plain_scan_names(values, lo, hi):
    scan = next(((v,) for v in values if not (is_int(v) and lo <= v <= hi)), None)
    assert first_bad(values, lo, hi) == scan


def test_cut_width_is_counted_from_either_side():
    g = star(6)
    assert Cut._trusted(g, [1]).width == 5
    assert Cut._trusted(g, [2, 3, 4, 5, 6]).width == 5
    assert Cut._trusted(g, []).width == Cut._trusted(g, g.vertices()).width == 0


def assert_checked_equal(derived, n, edges):
    """``derived`` is the graph the checked constructor builds from (n, edges)."""
    checked = Graph(n, edges)
    assert derived.n == checked.n and derived.adj == checked.adj
    assert derived.edges == checked.edges and derived.num_edges == checked.num_edges
    assert derived == checked and hash(derived) == hash(checked)


def forest_or_partial_ktree(seed, use_ktree):
    rng = Xorshift64Star(seed)
    if use_ktree:
        return random_partial_ktree(rng.randint(1, 40), rng.randint(2, 4), rng)[0], rng
    return oracles.random_forest(rng, n_lo=1, n_hi=40, drop=5), rng


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 60), st.sampled_from(["forest", "ktree", "peeled"]))
def test_trusted_derived_graphs_equal_checked_ones(seed, shape):
    """Each derived graph skips the checked constructor, yet equals what it would build.

    A "peeled" graph has the shape of the decomposition peel's remainder:
    a partial k-tree whose cut ids keep no edge, with the kept ids and the
    cluster drawn from the live rest.
    """
    g, rng = forest_or_partial_ktree(seed, shape != "forest")
    live = list(g.vertices())
    if shape == "peeled":
        cut = set(rng.sample(live, rng.randint(0, g.n)))
        g = Graph(g.n, [(u, v) for u, v in g.edges if u not in cut and v not in cut])
        live = [v for v in live if v not in cut]
    keep = sorted(rng.sample(live, rng.randint(0, len(live))))
    new_of = {v: i for i, v in enumerate(keep, start=1)}
    inside = [(new_of[u], new_of[v]) for u, v in g.edges if u in new_of and v in new_of]
    assert_checked_equal(induced_sorted(g, keep), len(keep), inside)
    old = sorted(set(reversed(keep)))
    assert old == keep
    assert_checked_equal(induced_sorted(g, old), len(keep), inside)

    bag = frozenset(rng.sample(live, rng.randint(0, min(4, len(live)))))
    outside = [(new_of[u], new_of[v]) for u, v in g.edges
               if u in new_of and v in new_of and u not in bag and v not in bag]
    assert_checked_equal(induced_sorted(g, keep, without=bag), len(keep), outside)

    if shape == "forest":
        # the linking lemma on the reference linked tree: diam* and Δ >= 2 stay
        comps = forest_summary(g)
        linked = oracles.link_summarized(g, comps)
        assert len(forest_summary(linked)) == 1 and diam_star(linked) == diam_star(g)
        if max_degree(g) >= 2:
            assert max_degree(linked) == max_degree(g)
        # the chained longest paths are a longest path of the linked tree
        chain = [v for c in comps for v in c.path]
        assert all(b in linked.adj[a] for a, b in zip(chain, chain[1:]))
        assert len(chain) - 1 == oracles.bfs_diameter(linked)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 60), FILE_EDITS)
def test_parse_gr_on_mutated_files_raises_only_typed_errors(seed, edits):
    rng = Xorshift64Star(seed)
    text = mutate(write_gr(random_tree_maxdeg(rng.randint(1, 9), 4, rng), comment="fuzz"), edits)
    try:
        g = parse_gr(text)
    except KsecError:
        return
    assert parse_gr(write_gr(g)) == g


# edit tokens for the parser's equivalence with its reference: loops, both orders of
# an edge, ids just out of range and a vertex count over the memory guard
GR_EDITS = st.lists(
    st.tuples(st.sampled_from(["token", "insert", "delete", "duplicate", "swap"]),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
              st.sampled_from([*FILE_TOKENS, "2 2", "1 2", "2 1", "0 1", "1 10", "-1 2",
                               "p ks 9 1", "p tw 3 0", f"p ks {10 ** 9} 0"])),
    max_size=4,
)


def _gr_text(rng) -> str:
    """A valid .gr text: up to 9 vertices, edges in random order and orientation, comments."""
    n = rng.randint(0, 9)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 12)))
    lines = [f"{u} {v}" if rng.chance(1, 2) else f"{v} {u}" for u, v in edges]
    lines.insert(rng.randint(0, len(lines)), "c a comment")
    return "\n".join([f"p {'ks' if rng.chance(1, 2) else 'tw'} {n} {len(edges)}", *lines, ""])


def _parsed(parse, text):
    """What ``parse`` makes of ``text``: the graph's n, adj, edges and edge count, or its error."""
    try:
        g = parse(text)
    except KsecError as exc:
        return type(exc), str(exc)
    return g.n, g.adj, g.edges, g.num_edges


@pytest.mark.parametrize("text", [
    "p ks 3 2\n1 2\n2 3\n", "p ks 3 1\n1 x\n", "p ks 3 1\n1 4\n", "p ks 3 1\n0 1\n",
    "p ks 3 1\n2 2\n", "p ks 3 2\n1 2\n2 1\n", "p ks 3 2\n1 2\n1 2\n", "p ks 3 2\n1 2\n",
    "p ks 3 0\n1 2\n", "1 2\n", "c only\n", "p ks 3 0\np ks 3 0\n", f"p ks {10 ** 9} 0\n",
    "p ks 3 -1\n", "p ks a 0\n", "p xx 3 0\n", "p ks 3 1\n1 2 3\n", "p ks 0 0\n", 5,
])
def test_parse_gr_checks_each_line_as_the_constructor_did(text):
    assert _parsed(parse_gr, text) == _parsed(oracles.parse_gr_through_the_constructor, text)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 60), GR_EDITS)
def test_parse_gr_gives_the_reference_graph_or_error_on_mutated_files(seed, edits):
    """The same n, adjacency, edges and edge count, or the same error type and message."""
    text = _gr_text(Xorshift64Star(seed))
    text = mutate(text, edits) if edits else text
    assert _parsed(parse_gr, text) == _parsed(oracles.parse_gr_through_the_constructor, text)


def test_parse_gr_names_a_vertex_count_over_the_memory_guard(monkeypatch):
    # the small case runs first: without a cap it allocates only a few MB, and fails here
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1")
    with pytest.raises(ResourceLimit, match="line 2: 100000 vertices need about 7 MB, over the 1 MB"):
        parse_gr("c small\np ks 100000 0\n")
    monkeypatch.delenv("KSEC_MAX_MEM_MB")
    assert parse_gr("p ks 100000 0\n").n == 100000
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="KSEC_MAX_MEM_MB"):
        parse_gr(f"p ks {10 ** 12} 0\n")
    assert time.perf_counter() - start < 1
