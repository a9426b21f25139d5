"""Metamorphic checks: relabeling an instance, and round trips through the file formats.

Relabeling vertices (and decomposition nodes) by a seeded permutation may
change which section the construction finds, since every tie is broken by
label, but not what it guarantees: the parts stay balanced, with the same
multiset of sizes, and the width stays within the bounds of the relabeled
instance, whose diameter, maximum degree and width are those of the
original.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ksec import bounds
from ksec.engine import ksection_td, ksection_tree
from ksec.graph import Graph, parse_gr, write_gr
from ksec.instances import Xorshift64Star, random_partial_ktree, random_tree_maxdeg
from ksec.oracle import balanced_sizes
from ksec.treedec import TreeDecomposition, parse_td, write_td


def _permutation(n, rng):
    """perm[v] is the new label of v, for v in 1..n; perm[0] is unused."""
    return [0, *rng.sample(list(range(1, n + 1)), n)]


def _relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _relabel_td(td, perm, node_perm):
    bags = [None] * td.num_nodes
    for i in td.nodes():
        bags[node_perm[i] - 1] = {perm[v] for v in td.bag(i)}
    return TreeDecomposition(bags, [(node_perm[i], node_perm[j]) for i, j in td.tree_edges])


def _check_balanced(g, section, k):
    assert sorted(map(len, section.parts)) == sorted(balanced_sizes(g.n, k))
    assert set().union(*section.parts) == set(g.vertices())
    assert section.width == oracles.recount_cut(g, section.parts)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 200), st.integers(3, 6),
       st.sampled_from([2, 3, 4, 8]))
def test_relabeled_tree_sections_stay_balanced_and_bounded(seed, n, cap, k):
    rng = Xorshift64Star(seed)
    g = random_tree_maxdeg(n, cap, rng)
    h = _relabel(g, _permutation(n, rng))
    (sec_g, rep_g), (sec_h, rep_h) = ksection_tree(g, k), ksection_tree(h, k)
    assert (rep_h.diam, rep_h.max_degree) == (rep_g.diam, rep_g.max_degree)
    for graph, sec, rep in ((g, sec_g, rep_g), (h, sec_h, rep_h)):
        _check_balanced(graph, sec, k)
        assert sec.width <= rep.bound_tree
        assert bounds.ksection_tree_bound_improved_holds(
            sec.width, k, n, rep.diam, rep.max_degree
        )


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4), st.sampled_from([2, 3, 4]))
def test_relabeled_decomposition_sections_stay_balanced_and_bounded(seed, n, t, k):
    rng = Xorshift64Star(seed)
    g, td = random_partial_ktree(n, t, rng)
    perm = _permutation(n, rng)
    h, td_h = _relabel(g, perm), _relabel_td(td, perm, _permutation(td.num_nodes, rng))
    (sec_g, rep_g), (sec_h, rep_h) = ksection_td(g, td, k), ksection_td(h, td_h, k)
    assert (rep_h.t, rep_h.max_degree) == (rep_g.t, rep_g.max_degree)
    for graph, sec, rep in ((g, sec_g, rep_g), (h, sec_h, rep_h)):
        _check_balanced(graph, sec, k)
        assert rep.max_degree == 0 or bounds.ksection_td_bound_holds(
            sec.width, k, rep.r, rep.t, rep.max_degree
        )


comments = st.none() | st.text(alphabet="abc xyz019\n", max_size=20)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(1, 80), st.integers(2, 5), comments)
def test_tree_files_round_trip(seed, n, cap, comment):
    g = random_tree_maxdeg(n, cap, Xorshift64Star(seed))
    assert parse_gr(write_gr(g, comment)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(1, 80), st.integers(1, 4), comments)
def test_partial_ktree_files_round_trip(seed, n, t, comment):
    g, td = random_partial_ktree(n, t, Xorshift64Star(seed))
    assert parse_gr(write_gr(g, comment)) == g
    back, declared_n = parse_td(write_td(td, n, comment))
    assert declared_n == n
    assert back.bags == td.bags and back.tree_edges == td.tree_edges
