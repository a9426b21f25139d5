import re

import pytest

import oracles
from ksec.graph import max_degree, require_tree, write_gr
from ksec.instances import (
    BadParameters,
    GeneratorSpec,
    Xorshift64Star,
    adversarial_ternary_path,
    caterpillar_graph,
    generate,
    perfect_dary_tree,
    spider_graph,
)
from ksec.treedec import validation_errors, write_td


def test_xorshift_is_stable():
    rng = Xorshift64Star(1)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = Xorshift64Star(1)
    assert first == [rng2.next_u64() for _ in range(3)]
    assert Xorshift64Star(0).state != 0  # zero seed maps to a fixed nonzero state


def test_randint_bounds():
    rng = Xorshift64Star(9)
    draws = [rng.randint(3, 7) for _ in range(200)]
    assert set(draws) <= set(range(3, 8))
    assert len(set(draws)) == 5


@pytest.mark.parametrize(
    "method, args, named",
    [
        ("randint", (3, 1), "empty range [3,1]"),
        ("randint", ("a", 2), "lo 'a'"),
        ("randint", (1, 2.5), "hi 2.5"),
        ("chance", (1, 0), "den 0"),
        ("chance", (1, "x"), "den 'x'"),
        ("chance", (None, 2), "num None"),
        ("chance", (1.5, 2), "num 1.5"),
        ("chance", (0.5, 2), "num 0.5"),
        ("sample", ([1, 2], 5), "count 5"),
        ("sample", ([1, 2], -1), "count -1"),
        ("sample", (3, 1), "3 is not a sequence"),
    ],
)
def test_xorshift_names_bad_arguments(method, args, named):
    with pytest.raises(BadParameters, match=re.escape(named)):
        getattr(Xorshift64Star(1), method)(*args)


def test_generate_deterministic_bytes():
    spec = GeneratorSpec(family="random_tree_maxdeg", n=40, max_degree=4, seed=99)
    g1, _ = generate(spec)
    g2, _ = generate(spec)
    assert write_gr(g1) == write_gr(g2)

    spec_td = GeneratorSpec(family="random_partial_ktree", n=25, t=3, seed=5)
    ga, tda = generate(spec_td)
    gb, tdb = generate(spec_td)
    assert write_gr(ga) == write_gr(gb)
    assert write_td(tda, ga.n) == write_td(tdb, gb.n)


def test_simple_families():
    g, td = generate(GeneratorSpec(family="path", n=5))
    assert td is None and g.edges == frozenset({(1, 2), (2, 3), (3, 4), (4, 5)})
    g, _ = generate(GeneratorSpec(family="star", n=6))
    assert max_degree(g) == 5
    g = caterpillar_graph(16)
    assert g.n == 16 and require_tree(g, "test")
    g = spider_graph(3, 4)
    assert g.n == 13 and len(g.adj[1]) == 3
    g = perfect_dary_tree(2, 3)
    assert g.n == 15 and max_degree(g) == 3


def test_adversarial_structure():
    for h in (1, 2, 3):
        g = adversarial_ternary_path(h)
        t = (3 ** (h + 1) - 1) // 2
        assert g.n == 2 * t
        assert require_tree(g, "test")
        assert max_degree(g) == 4
        # longest path: through the whole path part, the bridge, and down
        # one ternary branch: (t - 1) + 1 + h edges
        assert oracles.bfs_diameter(g) == t + h


def test_random_trees_respect_degree_cap():
    rng = Xorshift64Star(777)
    for _ in range(50):
        n = rng.randint(2, 60)
        cap = rng.randint(2, 6)
        g, _ = generate(GeneratorSpec(family="random_tree_maxdeg", n=n, max_degree=cap, seed=rng.next_u64()))
        assert require_tree(g, "test")
        assert len(g.edges) == n - 1
        assert max_degree(g) <= cap


def test_random_partial_ktree_valid():
    rng = Xorshift64Star(101)
    for _ in range(40):
        n = rng.randint(1, 50)
        t = rng.randint(1, 4)
        g, td = generate(GeneratorSpec(family="random_partial_ktree", n=n, t=t, seed=rng.next_u64()))
        assert td is not None
        assert not validation_errors(td, g)
        assert td.width <= t - 1


def test_bad_parameters():
    with pytest.raises(BadParameters):
        generate(GeneratorSpec(family="no-such-family", n=3))
    with pytest.raises(BadParameters):
        generate(GeneratorSpec(family="path"))
    with pytest.raises(BadParameters):
        generate(GeneratorSpec(family="perfect_dary", arity=1, height=2))
