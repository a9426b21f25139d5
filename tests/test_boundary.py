"""Input checks at the public entry points: each rejects bad input with a typed error."""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ksec
from conftest import TREE_SHAPES, mixed_forest, path
from ksec.cli import cmd_labeling
from ksec.engine import (
    cut_prescribed_sizes,
    ksection_td,
    ksection_tree,
    recursive_bisection_baseline,
)
from ksec.errors import (
    InvariantViolation,
    KOutOfRange,
    KsecError,
    MOutOfRange,
    NotAForest,
    NotAPartition,
    NotATree,
    NotATreeDecomposition,
    ResourceLimit,
    SizesDontSum,
)
from ksec.graph import (
    Graph,
    KSection,
    TreeSummary,
    bfs_tree,
    cut_width,
    forest_summary,
    parse_gr,
    write_gr,
)
from ksec.instances import (
    BadParameters,
    GeneratorSpec,
    Xorshift64Star,
    generate,
    random_partial_ktree,
    random_tree_maxdeg,
)
from ksec.labeling import _p_labeling, find_anchor
from ksec.oracle import brute_min_ksection, dp_min_size_cut_td, dp_min_size_cut_tree
from ksec.tdcut import approximate_cut_td, r_preserving_cut
from ksec.treecut import approximate_cut, diameter_preserving_cut
from ksec.treedec import (
    HeaviestPathResult,
    TDSummary,
    TreeDecomposition,
    heaviest_path,
    induced,
    make_nonredundant,
    parse_td,
    td_summary,
    validation_errors,
    write_td,
)
from oracles import tree_to_width1_td


# a 5-cycle with a pendant vertex; BFS from 1 leaves (3,4) as the closing edge
CYCLE = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (5, 6)])
DISCONNECTED = Graph(5, [(1, 2), (2, 3), (4, 5)])


def labeling_command(g):
    """The p-labeling of g as ``ksec labeling`` computes it, its one public entry point."""
    with tempfile.TemporaryDirectory() as tmp:
        gr = Path(tmp) / "g.gr"
        gr.write_text(write_gr(g))
        return cmd_labeling(argparse.Namespace(input=str(gr), json=str(Path(tmp) / "out.json")))


TREE_ENTRY_POINTS = {
    "approximate_cut": lambda g: approximate_cut(g, 1, 2),
    "ksection_tree": lambda g: ksection_tree(g, 2),
    "p_labeling": labeling_command,
    "tree_to_width1_td": tree_to_width1_td,  # the test oracle keeps its tree check
}

FOREST_ENTRY_POINTS = {
    "diameter_preserving_cut": lambda g: diameter_preserving_cut(g, 2),
    "cut_prescribed_sizes": lambda g: cut_prescribed_sizes(g, [2, 4]),
    "dp_min_size_cut_tree": lambda g: dp_min_size_cut_tree(g, 2),
    "recursive_bisection_baseline": lambda g: recursive_bisection_baseline(g, 2),
}


@pytest.mark.parametrize("name", sorted(TREE_ENTRY_POINTS))
def test_tree_entry_points_reject_cycles_and_disconnected_graphs(name):
    call = TREE_ENTRY_POINTS[name]
    with pytest.raises(NotATree, match=r"\(3,4\) closes a cycle"):
        call(CYCLE)
    with pytest.raises(NotATree, match="vertices 1 and 4 are not connected"):
        call(DISCONNECTED)


@pytest.mark.parametrize("name", sorted(TREE_ENTRY_POINTS))
def test_tree_entry_points_reject_the_empty_graph(name):
    with pytest.raises(NotATree, match="the graph is empty"):
        TREE_ENTRY_POINTS[name](Graph(0, []))


@pytest.mark.parametrize("name", sorted(FOREST_ENTRY_POINTS))
def test_forest_entry_points_reject_cycles(name):
    with pytest.raises(NotAForest, match=r"\(3,4\) closes a cycle"):
        FOREST_ENTRY_POINTS[name](CYCLE)


@pytest.mark.parametrize("v", [0, 7, 99, 2.5, "a", True, False])
def test_approximate_cut_names_a_vertex_out_of_range(v):
    named = rf"approximate_cut: vertex {v!r} out of vertex range 1\.\.6"
    with pytest.raises(KsecError, match=named) as exc:
        approximate_cut(path(6), v, 2)
    assert not isinstance(exc.value, InvariantViolation)


# each cut entry point on path(6), called with the size m it is handed, and the sizes it takes
CUT_ENTRY_POINTS = {
    "approximate_cut": (lambda m: approximate_cut(path(6), 1, m), "1..10"),
    "approximate_cut_td": (
        lambda m: approximate_cut_td(path(6), tree_to_width1_td(path(6)), m), "1..12",
    ),
    "diameter_preserving_cut": (lambda m: diameter_preserving_cut(path(6), m), "1..5"),
    "dp_min_size_cut_td": (
        lambda m: dp_min_size_cut_td(path(6), tree_to_width1_td(path(6)), m), "0..6",
    ),
    "dp_min_size_cut_tree": (lambda m: dp_min_size_cut_tree(path(6), m), "0..6"),
    "find_anchor": (
        lambda m: find_anchor(_p_labeling(path(6), [1, 2, 3, 4, 5, 6])[0], m), "1..5",
    ),
    "r_preserving_cut": (
        lambda m: r_preserving_cut(path(6), tree_to_width1_td(path(6)), m), "1..5",
    ),
}


@pytest.mark.parametrize("m", [2.5, "a", True, False, None])
@pytest.mark.parametrize("name", sorted(CUT_ENTRY_POINTS))
def test_cut_entry_points_name_an_m_that_is_not_an_integer(name, m):
    call, sizes = CUT_ENTRY_POINTS[name]
    with pytest.raises(MOutOfRange) as exc:
        call(m)
    assert str(exc.value) == f"m={m!r} not in {sizes}"


@pytest.mark.parametrize("m", [-1, 13])
@pytest.mark.parametrize("name", sorted(CUT_ENTRY_POINTS))
def test_cut_entry_points_name_an_m_out_of_range(name, m):
    call, sizes = CUT_ENTRY_POINTS[name]
    with pytest.raises(MOutOfRange) as exc:
        call(m)
    assert str(exc.value) == f"m={m} not in {sizes}"


# each section entry point on path(6), called with the part count k it is handed
K_ENTRY_POINTS = {
    "brute_min_ksection": lambda k: brute_min_ksection(path(6), k),
    "ksection_td": lambda k: ksection_td(path(6), tree_to_width1_td(path(6)), k),
    "ksection_tree": lambda k: ksection_tree(path(6), k),
    "recursive_bisection_baseline": lambda k: recursive_bisection_baseline(path(6), k),
}


@pytest.mark.parametrize("k", [2.5, "a", True])
@pytest.mark.parametrize("name", sorted(K_ENTRY_POINTS))
def test_section_entry_points_name_a_k_that_is_not_an_integer(name, k):
    with pytest.raises(KOutOfRange, match=re.escape(f"k={k!r} must be an integer")):
        K_ENTRY_POINTS[name](k)


@pytest.mark.parametrize("m", [0, 6])
def test_find_anchor_names_an_m_out_of_range(m):
    with pytest.raises(MOutOfRange, match=re.escape(f"m={m} not in 1..5")):
        find_anchor(_p_labeling(path(6), [1, 2, 3, 4, 5, 6])[0], m)


# each public entry point given a non-iterable where it reads a sequence of ids
NOT_ITERABLE = {
    "cut_width": (lambda: cut_width(path(3), [1, 2, 3]), NotAPartition, "cut_width: 1"),
    "cut_width parts": (lambda: cut_width(path(3), 5), NotAPartition, "cut_width: 5"),
    "KSection.from_parts": (
        lambda: KSection.from_parts(path(3), [1, [2, 3]]), NotAPartition, "KSection.from_parts: 1",
    ),
    "KSection.from_parts parts": (
        lambda: KSection.from_parts(path(3), 5), NotAPartition, "KSection.from_parts: 5",
    ),
    "induced": (lambda: induced(tree_to_width1_td(path(3)), 5), KsecError, "induced: 5"),
    "Graph": (lambda: Graph(3, 5), KsecError, "Graph edges: 5"),
    "TreeDecomposition clusters": (
        lambda: TreeDecomposition(5, []), NotATreeDecomposition, "TreeDecomposition clusters: 5",
    ),
    "TreeDecomposition tree edges": (
        lambda: TreeDecomposition([[1]], 5), NotATreeDecomposition,
        "TreeDecomposition tree edges: 5",
    ),
    "cut_prescribed_sizes": (
        lambda: cut_prescribed_sizes(path(3), 5), SizesDontSum, "cut_prescribed_sizes: 5",
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_ITERABLE))
def test_a_non_iterable_id_sequence_is_named_with_a_typed_error(name):
    call, error, named = NOT_ITERABLE[name]
    with pytest.raises(error, match=re.escape(f"{named} is not a sequence of ids")):
        call()


# each public entry point given an argument of the wrong type, not a sequence of ids
WRONG_TYPE = {
    "parse_gr": (lambda: parse_gr(5), KsecError, "parse_gr: 5 is not a string"),
    "parse_td": (lambda: parse_td(5), KsecError, "parse_td: 5 is not a string"),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE))
def test_an_argument_of_the_wrong_type_is_named_with_a_typed_error(name):
    call, error, named = WRONG_TYPE[name]
    with pytest.raises(error, match=re.escape(named)):
        call()


@pytest.mark.parametrize("call", [
    lambda k: ksection_tree(path(3), k),
    lambda k: ksection_td(path(3), tree_to_width1_td(path(3)), k),
], ids=["ksection_tree", "ksection_td"])
def test_a_huge_k_trips_the_memory_guard_before_its_parts_are_built(monkeypatch, call):
    monkeypatch.setenv("KSEC_MAX_MEM_MB", "1")
    with pytest.raises(ResourceLimit, match="k=1000000 parts need about 190 MB, over the 1 MB"):
        call(10**6)
    monkeypatch.delenv("KSEC_MAX_MEM_MB")
    assert len(call(7)[0].parts) == 7


def run_capped(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a child under a 1 GiB address-space cap and a 64 MB memory guard.

    An allocation the guard lets through then ends the child with a bare
    ``MemoryError`` instead of exhausting the machine.
    """
    env = {**os.environ, "KSEC_MAX_MEM_MB": "64", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(ksec.__file__).resolve().parents[1])}
    capped = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    return subprocess.run([sys.executable, "-c", capped + code], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("call", [
    "brute_min_ksection(Graph(6, [(i, i + 1) for i in range(1, 6)]), 10**9)",
    "Graph(10**8, [(1, 2)])",
], ids=["brute_min_ksection", "Graph"])
def test_a_call_over_the_memory_guard_raises_resource_limit_before_allocating(call):
    out = run_capped(
        "from ksec.errors import ResourceLimit\nfrom ksec.graph import Graph\n"
        "from ksec.oracle import brute_min_ksection\n"
        f"try:\n    {call}\nexcept ResourceLimit as exc:\n    print(exc)\n"
    )
    assert out.returncode == 0, out.stderr
    assert "over the 64 MB of KSEC_MAX_MEM_MB" in out.stdout


def test_the_cli_exits_4_on_a_huge_k_for_the_brute_force_oracle(tmp_path):
    gr = tmp_path / "p6.gr"
    gr.write_text(write_gr(path(6)))
    argv = ["oracle", "minksec", "--input", str(gr), "-k", str(10**9)]
    out = run_capped(f"import sys\nfrom ksec.cli import main\nsys.exit(main({argv!r}))\n")
    assert out.returncode == 4, out.stderr
    assert "resource guard: k=1000000000 parts need about" in out.stderr


def test_graph_names_a_bool_vertex_id():
    with pytest.raises(KsecError, match=r"vertex id True in edge \(True, 2\) is not an integer"):
        Graph(3, [(True, 2), (2, 3)])


@pytest.mark.parametrize(
    "edge, named",
    [
        ((True, 2), r"node id True in edge \(True, 2\)"),
        (("1", 2), r"node id '1' in edge \('1', 2\)"),
        ((1.0, 2), r"node id 1\.0 in edge \(1\.0, 2\)"),
        ((1, 2, 3), r"edge \(1, 2, 3\) is not a pair of node ids"),
    ],
)
def test_tree_decomposition_names_a_tree_edge_that_is_not_a_pair_of_node_ids(edge, named):
    with pytest.raises(NotATreeDecomposition, match=named):
        TreeDecomposition([{1, 2}, {2, 3}], [edge])


def test_tree_decomposition_names_a_cluster_that_is_not_a_set():
    with pytest.raises(NotATreeDecomposition, match="cluster None of node 2"):
        TreeDecomposition([{1, 2}, None], [(1, 2)])


# each entry point that reads the clusters of a decomposition of path(3)
CLUSTER_ENTRY_POINTS = {
    "approximate_cut_td": lambda td: approximate_cut_td(path(3), td, 1),
    "dp_min_size_cut_td": lambda td: dp_min_size_cut_td(path(3), td, 1),
    "ksection_td": lambda td: ksection_td(path(3), td, 2),
    "r_preserving_cut": lambda td: r_preserving_cut(path(3), td, 1),
    "validation_errors": lambda td: validation_errors(td, path(3)),
}


@pytest.mark.parametrize("name", sorted(CLUSTER_ENTRY_POINTS))
def test_cluster_entry_points_name_a_cluster_vertex_that_is_not_an_id(name):
    named = "cluster of node 2 holds 'a', which is no vertex id"
    with pytest.raises(NotATreeDecomposition, match=named):
        CLUSTER_ENTRY_POINTS[name](TreeDecomposition([{1, 2}, {2, 3, "a"}], [(1, 2)]))


@pytest.mark.parametrize("bag, x", [({2, 3.0}, 3.0), ({2, 3, 2.5}, 2.5), ({2, 3, True}, True)])
def test_ksection_td_names_a_cluster_vertex_that_is_not_an_integer(bag, x):
    with pytest.raises(NotATreeDecomposition, match=f"cluster of node 2 holds {x!r}"):
        ksection_td(path(3), TreeDecomposition([{1, 2}, bag], [(1, 2)]), 2)


def test_cut_width_names_a_vertex_that_is_not_an_id():
    with pytest.raises(NotAPartition, match="vertex 'a' repeated or out of range"):
        cut_width(path(3), [[1, "a"], [2, 3]])


@pytest.mark.parametrize("bad", [9, 0, -1, 2.0, "a", None, [1]])
def test_cut_width_names_a_vertex_out_of_range(bad):
    # named, not a bare TypeError from indexing or hashing
    with pytest.raises(NotAPartition, match=re.escape(f"vertex {bad!r} repeated or out of range")):
        cut_width(path(4), [[1, 2], [bad, 4]])


@pytest.mark.parametrize("x", ["a", True])
def test_ksection_from_parts_names_a_vertex_that_is_not_an_id(x):
    with pytest.raises(NotAPartition, match=re.escape(f"vertex {x!r} repeated or out of range")):
        KSection.from_parts(path(3), [[1, x], [2, 3]])


# each numeric parameter other than an id or a size, handed a value that is no integer
COUNT_PARAMETERS = {
    "heaviest_path": (lambda: heaviest_path(tree_to_width1_td(path(3)), "x"),
                      "heaviest_path: vertex count 'x' must be an integer >= 1"),
    "td_summary": (lambda: td_summary(tree_to_width1_td(path(3)), 2.5),
                   "td_summary: vertex count 2.5 must be an integer >= 1"),
    "brute_min_ksection": (lambda: brute_min_ksection(path(3), 2, limit="x"),
                           "limit='x' must be an integer >= 0"),
    "dp_min_size_cut_td": (lambda: dp_min_size_cut_td(path(3), tree_to_width1_td(path(3)), 1,
                                                      max_width="x"),
                           "max_width='x' must be an integer >= 0"),
}


@pytest.mark.parametrize("name", sorted(COUNT_PARAMETERS))
def test_numeric_parameters_name_a_value_that_is_not_an_integer(name):
    call, named = COUNT_PARAMETERS[name]
    with pytest.raises(KsecError, match=re.escape(named)):
        call()


# each writer, handed one argument that would write a malformed file or fail untyped
WRITER_ARGUMENTS = {
    "write_gr comment": (lambda: write_gr(path(3), comment=5), "comment=5 is not a string"),
    "write_td comment": (lambda: write_td(tree_to_width1_td(path(3)), 3, comment=5),
                         "comment=5 is not a string"),
    "write_td n='x'": (lambda: write_td(tree_to_width1_td(path(3)), "x"),
                       "n='x' is not an integer >= 3"),
    "write_td n=1": (lambda: write_td(tree_to_width1_td(path(3)), 1), "n=1 is not an integer >= 3"),
}


@pytest.mark.parametrize("name", sorted(WRITER_ARGUMENTS))
def test_writers_name_a_bad_argument(name):
    call, named = WRITER_ARGUMENTS[name]
    with pytest.raises(KsecError, match=re.escape(named)):
        call()


def test_generate_names_a_parameter_that_is_not_an_integer():
    with pytest.raises(BadParameters, match="parameter 'n' must be an integer, got '3'"):
        generate(GeneratorSpec("path", n="3"))


def test_xorshift_names_a_seed_that_is_not_an_integer():
    with pytest.raises(BadParameters, match="Xorshift64Star: seed 'a' must be an integer"):
        Xorshift64Star("a")


def test_cut_prescribed_sizes_rejects_a_size_that_is_not_an_integer():
    with pytest.raises(SizesDontSum, match="positive integers"):
        cut_prescribed_sizes(path(6), ["a", 3])
    with pytest.raises(SizesDontSum, match="positive integers"):
        cut_prescribed_sizes(path(6), [3, 0, 3])
    with pytest.raises(SizesDontSum, match="positive integers"):
        cut_prescribed_sizes(path(6), [True, 5])


# decompositions of the path 1-2-3-4, each breaking one condition
T1_BROKEN = TreeDecomposition([{1, 2}, {2, 3}], [(1, 2)])  # vertex 4 in no cluster
T2_BROKEN = TreeDecomposition([{1, 2}, {3, 4}], [(1, 2)])  # edge (2,3) in no cluster
T3_BROKEN = TreeDecomposition([{1, 2}, {3, 4}, {2, 3}], [(1, 2), (2, 3)])  # 2 in nodes 1, 3 only


@pytest.mark.parametrize(
    "td, named",
    [(T1_BROKEN, "T1 at 4"), (T2_BROKEN, r"T2 at \(2, 3\)"), (T3_BROKEN, "T3 at 2")],
)
def test_ksection_td_rejects_invalid_decompositions(td, named):
    with pytest.raises(NotATreeDecomposition, match=named):
        ksection_td(path(4), td, 2)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g, td: r_preserving_cut(g, td, 2), id="r_preserving_cut"),
        pytest.param(lambda g, td: dp_min_size_cut_td(g, td, 2), id="dp_min_size_cut_td"),
    ],
)
def test_decomposition_cuts_reject_an_uncovered_edge(call):
    with pytest.raises(NotATreeDecomposition, match=r"T2 at \(2, 3\)"):
        call(path(4), T2_BROKEN)


@pytest.mark.parametrize(
    "td, named",
    [(T1_BROKEN, "T1 at 4"), (T2_BROKEN, r"T2 at \(2, 3\)"), (T3_BROKEN, "T3 at 2")],
)
def test_approximate_cut_td_rejects_invalid_decompositions(td, named):
    with pytest.raises(NotATreeDecomposition, match=f"approximate_cut_td: .*{named}"):
        approximate_cut_td(path(4), td, 2)


def test_diameter_preserving_cut_rejects_a_summary_of_another_forest():
    stale = forest_summary(DISCONNECTED)
    with pytest.raises(NotAPartition, match="2 component"):
        diameter_preserving_cut(path(5), 2, stale)
    with pytest.raises(NotAPartition, match="5 vertices"):
        diameter_preserving_cut(path(6), 2, forest_summary(path(5)))


def test_r_preserving_cut_rejects_a_summary_of_another_graph():
    p5_td = TreeDecomposition([{i, i + 1} for i in range(1, 5)], [(i, i + 1) for i in range(1, 4)])
    p4_td = TreeDecomposition([{1, 2}, {2, 3}, {3, 4}], [(1, 2), (2, 3)])
    with pytest.raises(NotATreeDecomposition, match="5 vertices"):
        r_preserving_cut(path(4), p4_td, 2, summary=td_summary(p5_td, 5))
    # right vertex count, but vertex 4 lies in no cluster of the summary
    with pytest.raises(NotATreeDecomposition, match="does not cover"):
        r_preserving_cut(path(4), p4_td, 2, summary=td_summary(T1_BROKEN, 4))


def test_r_preserving_cut_splits_the_ids_its_summary_covers_and_no_more():
    """A summary may leave isolated ids out, as the peel's do; one that cuts an edge is refused."""
    p5_td = TreeDecomposition([{i, i + 1} for i in range(1, 5)], [(i, i + 1) for i in range(1, 4)])
    live = td_summary(induced(p5_td, {3, 4, 5}), 3)
    cut, _ = r_preserving_cut(Graph(5, [(3, 4), (4, 5)]), p5_td, 1, summary=live)
    assert (cut.black, cut.width) == ({3}, 1)
    with pytest.raises(NotATreeDecomposition, match="that no edge of the graph leaves"):
        r_preserving_cut(path(5), p5_td, 1, summary=live)


# a summary's paths that are no paths: an id out of range, an id twice, ids not adjacent
TREE_SUMMARIES_OF_NO_PATH = [
    (path(6), 2, [TreeSummary(1, 6, (1, 9))]),
    (Graph(5, [(1, 2), (2, 3), (2, 4), (3, 5)]), 4, [TreeSummary(1, 5, (1, 3, 1, 4))]),
    (
        Graph(12, [(1, 2), (2, 3), (2, 4), (3, 7), (4, 5), (4, 6), (6, 8), (6, 10), (8, 9),
                   (10, 11), (11, 12)]),
        4,
        [TreeSummary(1, 12, (12, 4, 10, 9, 1))],
    ),
]


@pytest.mark.parametrize("forest, m, comps", TREE_SUMMARIES_OF_NO_PATH)
def test_diameter_preserving_cut_rejects_a_summary_whose_path_is_no_path(forest, m, comps):
    with pytest.raises(NotAPartition, match="must be nonempty paths of the forest"):
        diameter_preserving_cut(forest, m, comps)


def test_diameter_preserving_cut_rejects_a_summary_whose_paths_miss_a_component():
    """Two disjoint paths of the first of two components: the second would go unlabeled."""
    g = Graph(9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 8), (8, 9)])
    comps = [TreeSummary(1, 6, (1, 2, 3)), TreeSummary(7, 3, (5, 6))]
    with pytest.raises(NotAPartition, match="a summary of 9 vertices reach 6"):
        diameter_preserving_cut(g, 1, comps)


@pytest.mark.parametrize("nodes, m", [((1, 999), 3), ((), 3), ((4, 1), 20)])
def test_r_preserving_cut_rejects_a_summary_whose_path_is_no_path(nodes, m):
    """A node out of range, no node at all, two nodes that are not adjacent."""
    g, td = random_partial_ktree(40, 3, Xorshift64Star(1))
    s = td_summary(td, 40)
    summary = TDSummary(s.td, HeaviestPathResult(nodes, 5, Fraction(1, 8)), s.t, s.n)
    with pytest.raises(NotATreeDecomposition, match="must be a nonempty path of its"):
        r_preserving_cut(g, s.td, m, summary=summary)


def a_path_or_ids(adj, ids, real):
    """The path of ``adj`` between the first two ``ids`` if ``real`` and one exists, else ids."""
    if real and len(ids) >= 2 and all(1 <= v < len(adj) for v in ids[:2]):
        a, b = ids[:2]
        order, parent = bfs_tree(adj, a)
        if b in order:
            walk = [b]
            while walk[-1] != a:
                walk.append(parent[walk[-1]])
            return tuple(walk)
    return tuple(ids)


def cut_or_typed_error(run):
    """Run the cut; a typed error is an answer, ``InvariantViolation`` is not."""
    try:
        run()
    except InvariantViolation:
        raise
    except KsecError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 60),
       st.lists(st.sampled_from(sorted(TREE_SHAPES)), min_size=1, max_size=3),
       st.lists(st.integers(-1, 45), max_size=8), st.booleans(), st.integers(0, 10 ** 6))
def test_a_tree_summary_of_any_ids_gives_a_cut_or_a_typed_error(seed, shapes, ids, real, pick):
    """One component's path replaced by random ids, or by a path between two of them."""
    forest = mixed_forest(Xorshift64Star(seed), shapes)
    comps = forest_summary(forest)
    j = pick % len(comps)
    comps[j] = comps[j]._replace(path=a_path_or_ids(forest.adj, ids, real))
    m = 1 + pick % max(forest.n - 1, 1)
    cut_or_typed_error(lambda: diameter_preserving_cut(forest, m, comps))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(4, 30), st.integers(1, 4),
       st.lists(st.integers(-1, 40), max_size=6), st.booleans(), st.integers(0, 10 ** 6))
def test_a_decomposition_summary_of_any_ids_gives_a_cut_or_a_typed_error(
    seed, n, t, ids, real, pick
):
    """The heaviest path replaced by random node ids, or by a path between two of them."""
    g, td = random_partial_ktree(n, t, Xorshift64Star(seed))
    s = td_summary(td, n)
    nodes = a_path_or_ids(s.td.tree_adj, ids, real)
    summary = TDSummary(s.td, HeaviestPathResult(nodes, s.path.weight, s.path.relative_weight),
                        s.t, s.n)
    cut_or_typed_error(lambda: r_preserving_cut(g, s.td, 1 + pick % (n - 1), summary=summary))


@pytest.mark.parametrize("pipeline", ["tree", "td"])
def test_preserving_cuts_count_the_width_when_black_is_the_larger_side(pipeline):
    """m > n/2 on a summary that leaves isolated ids out, as the peel's do: W is V∖B.

    The width is counted from B, here the larger side, and must equal the
    edges between B and the summarized ids V left white.
    """
    rng = Xorshift64Star(34)
    if pipeline == "tree":
        g, td = random_tree_maxdeg(40, 4, rng), None
    else:
        g, td = random_partial_ktree(40, 3, rng)
    cut_ids = set(rng.sample(list(g.vertices()), 6))
    g = Graph(g.n, [e for e in g.edges if cut_ids.isdisjoint(e)])  # the peel isolates its cut ids
    live = [v for v in g.vertices() if v not in cut_ids]
    n = len(live)
    if pipeline == "tree":
        comps = [c for c in forest_summary(g) if c.root not in cut_ids]
        run = lambda m: diameter_preserving_cut(g, m, comps)
    else:
        summary = td_summary(induced(td, live), n)
        run = lambda m: r_preserving_cut(g, td, m, summary=summary)
    cases = set()
    for m in range(n // 2 + 1, n):
        cut, trace = run(m)
        cases.add(trace.case_tag)
        white = set(live) - cut.black
        assert len(cut.black) == m and len(white) == n - m
        assert cut.width == sum(1 for x, y in g.edges if {x, y} & cut.black and {x, y} & white)
    assert cases - {"Case1", "Case2a"}  # an inner exact cut chose B


def test_heaviest_path_reports_broken_t3_as_invariant_violation():
    with pytest.raises(InvariantViolation):
        heaviest_path(make_nonredundant(T3_BROKEN), 4)
