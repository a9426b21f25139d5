import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import diam_star, path, star
from ksec import bounds, engine, graph, oracle, tdcut, treecut, treedec
from ksec.engine import (
    ksection_tree_detailed,
    cut_prescribed_sizes,
    ksection_td,
    ksection_td_detailed,
    ksection_tree,
    recursive_bisection_baseline,
)
from ksec.errors import InvariantViolation, KNotPowerOfTwo, KOutOfRange, NotATree, SizesDontSum
from ksec.graph import Graph, cut_width, induced_sorted, max_degree
from ksec.instances import (
    Xorshift64Star,
    adversarial_ternary_path,
    random_partial_ktree,
    random_tree_maxdeg,
)
from ksec.labeling import PLabeling
from ksec.oracle import brute_min_ksection
from ksec.treedec import (
    TreeDecomposition,
    make_nonredundant,
    td_summary,
)


def check_section(g, section, k):
    lo, hi = g.n // k, -(-g.n // k)
    seen = set()
    for part in section.parts:
        assert lo <= len(part) <= hi
        assert seen.isdisjoint(part)
        seen.update(part)
    assert seen == set(g.vertices())
    assert section.width == oracles.recount_cut(g, section.parts)


def test_ksection_tree_paths_exact():
    for n, k in ((12, 3), (12, 4), (10, 2)):
        section, report = ksection_tree(path(n), k)
        assert section.width == k - 1
        check_section(path(n), section, k)


def test_ksection_tree_rejects():
    with pytest.raises(KOutOfRange):
        ksection_tree(path(5), 1)
    with pytest.raises(NotATree):
        ksection_tree(Graph(4, [(1, 2), (3, 4)]), 2)


def test_ksection_tree_k_at_least_n():
    g = star(5)
    section, report, traces = ksection_tree_detailed(g, 7)
    assert traces == []
    assert len(section.parts) == 7
    assert section.width == 4  # all edges cut between singletons
    check_section(g, section, 7)


def test_the_ratio_floor_counts_the_non_empty_parts_only():
    """With k > n only n parts hold a vertex, so a section cuts at least n - 1 edges, not k - 1."""
    section, report = ksection_tree(path(3), 5)
    assert section.width == 2
    assert report.approx_ratio_vs_lower == 1.0


def test_ksection_tree_random_versus_bruteforce():
    rng = Xorshift64Star(2718)
    for _ in range(25):
        g = random_tree_maxdeg(rng.randint(4, 12), 4, rng)
        for k in (2, 3, 4):
            section, report = ksection_tree(g, k)
            check_section(g, section, k)
            opt = brute_min_ksection(g, k)[1]
            assert opt <= section.width
            assert section.width <= report.bound_tree
            assert report.approx_ratio_vs_lower == section.width / (k - 1)


def test_ksection_tree_adversarial_constant_bound():
    g = adversarial_ternary_path(4)
    section, report = ksection_tree(g, 4)
    check_section(g, section, 4)
    # diam >= n/2, so the guarantee is at most 3 * (2 + 32) * 4
    assert report.bound_tree <= 3 * (2 + 32) * 4
    assert section.width <= report.bound_tree


def test_cut_prescribed_sizes_examples():
    g = path(10)
    parts, report = cut_prescribed_sizes(g, [2, 3, 5])
    assert [len(p) for p in parts] == [2, 3, 5]
    assert report.achieved == 2
    assert cut_width(g, [set(p) for p in parts]) == 2

    parts, report = cut_prescribed_sizes(g, [10])
    assert parts == (tuple(range(1, 11)),)
    assert report.achieved == 0

    with pytest.raises(SizesDontSum):
        cut_prescribed_sizes(g, [4, 4])
    with pytest.raises(SizesDontSum):
        cut_prescribed_sizes(g, [])
    with pytest.raises(SizesDontSum):
        cut_prescribed_sizes(g, [10, -1, 1])


def test_cut_prescribed_sizes_random_postconditions():
    rng = Xorshift64Star(1414)
    for _ in range(20):
        g = random_tree_maxdeg(rng.randint(6, 30), 5, rng)
        ones = rng.randint(1, 4)
        sizes = [1] * ones + [g.n - ones]
        parts, report = cut_prescribed_sizes(g, sizes)
        assert [len(p) for p in parts] == sizes
        d = diam_star(g)
        assert report.achieved <= (len(sizes) - 1) * bounds.tree_cut_bound(d, max_degree(g))


def test_ksection_td_path_with_path_decomposition():
    g = path(12)
    td = TreeDecomposition([{i, i + 1} for i in range(1, 12)], [(i, i + 1) for i in range(1, 11)])
    section, report = ksection_td(g, td, 2)
    check_section(g, section, 2)
    assert report.r == 1 and report.t == 2
    assert section.width <= 2 * max_degree(g)  # far below the 24Δ guarantee
    assert section.width <= report.bound_td


def test_ksection_td_tree_width1_cross_module():
    rng = Xorshift64Star(12321)
    for _ in range(10):
        g = random_tree_maxdeg(rng.randint(6, 40), 5, rng)
        td = oracles.tree_to_width1_td(g)
        for k in (2, 3):
            section, report = ksection_td(g, td, k)
            check_section(g, section, k)
            assert section.width <= report.bound_td
            tree_section, tree_report = ksection_tree(g, k)
            assert tree_section.width <= tree_report.bound_tree


def test_ksection_td_small_versus_bruteforce():
    rng = Xorshift64Star(777000)
    for _ in range(12):
        g, td = random_partial_ktree(rng.randint(6, 12), 3, rng)
        section, report = ksection_td(g, td, 3)
        check_section(g, section, 3)
        assert brute_min_ksection(g, 3)[1] <= section.width
        assert bounds.ksection_td_bound_holds(section.width, 3, report.r, report.t, report.max_degree) or report.max_degree == 0


def test_recursive_bisection_baseline_examples():
    section = recursive_bisection_baseline(path(8), 4)
    assert section.width == 3
    check_section(path(8), section, 4)
    with pytest.raises(KNotPowerOfTwo):
        recursive_bisection_baseline(path(8), 3)
    with pytest.raises(KOutOfRange):
        recursive_bisection_baseline(path(4), 8)


def test_recursive_bisection_baseline_sane():
    rng = Xorshift64Star(10001)
    for _ in range(10):
        g = random_tree_maxdeg(rng.randint(4, 12), 4, rng)
        for k in (2, 4):
            if k > g.n:
                continue
            section = recursive_bisection_baseline(g, k)
            check_section(g, section, k)
            assert section.width >= brute_min_ksection(g, k)[1]


def test_diam_star_never_drops_during_peeling():
    rng = Xorshift64Star(424243)
    for _ in range(10):
        g = random_tree_maxdeg(rng.randint(8, 36), 5, rng)
        k = rng.randint(2, 4)
        section, _ = ksection_tree(g, k)
        d0 = diam_star(g)
        remaining = set(g.vertices())
        for part in section.parts[:-1]:
            remaining -= set(part)
            rest = induced_sorted(g, sorted(remaining))
            assert diam_star(rest) >= d0


def test_bound_report_serialization():
    section, report = ksection_tree(path(9), 3)
    payload = report.to_dict()
    assert payload["achieved"] == section.width
    assert payload["n"] == 9 and payload["k"] == 3
    assert payload["binding_bound"] <= float(report.bound_tree)


def test_edgeless_graph_reports_zero_bounds():
    """Δ = 0 takes the general path: every bound is 0 and the width 0 meets it."""
    g = Graph(7, [])
    star_td = TreeDecomposition([{v} for v in range(1, 8)], [(1, v) for v in range(2, 8)])
    for k in (2, 3, 6):
        _, report = ksection_td(g, star_td, k)
        assert report.to_dict() == {
            "n": 7, "k": k, "max_degree": 0, "achieved": 0, "approx_ratio_vs_lower": 0.0,
            "binding_bound": 0.0, "r": [3, 7], "t": 1, "bound_td": 0.0,
        }
    parts, report = cut_prescribed_sizes(g, [3, 4])
    assert sorted(map(len, parts)) == [3, 4] and report.bound_tree == 0 and report.achieved == 0


def test_ksection_tree_balance_for_every_k():
    g = random_tree_maxdeg(20, 4, Xorshift64Star(5005))
    for k in range(2, 21):
        section, _ = ksection_tree(g, k)
        check_section(g, section, k)


@pytest.mark.parametrize("instance", [
    lambda: random_tree_maxdeg(2000, 6, Xorshift64Star(2000)),
    lambda: random_tree_maxdeg(16000, 6, Xorshift64Star(5)),
    lambda: adversarial_ternary_path(5),
], ids=["random-n2000", "random-n16000", "adversarial-h5"])
def test_tree_peel_rounds_build_no_checked_graph_and_one_summary_a_round(monkeypatch, instance):
    """After the entry point every graph is derived, and a section summarizes k forests.

    They are the input and the k - 1 remainders.  The cut labels the
    linked tree along the chain of the remainder's longest paths, so it
    summarizes nothing; the inner DP checks its forest from the BFS sweep
    it needs anyway.
    """
    g = instance()
    k = 16
    built, summaries = [], []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    real = graph._forest_summary

    def summarize(forest, *live):
        summaries.append(forest.n)
        return real(forest, *live)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    for mod in [m for name, m in sys.modules.items() if name.startswith("ksec.")]:
        if getattr(mod, "_forest_summary", None) is real:
            monkeypatch.setattr(mod, "_forest_summary", summarize)
    section, _ = ksection_tree(g, k)
    assert built == []
    assert len(summaries) == k
    monkeypatch.undo()
    check_section(g, section, k)


def test_a_tree_peel_round_scans_no_adjacency_for_its_edge_count(monkeypatch):
    """Each round counts the edges it deletes, so no remainder's edges are counted by a scan.

    Only an inner exact cut's small graph of at most 2m vertices falls
    back on the scan; the input may be scanned once, at the entry check.
    """
    g, k = random_tree_maxdeg(16000, 6, Xorshift64Star(5)), 16
    scanned, real = [], graph._count_edges

    def spy(adj):
        scanned.append(len(adj) - 1)
        return real(adj)

    monkeypatch.setattr(graph, "_count_edges", spy)
    section, _ = ksection_tree(g, k)
    monkeypatch.undo()
    assert scanned.count(g.n) <= 1
    assert all(size <= 2 * -(-g.n // k) for size in scanned if size != g.n)
    check_section(g, section, k)


def test_a_tree_section_builds_no_label_map_for_its_peel_labelings(monkeypatch):
    """A cut reads its labeling's ``vertex_of``; ``label_of`` is built only where it is read.

    After the first round the remainder's ids are sparse in the input's
    id range, which a label map would have to span.
    """
    g, k = random_tree_maxdeg(2000, 6, Xorshift64Star(3)), 16
    labs, real = [], PLabeling._trusted.__func__

    def spy(cls, *args):
        labs.append(real(cls, *args))
        return labs[-1]

    monkeypatch.setattr(PLabeling, "_trusted", classmethod(spy))
    section, _ = ksection_tree(g, k)
    monkeypatch.undo()
    assert len(labs) == k - 1 and any(lab.n < max(lab.vertex_of) for lab in labs)
    assert all("label_of" not in vars(lab) for lab in labs)
    check_section(g, section, k)


def test_a_decomposition_section_roots_each_decomposition_tree_once(monkeypatch):
    """Each decomposition carries its one rooting, which every reader of its tree shares.

    The heaviest path, the labeling's blocks, the cluster cut, the glue and
    the inner DP read ``TreeDecomposition.rooted``; an induced decomposition
    keeps its source's.  The section's rounds take Case2b and Case3, so
    every one of them runs.
    """
    g, td = random_partial_ktree(300, 3, Xorshift64Star(1))
    rootings, real = {}, graph.bfs_tree

    def spy(adj, *args):
        count, _ = rootings.get(id(adj), (0, adj))  # holding adj keeps its id from reuse
        rootings[id(adj)] = (count + 1, adj)
        return real(adj, *args)

    for mod in [m for name, m in sys.modules.items() if name.startswith("ksec.")]:
        if getattr(mod, "bfs_tree", None) is real:
            monkeypatch.setattr(mod, "bfs_tree", spy)
    section, _, traces = ksection_td_detailed(g, td, 4)
    monkeypatch.undo()
    assert {"Case2b", "Case3"} <= {t["case_tag"] for t in traces}
    assert rootings and max(count for count, _ in rootings.values()) == 1
    check_section(g, section, 4)


SECTIONED_TREES = {
    "random-n16000": lambda: random_tree_maxdeg(16000, 6, Xorshift64Star(5)),
    "adversarial-h7": lambda: adversarial_ternary_path(7),
    # the only one of these whose rounds take Case1 and Case2a as well as Case2b and 3b
    "random-n400-cap3": lambda: random_tree_maxdeg(400, 3, Xorshift64Star(12)),
}


# one inner cut of its k = 16 section (|Ṽ| = 862, m = 500) has optimum 3, so the tree DP runs
DP_FALLBACK_TREES = {"random-n8000-seed2": lambda: random_tree_maxdeg(8000, 6, Xorshift64Star(2))}


@pytest.mark.parametrize(
    "name, dp_runs",
    [("random-n16000", []), ("adversarial-h7", []), ("random-n8000-seed2", [(862, 500)])],
    ids=["random-n16000", "adversarial-h7", "random-n8000-seed2"],
)
def test_a_tree_section_induces_no_vertex_set(monkeypatch, name, dp_runs):
    """The peel cuts its input's adjacency in place, and the exact inner cut runs in its ids.

    No vertex set is induced, not even for the tree DP, which runs (|Ṽ|,
    m) only where the small-width search gives up.
    """
    g, k = {**SECTIONED_TREES, **DP_FALLBACK_TREES}[name](), 16
    sizes, dp_sizes = [], []
    real, dp = graph.induced_sorted, oracle._dp_cut_tree

    def spy(h, old_of, without=()):
        sizes.append(len(old_of))
        return real(h, old_of, without)

    def spy_dp(adj, m, rooted):
        dp_sizes.append((sum(map(len, rooted[0])), m))
        return dp(adj, m, rooted)

    for mod in [m for key, m in sys.modules.items() if key.startswith("ksec.")]:
        if getattr(mod, "induced_sorted", None) is real:
            monkeypatch.setattr(mod, "induced_sorted", spy)
    monkeypatch.setattr(oracle, "_dp_cut_tree", spy_dp)
    section, _ = ksection_tree(g, k)
    monkeypatch.undo()
    assert sizes == [] and dp_sizes == dp_runs
    check_section(g, section, k)


@pytest.mark.parametrize("name", sorted(SECTIONED_TREES) + sorted(DP_FALLBACK_TREES))
def test_every_inner_cut_of_a_tree_section_is_the_public_exact_cut(monkeypatch, name):
    """Each round's inner cut: the black set and width of ``dp_min_size_cut_tree`` on G[Ṽ] relabeled.

    The reference runs on a copy of the round's remainder, taken before
    the peel deletes the part's edges, with Ṽ's outside weights.
    """
    g, k = {**SECTIONED_TREES, **DP_FALLBACK_TREES}[name](), 16
    rounds, real = [], engine.diameter_preserving_cut

    def spy(forest, m, comps=None):
        copy = Graph._trusted(forest.n, tuple(forest.adj))
        cut, trace = real(forest, m, comps)
        rounds.append((copy, comps, cut, trace))
        return cut, trace

    monkeypatch.setattr(engine, "diameter_preserving_cut", spy)
    ksection_tree(g, k)
    inner = [(copy, comps, cut, trace) for copy, comps, cut, trace in rounds if trace.v_tilde]
    assert len(rounds) == k - 1 and inner
    for copy, comps, cut, trace in inner:
        assert (cut.black, trace.inner_width) == oracles.inner_cut_by_public_dp(copy, comps, trace)


@pytest.mark.parametrize("name", sorted(SECTIONED_TREES))
def test_tree_traces_name_the_input_ids(name):
    """Each round's trace names vertices in the input's ids, like the part it cut."""
    g, k = SECTIONED_TREES[name](), 16
    section, _, traces = ksection_tree_detailed(g, k)
    assert len(traces) == k - 1
    for part, trace in zip(section.parts, traces):
        if trace["case_tag"] in ("Case1", "Case2a"):
            assert trace["m_set"] == list(part)
        else:
            assert set(part) <= set(trace["v_tilde"]) and trace["z"] not in part


def spy_on(monkeypatch, name, modules, record):
    """Replace ``name`` in each module binding it by a wrapper that records its arguments."""
    real = getattr(treedec, name)

    def spy(*args):
        record.append(args)
        return real(*args)

    for mod in modules:
        monkeypatch.setattr(mod, name, spy)


def td_section_spied(monkeypatch):
    """One k=4 section of a partial 3-tree with every check, weighing and inner DP recorded."""
    g, td = random_partial_ktree(400, 4, Xorshift64Star(2024))
    checks, weighings, dp_calls = [], [], []
    spy_on(monkeypatch, "require_decomposition", (engine, tdcut, oracle, treedec), checks)
    spy_on(monkeypatch, "heaviest_path", (tdcut, treedec), weighings)
    real_dp = oracle.dp_min_size_cut_td

    def dp(*args, **kwargs):
        dp_calls.append(args)
        return real_dp(*args, **kwargs)

    monkeypatch.setattr(oracle, "dp_min_size_cut_td", dp)
    section, _ = ksection_td(g, td, 4)
    check_section(g, section, 4)
    return td, checks, weighings, dp_calls


def test_ksection_td_checks_its_input_once_and_each_inner_dp_its_own(monkeypatch):
    _, checks, _, dp_calls = td_section_spied(monkeypatch)
    assert dp_calls  # the section takes at least one Case 2b/3 cut
    assert [who for _, _, who in checks] == ["ksection_td"] + ["dp_min_size_cut_td"] * len(dp_calls)
    # each inner DP checks the glued decomposition it was handed
    assert [c[:2] for c in checks[1:]] == [(args[1], args[0]) for args in dp_calls]


def test_ksection_td_weighs_the_input_once(monkeypatch):
    td, _, weighings, _ = td_section_spied(monkeypatch)
    td0 = make_nonredundant(td)
    same = [w for w in weighings if w[0].bags == td0.bags and w[0].tree_edges == td0.tree_edges]
    assert len(same) == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(10, 120), st.integers(2, 4), st.integers(2, 6))
def test_peel_loop_hands_each_cut_a_valid_decomposition_and_its_summary(seed, n, t, k):
    """The remainders' decompositions are derived, not checked, at run time; they stay valid.

    Each round's graph is the input with the cut vertices isolated, and
    the peel mutates it in place, so each round is checked when its cut
    is called, on the ids still live.
    """
    g, td = random_partial_ktree(n, t, Xorshift64Star(seed))
    live, rounds = set(g.vertices()), []
    real = engine.r_preserving_cut

    def cut(cur, cur_td, m, **kwargs):
        summ = kwargs["summary"]
        assert cur.n == g.n and not any(cur.adj[v] for v in set(g.vertices()) - live)
        assert not oracles.live_decomposition_errors(cur_td, cur, live)
        assert not oracles.live_decomposition_errors(summ.td, cur, live)
        fresh = td_summary(cur_td, len(live))
        assert (summ.td.bags, summ.td.tree_edges) == (fresh.td.bags, fresh.td.tree_edges)
        assert (summ.path, summ.t, summ.n) == (fresh.path, fresh.t, fresh.n)
        c, trace = real(cur, cur_td, m, **kwargs)
        live.difference_update(c.black)
        rounds.append(m)
        return c, trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "r_preserving_cut", cut)
        ksection_td(g, td, k)
    assert len(rounds) == k - 1


def td_section_lives(g, section):
    """The ids live at each cut of a section: the input less the parts cut before it."""
    live, lives = set(g.vertices()), []
    for part in section.parts[:-1]:
        lives.append(frozenset(live))
        live -= set(part)
    return lives


@pytest.mark.parametrize("k", [4, 8])
def test_td_traces_name_the_input_ids(k):
    """Each round's trace names vertices in the input's ids, like the part it cut."""
    g, td = random_partial_ktree(600, 4, Xorshift64Star(7))
    section, _, traces = engine.ksection_td_detailed(g, td, k)
    assert len(traces) == k - 1
    inner = [t for t in traces if t["case_tag"] in ("Case2b", "Case3")]
    assert len(inner) >= 2  # rounds past the first take the inner cut too
    for live, part, trace in zip(td_section_lives(g, section), section.parts, traces):
        if trace["case_tag"] in ("Case2b", "Case3"):
            assert set(trace["b_side"]) <= set(trace["v_tilde"]) <= live
            assert set(part) <= set(trace["v_tilde"])


def test_only_the_detailed_sections_write_trace_dicts(monkeypatch):
    """``ksection_tree`` and ``ksection_td`` drop their traces unwritten; the _detailed ones write each."""
    written = []
    to_dict = treecut.CutTrace.to_dict
    monkeypatch.setattr(treecut.CutTrace, "to_dict", lambda t: written.append(t) or to_dict(t))
    tree = random_tree_maxdeg(300, 4, Xorshift64Star(11))
    g, td = random_partial_ktree(200, 4, Xorshift64Star(12))
    ksection_tree(tree, 4)
    ksection_td(g, td, 4)
    assert written == []
    _, _, tree_traces = ksection_tree_detailed(tree, 4)
    _, _, td_traces = engine.ksection_td_detailed(g, td, 4)
    assert len(written) == len(tree_traces) + len(td_traces) == 6


def test_a_td_section_induces_no_remainder(monkeypatch):
    """The decomposition peel works in the input's ids: no remainder is induced, only each cluster set.

    The one graph a round induces is its cut's G̃, on Ṽ without the split
    cluster's edges.  Each round after the first summarizes ``induced`` of
    the last cut's decomposition on that round's live ids.
    """
    g, td = random_partial_ktree(400, 4, Xorshift64Star(2024))
    k = 8
    graphs, induced, summarized = [], [], []
    real_sorted, real_induced, real_summary = graph.induced_sorted, treedec.induced, engine.td_summary

    def spy_sorted(h, old_of, without=()):
        graphs.append((len(old_of), bool(without)))
        return real_sorted(h, old_of, without)

    def spy_induced(cur_td, live):
        induced.append((sorted(live), real_induced(cur_td, live)))
        return induced[-1][1]

    def spy_summary(cur_td, n):
        summarized.append((cur_td, n))
        return real_summary(cur_td, n)

    for mod in [m for key, m in sys.modules.items() if key.startswith("ksec.")]:
        if getattr(mod, "induced_sorted", None) is real_sorted:
            monkeypatch.setattr(mod, "induced_sorted", spy_sorted)
    monkeypatch.setattr(engine, "induced", spy_induced)
    monkeypatch.setattr(engine, "td_summary", spy_summary)
    section, _, traces = ksection_td_detailed(g, td, k)
    monkeypatch.undo()
    check_section(g, section, k)
    assert graphs == [(len(t["v_tilde"]), True) for t in traces if t["v_tilde"]]
    lives = td_section_lives(g, section)[1:] + [frozenset(section.parts[-1])]
    assert [live for live, _ in induced] == [sorted(live) for live in lives]
    assert [(cur_td, n) for cur_td, n in summarized[1:]] == [
        (sub, len(live)) for (live, sub) in induced
    ]


def seeded_partial_ktree(seed):
    rng = Xorshift64Star(seed)
    n = rng.randint(6, 60)
    g, td = random_partial_ktree(n, rng.randint(2, 4), rng)
    return g, td, rng.randint(3, 8)


def check_td_section(g, td, k):
    section, report = ksection_td(g, td, k)
    check_section(g, section, k)
    assert report.max_degree == 0 or bounds.ksection_td_bound_holds(
        section.width, k, report.r, report.t, report.max_degree
    )


@pytest.mark.parametrize("seed", [26, 130, 243, 341, 432])
def test_ksection_td_floor_holds_where_two_weighings_disagreed(seed):
    """Instances whose remainders once weighed lighter at the next cut than at the floor check."""
    check_td_section(*seeded_partial_ktree(seed))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 60), st.integers(6, 60), st.integers(2, 4), st.integers(3, 8))
def test_ksection_td_returns_within_its_bound(seed, n, t, k):
    g, td = random_partial_ktree(n, t, Xorshift64Star(seed))
    check_td_section(g, td, k)


def lighter(summary):
    """The summary with a lower floor measure: shorter forest paths, or a lighter heaviest path."""
    if isinstance(summary, treedec.TDSummary):
        path = dataclasses.replace(summary.path, relative_weight=summary.path.relative_weight / 2)
        return dataclasses.replace(summary, path=path)
    return [c._replace(path=c.path[:1]) for c in summary]


@pytest.mark.parametrize("pipeline", ["tree", "td"])
def test_the_floor_check_catches_a_remainder_that_weighs_less(monkeypatch, pipeline):
    """One peel loop checks the floor of both pipelines; a lighter last remainder must raise."""
    g = path(10)
    name = "_forest_summary" if pipeline == "tree" else "td_summary"
    real = getattr(engine, name)
    calls = []

    def summarize(*args):
        calls.append(args)
        # the input's own summary (the td pipeline makes it here too) stays true
        return real(*args) if pipeline == "td" and len(calls) == 1 else lighter(real(*args))

    monkeypatch.setattr(engine, name, summarize)
    with pytest.raises(InvariantViolation, match="measure fell"):
        if pipeline == "tree":
            ksection_tree(g, 2)
        else:
            ksection_td(g, oracles.tree_to_width1_td(g), 2)
    assert len(calls) == (1 if pipeline == "tree" else 2)


@pytest.mark.parametrize("pipeline", ["tree", "td"])
def test_a_cut_that_returns_a_vertex_cut_before_is_named(monkeypatch, pipeline):
    """A cut's black side must lie in the live ids: the peel names a stray vertex.

    The second round's cut hands back, in place of one of its own black
    vertices, the smallest vertex the first round cut.  Its width is the
    real one's, so only the peel's own record of the live ids shows it.
    """
    name = "diameter_preserving_cut" if pipeline == "tree" else "r_preserving_cut"
    real, blacks = getattr(engine, name), []

    def faulty(*args, **kwargs):
        cut, trace = real(*args, **kwargs)
        black = cut.black
        if blacks:
            black = black - {max(black)} | {min(blacks[0])}
        blacks.append(cut.black)
        return dataclasses.replace(cut, black=black), trace

    monkeypatch.setattr(engine, name, faulty)
    if pipeline == "tree":
        call = lambda: ksection_tree(random_tree_maxdeg(200, 6, Xorshift64Star(1)), 4)
    else:
        call = lambda: ksection_td(*random_partial_ktree(200, 3, Xorshift64Star(1)), 4)
    with pytest.raises(InvariantViolation) as exc:
        call()
    assert str(exc.value) == f"cut returned vertex {min(blacks[0])}, which is not live"


@pytest.mark.parametrize("pipeline", ["tree", "td"])
def test_a_cut_that_overstates_its_width_is_named_in_its_round(monkeypatch, pipeline):
    """The peel counts the edges it deletes itself: a cut's width must match them.

    Each cut claims two edges more than it cuts.  The peel names the first
    one, before its edge count goes wrong and the next summary with it.
    """
    name = "diameter_preserving_cut" if pipeline == "tree" else "r_preserving_cut"
    real, widths = getattr(engine, name), []

    def faulty(*args, **kwargs):
        cut, trace = real(*args, **kwargs)
        widths.append(cut.width)
        return dataclasses.replace(cut, width=cut.width + 2), trace

    monkeypatch.setattr(engine, name, faulty)
    if pipeline == "tree":
        call = lambda: ksection_tree(random_tree_maxdeg(200, 6, Xorshift64Star(1)), 4)
    else:
        call = lambda: ksection_td(*random_partial_ktree(200, 3, Xorshift64Star(1)), 4)
    with pytest.raises(InvariantViolation) as exc:
        call()
    assert len(widths) == 1
    assert str(exc.value) == f"cut claims width {widths[0] + 2}, but {widths[0]} edges leave B"


@pytest.mark.parametrize("pipeline", ["tree", "td"])
def test_a_section_of_unbalanced_sizes_is_named(monkeypatch, pipeline):
    """Part sizes that add up to n but are not balanced must not pass as a k-section."""
    monkeypatch.setattr(oracle, "balanced_sizes", lambda n, k: [n // 2 - 1, n - n // 2 + 1])
    g = path(10)
    with pytest.raises(InvariantViolation) as exc:
        if pipeline == "tree":
            ksection_tree(g, 2)
        else:
            ksection_td(g, oracles.tree_to_width1_td(g), 2)
    assert str(exc.value) == "part size 4 outside [5,5]"
