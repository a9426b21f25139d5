"""Acceptance suite.

One test per criterion; each prints a single [PASS]/[FAIL] line (run
pytest with -s to see them).  Every tolerance is pinned here: the
rational bounds are compared with exact Fraction arithmetic and the
polylog bounds through certified interval arithmetic, so a pass means
zero violations, not "close enough".
"""

import statistics
import time
from fractions import Fraction

import networkx as nx

import oracles
from conftest import diam_star, path
from ksec import bounds
from ksec.engine import ksection_td, ksection_tree, recursive_bisection_baseline
from ksec.graph import (
    Graph,
    induced_sorted,
    max_degree,
)
from ksec.instances import (
    Xorshift64Star,
    adversarial_ternary_path,
    random_partial_ktree,
    random_tree_maxdeg,
)
from ksec.oracle import brute_min_ksection, dp_min_size_cut_tree
from ksec.tdcut import r_preserving_cut
from ksec.treecut import approximate_cut, diameter_preserving_cut
from ksec.treedec import heaviest_path, induced, make_nonredundant, validation_errors


def report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_tree_bound_compliance():
    """200 random trees, n in [50,2000], Δ<=6, k in {2,3,4,8}: both bounds."""
    rng = Xorshift64Star(0xAC1)
    violations = 0
    slow = 0.0
    for _ in range(200):
        n = rng.randint(50, 2000)
        g = random_tree_maxdeg(n, 6, rng)
        diam = len_longest = None
        for k in (2, 3, 4, 8):
            t0 = time.perf_counter()
            section, rep = ksection_tree(g, k)
            elapsed = time.perf_counter() - t0
            slow = max(slow, elapsed)
            if elapsed >= 5.0:
                violations += 1
            w = section.width
            basic = bounds.ksection_tree_bound(k, n, rep.diam, rep.max_degree)
            if Fraction(w) > basic:
                violations += 1
            if not bounds.ksection_tree_bound_improved_holds(w, k, n, rep.diam, rep.max_degree):
                violations += 1
    report(
        "criterion 1: tree k-section bounds on 200 random trees",
        violations == 0,
        f"slowest run {slow:.2f}s",
    )


def test_criterion_2_exhaustive_small_oracle_equivalence():
    """All trees on n <= 10 vertices up to isomorphism, k in {2,3}."""
    trees = [Graph(1, []), Graph(2, [(1, 2)])]
    for n in range(3, 11):
        for t in nx.nonisomorphic_trees(n):
            trees.append(Graph(n, [(u + 1, v + 1) for u, v in t.edges()]))
    bad = 0
    for g in trees:
        for k in (2, 3):
            section, rep = ksection_tree(g, k)
            opt = brute_min_ksection(g, k)[1]
            if not (opt <= section.width):
                bad += 1
            if rep.bound_tree and Fraction(section.width) > rep.bound_tree:
                bad += 1
        for m in range(g.n + 1):
            if dp_min_size_cut_tree(g, m)[1] != oracles.min_cut_over_subsets(g, m):
                bad += 1
    report(
        "criterion 2: exhaustive n<=10 oracle equivalence",
        bad == 0,
        f"{len(trees)} trees",
    )


def test_criterion_3_cutting_primitive_properties():
    """1000 seeded instances per cutting primitive, zero violations."""
    bad = 0

    rng = Xorshift64Star(0xAC3A)
    for _ in range(1000):
        n = rng.randint(2, 60)
        g = random_tree_maxdeg(n, rng.randint(2, 6), rng)
        v = rng.randint(1, n)
        m = rng.randint(1, 2 * n - 2)
        cut = approximate_cut(g, v, m)
        if not (m <= 2 * len(cut.black) <= 2 * m):
            bad += 1
        if cut.width > max_degree(g) or v in cut.black:
            bad += 1

    rng = Xorshift64Star(0xAC3B)
    for _ in range(1000):
        g = oracles.random_forest(rng, n_lo=2, n_hi=60, max_degree=6)
        m = rng.randint(1, g.n - 1) if g.n > 1 else 1
        d = diam_star(g)
        delta = max_degree(g)
        cut, _ = diameter_preserving_cut(g, m)
        if len(cut.black) != m:
            bad += 1
        rest = induced_sorted(g, [u for u in g.vertices() if u not in cut.black])
        if diam_star(rest) < d:
            bad += 1
        if delta and Fraction(cut.width) > bounds.tree_cut_bound(d, delta):
            bad += 1
        if delta and not bounds.tree_cut_bound_improved_holds(cut.width, d, delta):
            bad += 1

    rng = Xorshift64Star(0xAC3C)
    for _ in range(1000):
        n = rng.randint(4, 40)
        t = rng.randint(2, 4)
        g, td = random_partial_ktree(n, t, rng)
        m = rng.randint(1, n - 1)
        delta = max_degree(g)
        cut, trace = r_preserving_cut(g, td, m)
        if len(cut.black) != m:
            bad += 1
        white = [u for u in g.vertices() if u not in cut.black]
        rest_td = induced(trace.normalized_td, white)
        if heaviest_path(rest_td, len(white)).relative_weight < trace.r:
            bad += 1
        if delta and not bounds.td_cut_bound_holds(cut.width, trace.r, trace.t, delta):
            bad += 1

    report("criterion 3: 1000-instance cutting-primitive properties", bad == 0)


def test_criterion_4_adversarial_family():
    """Ternary-plus-path family: direct stays flat, bisection baseline grows."""
    t0 = time.perf_counter()
    direct = []
    baseline = []
    for h in (4, 5, 6, 7):
        g = adversarial_ternary_path(h)
        section, rep = ksection_tree(g, 4)
        direct.append(section.width)
        # the minimum bisection is unique: it detaches the path half
        tern = (3 ** (h + 1) - 1) // 2
        cut, w = dp_min_size_cut_tree(g, g.n // 2)
        assert w == 1 and cut.black == frozenset(range(tern + 1, 2 * tern + 1))
        baseline.append(recursive_bisection_baseline(g, 4).width)
    elapsed = time.perf_counter() - t0
    ok = (
        all(w <= 408 for w in direct)
        and all(w <= 60 for w in direct)
        and all(b1 < b2 for b1, b2 in zip(baseline, baseline[1:]))
        and elapsed < 30.0
    )
    report(
        "criterion 4: adversarial reproduction",
        ok,
        f"direct={direct} baseline={baseline} {elapsed:.1f}s",
    )


def test_criterion_5_tree_decomposition_suite():
    """100 partial 2-/3-trees (n <= 1000), k in {2,3,4}: bound + normalization."""
    rng = Xorshift64Star(0xAC5)
    bad = 0
    for _ in range(100):
        u = rng.randint(0, 10 ** 6) / 10 ** 6
        n = 20 + int(980 * u * u)
        t = rng.randint(3, 4)  # bag size: partial 2- and 3-trees
        g, td = random_partial_ktree(n, t, rng)
        delta = max_degree(g)

        td0 = make_nonredundant(td)
        if td0.width != td.width or td0.size > td.size:
            bad += 1
        if validation_errors(td0, g):
            bad += 1
        r_before = heaviest_path(td, n).relative_weight
        r_after = heaviest_path(td0, n).relative_weight
        if r_after < r_before:
            bad += 1

        for k in (2, 3, 4):
            section, rep = ksection_td(g, td, k)
            if delta and not bounds.ksection_td_bound_holds(
                section.width, k, rep.r, rep.t, delta
            ):
                bad += 1
    report("criterion 5: decomposition suite bounds and normalization", bad == 0)


def test_criterion_6_path_exactness():
    """P_n, every k dividing n: the construction is exactly optimal."""
    bad = 0
    for n in range(6, 61):
        for k in range(2, n + 1):
            if n % k:
                continue
            section, _ = ksection_tree(path(n), k)
            if section.width != k - 1:
                bad += 1
            # k-1 is MinSec: it is a lower bound for every connected graph,
            # re-checked by enumeration at desk scale
            if n <= 12 and brute_min_ksection(path(n), k)[1] != k - 1:
                bad += 1
    report("criterion 6: path k-sections are exactly optimal", bad == 0)


def test_criterion_7_scaling_sanity():
    """Doubling n must grow the median ksection time by < 4.5x.

    The O(kn) of the underlying method is intentionally NOT reproduced
    (the exact-cut subroutine is a DP in O(N*min(m, N-m)) on the N vertices
    it cuts, with identical subtrees built once); this only pins down
    subquadratic behavior.
    """
    rng = Xorshift64Star(0xAC7)
    sizes = (250, 500, 1000, 2000)
    medians = []
    for n in sizes:
        times = []
        for _ in range(9):
            g = random_tree_maxdeg(n, 6, rng)
            t0 = time.perf_counter()
            ksection_tree(g, 2)
            times.append(time.perf_counter() - t0)
        medians.append(statistics.median(times))
    ratios = [b / max(a, 1e-4) for a, b in zip(medians, medians[1:])]
    ok = all(r < 4.5 for r in ratios)
    report(
        "criterion 7: subquadratic scaling",
        ok,
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )
