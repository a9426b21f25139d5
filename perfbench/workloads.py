"""The benchmark's workloads: seeded instance lists, pass layout and warm-up call.

A workload is a list of passes.  A pass is a fixed list of section calls,
one per (size, k) combination the workload covers.  Every pass uses fresh
instances drawn from the seed, so that instance-to-instance spread averages
out over a run, and a run always completes whole passes, so that the mix of
sizes in the timed samples is the same however many passes fit.

Instances are named by ``ksec.GeneratorSpec`` values; the benchmark hands the
library only the ``Graph`` / ``TreeDecomposition`` they generate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

MASK64 = (1 << 64) - 1

# Default seed for claims, and a second seed that is not used while a change
# is written; a later change must show its claim on both.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

TREE_CAP = 6  # Δ ≤ 6 for every random tree
TD_T = 4  # partial 3-trees: bags of at most 4 vertices


def splitmix64(x: int) -> int:
    """One splitmix64 step; spreads small seeds over the 64-bit state space."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Workload:
    name: str
    # (ksec, rng) -> (warm-up call, [pass, ...]); a call is (GeneratorSpec, k).  Every
    # run completes each pass once; width_sum and the digest cover exactly these.
    layout: Callable
    required: tuple  # span names or layer prefixes the traced run must see at least once


def _tree(ksec, rng, n: int):
    return ksec.GeneratorSpec("random_tree_maxdeg", seed=rng.next_u64(), n=n, max_degree=TREE_CAP)


def _ktree(ksec, rng, n: int):
    return ksec.GeneratorSpec("random_partial_ktree", seed=rng.next_u64(), n=n, t=TD_T)


def _peel_layout(ksec, rng):
    warm = (_tree(ksec, rng, 1000), 16)
    passes = [[(_tree(ksec, rng, n), 16) for n in (8000, 11314, 16000)] for _ in range(2)]
    return warm, passes


def _bisect_layout(ksec, rng):
    adversarial = ksec.GeneratorSpec("adversarial_ternary_path", height=7)
    warm = (_tree(ksec, rng, 1000), 2)
    passes = [
        [(adversarial, 2)] + [(_tree(ksec, rng, 8000), 2) for _ in range(6)]
        for _ in range(4)
    ]
    return warm, passes


def _td_layout(ksec, rng):
    # 42 evenly spaced sizes with k alternating, dealt round-robin into 7
    # passes: every pass spans the range, and the median section time does
    # not fall in the gap between two size groups.
    grid = [(500 + 500 * i // 41, 2 if i % 2 == 0 else 4) for i in range(42)]
    warm = (_ktree(ksec, rng, 200), 2)
    passes = [[(_ktree(ksec, rng, n), k) for n, k in grid[j::7]] for j in range(7)]
    return warm, passes


def _small_layout(ksec, rng):
    # Evenly spaced sizes, the same for every seed, in a seeded order: a
    # uniform draw of 200 sizes moves the median section time by a tenth.
    sizes = rng.sample([30 + 270 * i // 199 for i in range(200)], 200)
    warm = (_tree(ksec, rng, 100), 2)
    trees = [_tree(ksec, rng, n) for n in sizes]
    return warm, [[(spec, k) for spec in trees for k in (2, 3, 4, 8)]]


_TREE_LAYERS = ("engine.", "graph.", "labeling.", "treecut.", "bounds.")

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree_peel_k16", _peel_layout, _TREE_LAYERS + ("oracle.dp_min_size_cut_tree",)),
        Workload("tree_bisect_k2", _bisect_layout, _TREE_LAYERS + ("oracle.dp_min_size_cut_tree",)),
        Workload("td_partial3", _td_layout, ("engine.", "graph.", "treedec.", "tdcut.", "bounds.",
                                             "oracle.dp_min_size_cut_td", "treedec.make_nonredundant")),
        Workload("tree_small_batch", _small_layout, _TREE_LAYERS),
    )
}
