"""Spans around the library's layer boundaries, for the traced run only.

Each wrapped function records a span (name, start, end, parent span, section
id) in memory.  Names such as ``components`` are bound by ``from .graph
import ...`` into several modules, so a wrapper is installed in every
``ksec`` module namespace that binds the original function, not only in the
defining module.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs wrapped in the traced run, grouped by layer.  Tiny
# per-vertex helpers (labeling.cyclic, d_p, ...) stay unwrapped: a span there
# would cost more than the work it measures.
TARGETS = {
    "engine": ["ksection_tree", "ksection_tree_detailed", "ksection_td", "ksection_td_detailed"],
    "graph": [
        "components", "is_connected", "validate_forest", "max_degree", "longest_path",
        "diameter", "relative_diameter", "cut_width", "link_components", "induced_subgraph",
        "Cut.from_black", "KSection.from_parts",
    ],
    "labeling": ["decompose_along_path", "p_labeling", "find_anchor", "labels_interval"],
    "treecut": ["diameter_preserving_cut", "approximate_cut"],
    "oracle": ["dp_min_size_cut_tree", "dp_min_size_cut_td"],
    "treedec": ["make_nonredundant", "heaviest_path", "induced", "relabel_clusters"],
    "tdcut": ["r_preserving_cut", "td_p_labeling", "find_anchor_td", "approximate_cut_td"],
    "bounds": [
        "log_poly_holds", "ksection_tree_bound", "ksection_tree_bound_improved",
        "ksection_tree_bound_improved_holds", "ksection_td_bound", "ksection_td_bound_holds",
    ],
}

TREECUT_CASES = ("Deg2", "Case1", "Case2a", "Case2b", "Case3a", "Case3b")
TDCUT_CASES = ("Case1", "Case2a", "Case2b", "Case3")


def _count_args(counts: Counter, name: str, args: tuple, result) -> None:
    """Work counts computed from a call's arguments or result."""
    if name == "graph.induced_subgraph":
        counts["graph.induced_subgraph.edges_scanned"] += len(args[0].edges)
    elif name == "oracle.dp_min_size_cut_tree":
        counts["oracle.tree_dp.cells"] += args[0].n * args[1]
    elif name == "oracle.dp_min_size_cut_td":
        counts["oracle.td_dp.states"] += sum(1 << len(b) for b in args[1].bags) * (args[2] + 1)
    elif name == "treedec.make_nonredundant":
        counts["treedec.make_nonredundant.nodes_in"] += args[0].num_nodes
    elif name == "treecut.diameter_preserving_cut":
        counts["treecut.case." + result[1].case_tag] += 1
    elif name == "tdcut.r_preserving_cut":
        counts["tdcut.case." + result[1].case_tag] += 1


class Recorder:
    """Spans and counts of the calls made while ``section`` is not None."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, section id]
        self.counts: Counter = Counter()
        self.section: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.section is None:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, rec._stack[-1] if rec._stack else -1, rec.section]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec._stack.pop()
            _count_args(rec.counts, name, args, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def dp_seconds_by_section(self) -> dict[int, float]:
        """Time inside the exact DPs, per section id."""
        out: dict[int, float] = defaultdict(float)
        for name, start, end, _, section in self.spans:
            if name.startswith("oracle."):
                out[section] += end - start
        return out

    def dp_case_frac(self) -> float:
        """Share of diameter_preserving_cut spans with a tree-DP span below them."""
        cuts = [i for i, s in enumerate(self.spans) if s[0] == "treecut.diameter_preserving_cut"]
        with_dp = set()
        for s in self.spans:
            if s[0] != "oracle.dp_min_size_cut_tree":
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != "treecut.diameter_preserving_cut":
                p = self.spans[p][3]
            if p >= 0:
                with_dp.add(p)
        return len(with_dp) / len(cuts) if cuts else 0.0


class PeakAlloc:
    """Largest tracemalloc peak over the wrapped calls, in bytes."""

    def __init__(self):
        self.peak = 0

    def wrap(self, name: str, fn):
        box = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                box.peak = max(box.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper


def install(make_wrapper, layers=TARGETS) -> tuple[list, list]:
    """Replace every binding of the target functions.

    Returns the undo list and the targets the library no longer has; their
    metrics then read 0, and the required-layer check still applies.
    """
    undo, absent = [], []
    modules = [m for name, m in sys.modules.items() if name == "ksec" or name.startswith("ksec.")]
    for layer, names in layers.items():
        mod = sys.modules["ksec." + layer]
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            if attr not in vars(owner):
                absent.append(f"{layer}.{qual}")
                continue
            orig = vars(owner)[attr]
            if owner_name:  # a classmethod
                setattr(owner, attr, classmethod(make_wrapper(f"{layer}.{qual}", orig.__func__)))
                undo.append((owner, attr, orig))
                continue
            wrapped = make_wrapper(f"{layer}.{qual}", orig)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, name, wrapped)
                        undo.append((m, name, orig))
    return undo, absent


def uninstall(undo: list) -> None:
    for target, attr, orig in reversed(undo):
        setattr(target, attr, orig)
