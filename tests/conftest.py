import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest
from hypothesis import strategies as st

from ksec import oracle
from ksec.graph import Graph, forest_summary, summary_relative_diameter
from ksec.instances import caterpillar_graph, random_tree_maxdeg, spider_graph


@pytest.fixture
def p5():
    return Graph(5, [(i, i + 1) for i in range(1, 5)])


@pytest.fixture
def star4():
    # K_{1,3} with center 1
    return Graph(4, [(1, 2), (1, 3), (1, 4)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star(n):
    return Graph(n, [(1, v) for v in range(2, n + 1)])


def star_comb(hubs, leaves):
    """``hubs`` vertices on a path, each with ``leaves`` pendant leaves numbered after them."""
    edges = [(h, h + 1) for h in range(1, hubs)]
    for h in range(1, hubs + 1):
        edges += [(h, hubs + (h - 1) * leaves + i) for i in range(1, leaves + 1)]
    return Graph(hubs * (leaves + 1), edges)


# component shapes of ``mixed_forest``: paths, stars, caterpillars and spiders
# tie several vertices on a sweep's last level
TREE_SHAPES = {
    "random": lambda rng: random_tree_maxdeg(rng.randint(1, 14), 4, rng),
    "path": lambda rng: path(rng.randint(1, 10)),
    "star": lambda rng: star(rng.randint(1, 8)),
    "caterpillar": lambda rng: caterpillar_graph(rng.randint(1, 12)),
    "spider": lambda rng: spider_graph(rng.randint(1, 4), rng.randint(1, 3)),
}


def mixed_forest(rng, shapes):
    """A forest with one component of each of ``shapes`` (``TREE_SHAPES`` keys), ids shuffled."""
    edges, n = [], 0
    for shape in shapes:
        tree = TREE_SHAPES[shape](rng)
        edges += [(u + n, v + n) for u, v in tree.edges]
        n += tree.n
    new_id = [0, *rng.sample(list(range(1, n + 1)), n)]
    return Graph(n, [(new_id[u], new_id[v]) for u, v in edges])


def diam_star(g):
    """diam*(g) of a forest, read off its one forest summary."""
    return summary_relative_diameter(forest_summary(g), g.n)


# .gr and .td files mutated one token or line at a time; every replacement
# stays short, so no mutation can declare an instance too large to allocate
FILE_TOKENS = ["", "0", "1", "3", "7", "12", "-1", "+2", "2.5", "1e2", "1_0", "0x1", "٣",
               "x", "p", "ks", "tw", "c", "p ks 3 2", "1 2 3",
               "s", "td", "b", "s td 2 2 3", "b 1 1 2"]
FILE_EDITS = st.lists(
    st.tuples(st.sampled_from(["token", "insert", "delete", "duplicate", "swap"]),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.sampled_from(FILE_TOKENS)),
    min_size=1, max_size=5,
)


def mutate(text, edits):
    """``text`` with each (operation, position, position, token) of ``edits`` applied in turn."""
    lines = text.splitlines()
    for op, a, b, token in edits:
        i, j = a % len(lines), b % len(lines)
        if op == "token":
            words = lines[i].split() or [""]
            words[b % len(words)] = token
            lines[i] = " ".join(words)
        elif op == "insert":
            lines.insert(i, token)
        elif op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


class TreeDPSpy:
    """What the tree DP (``oracle._dp_cut_tree``) merged and kept since the last ``reset``.

    ``merges`` holds (rows, tracing, vertex) for each ``_minplus`` call:
    tracing is True once ``run`` has returned, and vertex is the one
    ``accumulate`` merges: every merge runs inside it, a class's table
    build as well as a traced row.
    ``traced`` holds the vertices whose followed row the trace recomputed,
    and ``dp`` is the last run's ``_TreeTables``.
    """

    def __init__(self, monkeypatch):
        kernel, run, accumulate = oracle._minplus, oracle._TreeTables.run, oracle._TreeTables.accumulate
        spy = self

        def spy_minplus(a, b, lo, hi):
            spy.merges.append((a.shape[0], spy.tracing, spy.vertex))
            return kernel(a, b, lo, hi)

        def spy_run(tables):
            spy.tracing = False
            root = run(tables)
            spy.tracing, spy.dp = True, tables
            return root

        def spy_accumulate(tables, v, rows=None):
            if rows is not None:
                spy.traced.append(v)
            spy.vertex = v
            try:
                return accumulate(tables, v, rows)
            finally:
                spy.vertex = None

        monkeypatch.setattr(oracle, "_minplus", spy_minplus)
        monkeypatch.setattr(oracle._TreeTables, "run", spy_run)
        monkeypatch.setattr(oracle._TreeTables, "accumulate", spy_accumulate)
        self.reset()

    def reset(self):
        self.merges, self.traced, self.tracing, self.vertex, self.dp = [], [], False, None, None

    def tables(self):
        """The distinct tables kept for real vertices."""
        return {id(t) for v, t in self.dp.kept.table.items() if v}

    def rows(self, tracing):
        """The row counts of the merges before the trace (False) or in it (True)."""
        return sorted(rows for rows, t, _ in self.merges if t == tracing)
