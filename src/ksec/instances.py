"""Deterministic, seeded generators for test families and decompositions.

Randomness comes from xorshift64* (Marsaglia's xorshift with the
Vigna multiplier), reimplementable in a dozen lines in any language, so
the same (family, parameters, seed) triple produces byte-identical
instances everywhere.  Integer draws use rejection sampling; there is
no modulo bias.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import KsecError
from .graph import Graph, is_int
from .treedec import TreeDecomposition

MASK64 = (1 << 64) - 1


class Xorshift64Star:
    """xorshift64* PRNG; state is a nonzero 64-bit integer."""

    def __init__(self, seed: int):
        if not is_int(seed):
            raise BadParameters(f"Xorshift64Star: seed {seed!r} must be an integer")
        self.state = seed & MASK64
        if self.state == 0:
            self.state = 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & MASK64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive; rejection sampling.

        ``BadParameters`` names a bound that is no integer, or an empty range.
        """
        try:
            span = hi - lo + 1
        except TypeError:
            span = None
        if type(span) is not int or span <= 0:
            raise BadParameters(_range_error(lo, hi))
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            r = self.next_u64()
            if r < limit:
                return lo + (r % span)

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den; ``BadParameters`` names a bad den, else a bad num.

        Both must be integers: a fraction ``num`` would not give the
        probability num/den.
        """
        try:
            if type(num) is int:
                return self.randint(0, den - 1) < num
        except (BadParameters, TypeError):
            pass
        if not is_int(den) or den < 1:
            raise BadParameters(f"chance: den {den!r} must be an integer >= 1")
        raise BadParameters(f"chance: num {num!r} must be an integer")

    def sample(self, items: list, count: int) -> list:
        """``count`` distinct entries of ``items``; ``BadParameters`` names a bad count."""
        try:
            pool = list(items)
        except TypeError:
            raise BadParameters(f"sample: {items!r} is not a sequence") from None
        if type(count) is not int or not 0 <= count <= len(pool):
            raise BadParameters(f"sample: count {count!r} is not an integer in 0..{len(pool)}")
        out = []
        for _ in range(count):
            idx = self.randint(0, len(pool) - 1)
            pool[idx], pool[-1] = pool[-1], pool[idx]
            out.append(pool.pop())
        return out


def _range_error(lo, hi) -> str:
    """What is wrong with ``randint``'s bounds lo and hi."""
    for name, x in (("lo", lo), ("hi", hi)):
        if not is_int(x):
            return f"randint: {name} {x!r} must be an integer"
    return f"randint: empty range [{lo},{hi}]"


class BadParameters(KsecError):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    """Instance family plus parameters; identical specs give identical bytes."""

    family: str
    seed: int = 0
    n: int | None = None
    max_degree: int | None = None
    arity: int | None = None
    height: int | None = None
    t: int | None = None

    FAMILIES = (
        "path",
        "star",
        "caterpillar",
        "spider",
        "perfect_dary",
        "adversarial_ternary_path",
        "random_tree_maxdeg",
        "random_partial_ktree",
    )


def path_graph(n: int) -> Graph:
    if n < 1:
        raise BadParameters("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star_graph(n: int) -> Graph:
    if n < 1:
        raise BadParameters("star needs n >= 1")
    return Graph(n, [(1, v) for v in range(2, n + 1)])


def caterpillar_graph(n: int) -> Graph:
    """Spine of ceil(n/2) vertices; remaining vertices hang one per spine vertex."""
    if n < 1:
        raise BadParameters("caterpillar needs n >= 1")
    spine = (n + 1) // 2
    edges = [(i, i + 1) for i in range(1, spine)]
    for leg in range(spine + 1, n + 1):
        edges.append((leg - spine, leg))
    return Graph(n, edges)


def spider_graph(legs: int, leg_length: int) -> Graph:
    if legs < 1 or leg_length < 1:
        raise BadParameters("spider needs legs >= 1 and leg length >= 1")
    n = 1 + legs * leg_length
    edges = []
    vid = 2
    for _ in range(legs):
        prev = 1
        for _ in range(leg_length):
            edges.append((prev, vid))
            prev = vid
            vid += 1
    return Graph(n, edges)


def perfect_dary_tree(arity: int, height: int) -> Graph:
    """Perfect arity-ary tree; ids in BFS order with root 1."""
    if arity < 2 or height < 0:
        raise BadParameters("perfect_dary needs arity >= 2 and height >= 0")
    n = (arity ** (height + 1) - 1) // (arity - 1)
    edges = [(v, (v - 2) // arity + 1) for v in range(2, n + 1)]
    return Graph(n, edges)


def adversarial_ternary_path(height: int) -> Graph:
    """Perfect ternary tree joined by one edge to an equally large path.

    The path end attaches to the ternary root, so the longest path runs
    through the whole path part and into the deepest ternary leaf.
    Recursive bisection behaves badly on this family while the direct
    construction keeps constant width.
    """
    if height < 1:
        raise BadParameters("adversarial_ternary_path needs height >= 1")
    t = (3 ** (height + 1) - 1) // 2
    edges = [(v, (v - 2) // 3 + 1) for v in range(2, t + 1)]
    edges.append((1, t + 1))
    edges.extend((v, v + 1) for v in range(t + 1, 2 * t))
    return Graph(2 * t, edges)


def random_tree_maxdeg(n: int, cap: int, rng: Xorshift64Star) -> Graph:
    """Random attachment tree: each vertex joins a uniform unsaturated one."""
    if n < 1 or cap < 2:
        raise BadParameters("random tree needs n >= 1 and degree cap >= 2")
    edges = []
    degree = [0] * (n + 1)
    open_slots = [1]
    for v in range(2, n + 1):
        idx = rng.randint(0, len(open_slots) - 1)
        u = open_slots[idx]
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
        if degree[u] >= cap:
            open_slots[idx], open_slots[-1] = open_slots[-1], open_slots[idx]
            open_slots.pop()
        if degree[v] < cap:
            open_slots.append(v)
        if not open_slots:
            raise BadParameters(f"degree cap {cap} saturated at {v} vertices")
    return Graph(n, edges)


# keep probability for each candidate edge of a partial k-tree, as num/den
_PARTIAL_KEEP = (4, 5)


def random_partial_ktree(
    n: int, t: int, rng: Xorshift64Star
) -> tuple[Graph, TreeDecomposition]:
    """Random partial k-tree of width <= t-1 with its decomposition.

    Grown bag by bag: every new vertex picks an existing bag, inherits
    at most t-1 of its members, and keeps each induced edge with
    probability 4/5 (partial: dropped edges stay dropped).
    """
    if n < 1 or t < 1:
        raise BadParameters("random_partial_ktree needs n >= 1 and t >= 1")
    base = min(t, n)
    bags = [list(range(1, base + 1))]
    tree_edges: list[tuple[int, int]] = []
    edges = []
    for u in range(1, base + 1):
        for w in range(u + 1, base + 1):
            if rng.chance(*_PARTIAL_KEEP):
                edges.append((u, w))
    for v in range(base + 1, n + 1):
        host = rng.randint(0, len(bags) - 1)
        keep = min(t - 1, len(bags[host]))
        chosen = sorted(rng.sample(bags[host], keep))
        bags.append(chosen + [v])
        tree_edges.append((host + 1, len(bags)))
        for u in chosen:
            if rng.chance(*_PARTIAL_KEEP):
                edges.append((u, v))
    return Graph(n, edges), TreeDecomposition(bags, tree_edges)


def generate(spec: GeneratorSpec) -> tuple[Graph, TreeDecomposition | None]:
    """Build the instance described by ``spec`` (graph plus optional decomposition)."""
    for f in fields(spec)[1:]:  # the seed, and the sizes a family may leave unset
        value = getattr(spec, f.name)
        if not is_int(value) and (value is not None or f.name == "seed"):
            raise BadParameters(f"parameter {f.name!r} must be an integer, got {value!r}")
    rng = Xorshift64Star(spec.seed)
    fam = spec.family
    if fam == "path":
        return path_graph(_req(spec.n, "n")), None
    if fam == "star":
        return star_graph(_req(spec.n, "n")), None
    if fam == "caterpillar":
        return caterpillar_graph(_req(spec.n, "n")), None
    if fam == "spider":
        return spider_graph(_req(spec.arity, "arity"), _req(spec.height, "height")), None
    if fam == "perfect_dary":
        return perfect_dary_tree(_req(spec.arity, "arity"), _req(spec.height, "height")), None
    if fam == "adversarial_ternary_path":
        return adversarial_ternary_path(_req(spec.height, "height")), None
    if fam == "random_tree_maxdeg":
        return random_tree_maxdeg(_req(spec.n, "n"), spec.max_degree or 4, rng), None
    if fam == "random_partial_ktree":
        return random_partial_ktree(_req(spec.n, "n"), _req(spec.t, "t"), rng)
    raise BadParameters(f"unknown family {fam!r}; known: {', '.join(GeneratorSpec.FAMILIES)}")


def _req(value, name: str):
    if value is None:
        raise BadParameters(f"missing required parameter {name!r}")
    return value
