"""The public names of ``ksec`` and their shapes, pinned so that any change shows in review.

Each public callable is pinned to its parameter names, each public
dataclass to its fields, and each public method of a public class
(``Class.method``) to its parameter names without ``self`` or ``cls``.
Annotations and defaults are not pinned.  Each public name must also
have a caller outside the tests, or a reason in ``KEPT``: every entry
point needs its own boundary checks.  So must each defaulted parameter
of a public callable, or a reason in ``KEPT_PARAMETERS``: every option
is one more input to check.
"""

import ast
import dataclasses
import inspect
import math
import types
from collections import defaultdict
from pathlib import Path

import ksec

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_API = {
    "BoundReport": (
        "n", "k", "max_degree", "achieved", "diam", "rel_diam", "r", "t", "bound_tree",
        "bound_tree_improved", "bound_td",
    ),
    "BoundReport.to_dict": (),
    "Cut": ("black", "width"),
    "DiamCutTrace": (
        "case_tag", "m", "anchor", "floor_dm", "m_set", "z", "m_tilde", "b_z", "w_z", "v_tilde",
        "inner_width", "outer_width",
    ),
    "GeneratorSpec": ("family", "seed", "n", "max_degree", "arity", "height", "t"),
    "Graph": ("n", "edges"),
    "Graph.vertices": (),
    "HeaviestPathResult": ("path", "weight", "relative_weight"),
    "KSection": ("parts", "width"),
    "KSection.from_parts": ("g", "parts"),
    "PLabeling": ("n", "vertex_of", "path_prefix", "on_path", "num_path", "ends"),
    "PLabeling.vertex": ("label",),
    "PLabeling.block": ("label",),
    "RCutTrace": (
        "case_tag", "m", "r", "t", "anchor", "floor_rm", "node", "m_tilde", "b_side", "v_tilde",
        "r_tilde", "inner_width", "outer_width", "normalized_td",
    ),
    "TDSummary": ("td", "path", "t", "n"),
    "TreeDecomposition": ("bags", "tree_edges"),
    "TreeDecomposition.bag": ("i",),
    "TreeDecomposition.nodes": (),
    "Xorshift64Star": ("seed",),
    "Xorshift64Star.next_u64": (),
    "Xorshift64Star.randint": ("lo", "hi"),
    "Xorshift64Star.chance": ("num", "den"),
    "Xorshift64Star.sample": ("items", "count"),
    "approximate_cut": ("tree", "v", "m"),
    "approximate_cut_td": ("g", "td", "m"),
    "brute_min_ksection": ("g", "k", "limit"),
    "cut_prescribed_sizes": ("forest", "sizes"),
    "cut_width": ("g", "parts"),
    "diameter_preserving_cut": ("forest", "m", "comps"),
    "dp_min_size_cut_td": ("g", "td", "m", "max_width"),
    "dp_min_size_cut_tree": ("forest", "m"),
    "find_anchor": ("lab", "m"),
    "forest_summary": ("g",),
    "generate": ("spec",),
    "heaviest_path": ("td", "n"),
    "induced": ("td", "vertex_set"),
    "ksection_td": ("g", "td", "k"),
    "ksection_td_detailed": ("g", "td", "k"),
    "ksection_tree": ("tree", "k"),
    "ksection_tree_detailed": ("tree", "k"),
    "make_nonredundant": ("td",),
    "max_degree": ("g",),
    "parse_gr": ("text",),
    "parse_td": ("text",),
    "r_preserving_cut": ("g", "td", "m", "summary"),
    "recursive_bisection_baseline": ("tree", "k"),
    "td_summary": ("td", "n"),
    "validation_errors": ("td", "g"),
    "write_gr": ("g", "comment"),
    "write_td": ("td", "n", "comment"),
}


def params(f) -> tuple:
    return tuple(p for p in inspect.signature(f).parameters if p not in ("self", "cls"))


def public_names() -> list:
    return sorted(n for n, v in vars(ksec).items()
                  if not n.startswith("_") and not isinstance(v, types.ModuleType))


def public_shapes() -> dict:
    """The shape of each public name of ``ksec`` and of each public method of its classes."""
    shapes = {}
    for name in public_names():
        v = getattr(ksec, name)
        if dataclasses.is_dataclass(v):
            shapes[name] = tuple(f.name for f in dataclasses.fields(v))
        else:
            shapes[name] = params(v)
        if isinstance(v, type):
            for attr, m in vars(v).items():
                f = m.__func__ if isinstance(m, (classmethod, staticmethod)) else m
                if not attr.startswith("_") and inspect.isfunction(f):
                    shapes[f"{name}.{attr}"] = params(f)
    return shapes


def test_public_names_of_ksec_are_pinned():
    assert public_names() == sorted(n for n in PUBLIC_API if "." not in n)


def test_public_signatures_and_fields_are_pinned():
    assert public_shapes() == PUBLIC_API


# public names that nothing outside the tests calls, each kept for a reason
KEPT = {
    "approximate_cut": "the paper's approximate-cut lemma for trees (acceptance criterion 3)",
    "approximate_cut_td": "the paper's approximate-cut lemma for decompositions (criterion 3)",
    "cut_prescribed_sizes": "the paper's forest partition into prescribed sizes (golden hashes)",
    "validation_errors": "README's way to list every violation of a decomposition",
}


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def _tool_paths() -> list:
    """The library's own modules (not ``__init__``), ``perfbench`` and ``scripts``."""
    paths = [p for p in (ROOT / "src" / "ksec").glob("*.py") if p.name != "__init__.py"]
    return paths + [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]


def test_every_public_name_has_a_caller_outside_the_tests_or_a_reason_to_stay():
    """A public function, class or method is named in the library or its tools, or is KEPT.

    The library's own modules (not ``__init__``), ``perfbench`` and
    ``scripts`` count; a function's name counts as a name or an
    attribute, a method's as an attribute.
    """
    names, attrs = set(), set()
    for node in (n for t in _trees(_tool_paths()) for n in ast.walk(t)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    uncalled = {key for key in public_shapes()
                if key.rpartition(".")[2] not in (attrs if "." in key else names | attrs)}
    assert uncalled == set(KEPT)


# defaulted parameters of public callables that nothing outside the tests passes, each kept
# for a reason
KEPT_PARAMETERS = {}


def _passed(paths) -> tuple[dict, dict]:
    """(keywords, positions): by called name, the keywords and the most positions some call passes.

    A call is named by its function's name or attribute.  A ``**`` splat
    counts as passing every keyword (``None``), a ``*`` splat every
    position.
    """
    keywords, positions = defaultdict(set), defaultdict(int)
    for node in (n for t in _trees(paths) for n in ast.walk(t)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            keywords[name].update(k.arg for k in node.keywords)
            star = any(isinstance(a, ast.Starred) for a in node.args)
            positions[name] = max(positions[name], math.inf if star else len(node.args))
    return keywords, positions


def test_every_defaulted_parameter_is_passed_outside_the_tests_or_has_a_reason_to_stay():
    """Each defaulted parameter of a public callable is passed in the library or its tools, or is KEPT.

    The callables are those ``public_shapes`` pins, a dataclass by its
    fields, and the paths those of the caller check above.  A parameter
    counts as passed by a call of its callable's name (a method's by its
    attribute) that names it or reaches its position.
    """
    keywords, positions = _passed(_tool_paths())
    unpassed = set()
    for key in public_shapes():
        obj = ksec
        for part in key.split("."):
            obj = getattr(obj, part)
        name = key.rpartition(".")[2]
        shown = [p for p in inspect.signature(obj).parameters.values()
                 if p.name not in ("self", "cls")]
        for i, p in enumerate(shown):
            by_position = p.kind != p.KEYWORD_ONLY and positions[name] > i
            if p.default is not p.empty and not (by_position or {p.name, None} & keywords[name]):
                unpassed.add(f"{key}({p.name})")
    assert unpassed == set(KEPT_PARAMETERS)


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for p in (ROOT / "src" / "ksec").glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "tests").glob("*.py")
    unused = {}
    for path, tree in zip(paths, _trees(paths)):
        bound = {alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if bound - used:
            unused[path.name] = sorted(bound - used)
    assert unused == {}
