"""The public names of ``ksec`` and their shapes, pinned so that any change shows in review.

Each public callable is pinned to its parameter names, each public
dataclass to its fields, and each public method of a public class
(``Class.method``) to its parameter names without ``self`` or ``cls``.
Annotations and defaults are not pinned.
"""

import dataclasses
import inspect
import types

import ksec

PUBLIC_API = {
    "BoundReport": (
        "n", "k", "max_degree", "achieved", "diam", "rel_diam", "r", "t", "bound_tree",
        "bound_tree_improved", "bound_td",
    ),
    "BoundReport.to_dict": (),
    "Cut": ("black", "white", "width"),
    "Cut.from_black": ("g", "black"),
    "DiamCutTrace": (
        "case_tag", "m", "anchor", "floor_dm", "m_set", "z", "m_tilde", "b_z", "w_z", "v_tilde",
        "inner_width", "outer_width",
    ),
    "GeneratorSpec": ("family", "seed", "n", "max_degree", "arity", "height", "t"),
    "Graph": ("n", "edges"),
    "Graph.degree": ("v",),
    "Graph.vertices": (),
    "HeaviestPathResult": ("path", "weight", "relative_weight"),
    "KSection": ("parts", "width"),
    "KSection.from_parts": ("g", "parts"),
    "PLabeling": ("n", "vertex_of", "path_prefix", "on_path", "num_path", "ends"),
    "PLabeling.from_blocks": ("blocks", "marked"),
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
    "d_p": ("lab", "x", "y"),
    "diameter_preserving_cut": ("forest", "m", "comps"),
    "dp_min_size_cut_td": ("g", "td", "m", "max_width"),
    "dp_min_size_cut_tree": ("forest", "m", "outside"),
    "find_anchor": ("lab", "m"),
    "forest_summary": ("g", "vertices"),
    "generate": ("spec",),
    "heaviest_path": ("td", "n"),
    "induced": ("td", "vertex_set"),
    "induced_subgraph": ("g", "vertices"),
    "ksection_td": ("g", "td", "k"),
    "ksection_td_detailed": ("g", "td", "k"),
    "ksection_tree": ("tree", "k"),
    "ksection_tree_detailed": ("tree", "k"),
    "make_nonredundant": ("td",),
    "max_degree": ("g",),
    "p_labeling": ("tree", "path"),
    "parse_gr": ("text",),
    "parse_td": ("text",),
    "r_preserving_cut": ("g", "td", "m", "summary"),
    "recursive_bisection_baseline": ("tree", "k"),
    "td_p_labeling": ("g", "td", "path"),
    "td_summary": ("td", "n"),
    "tree_to_width1_td": ("tree",),
    "validation_errors": ("td", "g"),
    "write_gr": ("g", "comment"),
    "write_td": ("td", "n", "comment"),
}


def params(f) -> tuple:
    return tuple(p for p in inspect.signature(f).parameters if p not in ("self", "cls"))


def test_public_names_of_ksec_are_pinned():
    names = sorted(n for n, v in vars(ksec).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == sorted(n for n in PUBLIC_API if "." not in n)


def test_public_signatures_and_fields_are_pinned():
    shapes = {}
    for name in (n for n in PUBLIC_API if "." not in n):
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
    assert shapes == PUBLIC_API
