"""The public names of ``ksec``, pinned so that adding or deleting one shows in review."""

import types

import ksec

PUBLIC_API = [
    "BoundReport",
    "Cut",
    "DiamCutTrace",
    "GeneratorSpec",
    "Graph",
    "HeaviestPathResult",
    "KSection",
    "PLabeling",
    "PathDecomposition",
    "RCutTrace",
    "TDPLabeling",
    "TDSummary",
    "TreeDecomposition",
    "Xorshift64Star",
    "approximate_cut",
    "approximate_cut_td",
    "brute_min_ksection",
    "cut_prescribed_sizes",
    "cut_width",
    "d_p",
    "decompose_along_path",
    "diameter_preserving_cut",
    "dp_min_size_cut_td",
    "dp_min_size_cut_tree",
    "find_anchor",
    "forest_summary",
    "generate",
    "heaviest_path",
    "induced",
    "induced_subgraph",
    "ksection_td",
    "ksection_td_detailed",
    "ksection_tree",
    "ksection_tree_detailed",
    "make_nonredundant",
    "max_degree",
    "p_labeling",
    "parse_gr",
    "parse_td",
    "r_preserving_cut",
    "recursive_bisection_baseline",
    "td_p_labeling",
    "td_summary",
    "tree_to_width1_td",
    "validation_errors",
    "write_gr",
    "write_td",
]


def test_public_names_of_ksec_are_pinned():
    names = sorted(n for n, v in vars(ksec).items()
                   if not n.startswith("_") and not isinstance(v, types.ModuleType))
    assert names == PUBLIC_API
