"""k-sections of provably bounded cut width in trees and tree-decomposed graphs."""

from .graph import (
    Cut,
    Graph,
    KSection,
    cut_width,
    forest_summary,
    max_degree,
    parse_gr,
    write_gr,
)
from .labeling import PLabeling, find_anchor
from .treecut import DiamCutTrace, approximate_cut, diameter_preserving_cut
from .treedec import (
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
from .tdcut import RCutTrace, approximate_cut_td, r_preserving_cut
from .engine import (
    BoundReport,
    cut_prescribed_sizes,
    ksection_td,
    ksection_td_detailed,
    ksection_tree,
    ksection_tree_detailed,
    recursive_bisection_baseline,
)
from .oracle import brute_min_ksection, dp_min_size_cut_td, dp_min_size_cut_tree
from .instances import GeneratorSpec, Xorshift64Star, generate

__version__ = "0.1.0"
