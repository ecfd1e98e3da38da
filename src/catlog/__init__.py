"""Exact combinatorics of logarithms of generalized Catalan generating
functions: formal power series over rationals, labeled lattice paths,
plane k-ary trees, cyclically ordered multisets, and the bijections and
counting identities that tie them together.
"""

from .arith import binomial, factorial, format_rational, harmonic, multichoose
from .catalan import (
    CoeffRow,
    CoeffTable,
    coeff_log,
    coeff_log_power,
    coeff_table,
    composition_sum,
    count_multisets,
    count_ornaments,
    count_paths,
    gen_catalan,
    knuth_general_log2,
    knuth_log2_coeff,
    returns_count,
)
from .errors import DEFAULT_MAX_ENUMERATION, ResourceCapError
from .multisets import (
    CyclicMultiset,
    cycle_tree_to_multiset,
    cycle_tree_to_ornament,
    enumerate_multisets,
    multiset_rank,
    multiset_to_cycle_tree,
    multiset_to_ornament,
    multiset_unrank,
    ornament_to_cycle_tree,
    ornament_to_multiset,
    root_vertices,
)
from .paths import (
    GoodPath,
    MinimalField,
    Ornament,
    decompose,
    diagonal_touches,
    enumerate_fields,
    enumerate_minimal_paths,
    enumerate_ornaments,
    enumerate_paths,
    is_good,
    is_label_minimal,
    recompose,
    rotations,
    to_ornament,
    touch_count,
)
from .series import Series, catalan_series
from .trees import (
    CycleRootedTree,
    PlaneTree,
    RootMinimalForest,
    enumerate_cycle_rooted,
    enumerate_trees,
    forest_to_tree,
    is_root_minimal,
    rightmost_branch,
    to_cycle_rooted,
    to_root_minimal,
    tree_to_forest,
)
from .verify import CheckResult, VerificationReport, run_suite

__version__ = "0.1.0"
