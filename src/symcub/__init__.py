"""Degree-3 cubature rules for permutation-symmetric integrals.

The construction decomposes an n-dimensional degree-3 cubature problem
for a permutation-symmetric positive functional into n one-dimensional
truncated moment problems, yielding rules with 2n nodes (or 2n + 1 with
one compensation node).  See README.md for usage.
"""

from .assembly import CubatureRule, build_rule
from .decomposition import (
    DecompositionConstants,
    MassSplit,
    compute_constants,
    default_split,
    reduced_moment_chain,
    solve_two_point,
)
from .errors import (
    CubatureError,
    DegreeOutOfRangeError,
    DimensionMismatchError,
    InconsistentAtomError,
    InfeasibleMomentError,
    InvalidDimensionError,
    InvalidMomentSpecError,
    InvalidSplitError,
    UnmatchedRuleError,
)
from .moments import (
    Region,
    RegionId,
    SymmetricMomentSpec,
    cube_spec,
    load_spec,
    region_monomial_moment,
    region_spec,
    sector_spec,
    simplex_spec,
    spec_from_dict,
)
from .search import SearchMode, SearchObjective, SearchResult, search_masses
from .validation import (
    ExactnessReport,
    NodeClass,
    NodeClassification,
    RuleDiff,
    check_exactness,
    classify_nodes,
    compare_to_reference,
    degree4_nonexactness,
)

__version__ = "0.1.0"

__all__ = [
    "CubatureError",
    "CubatureRule",
    "DecompositionConstants",
    "DegreeOutOfRangeError",
    "DimensionMismatchError",
    "ExactnessReport",
    "InconsistentAtomError",
    "InfeasibleMomentError",
    "InvalidDimensionError",
    "InvalidMomentSpecError",
    "InvalidSplitError",
    "MassSplit",
    "NodeClass",
    "NodeClassification",
    "Region",
    "RegionId",
    "RuleDiff",
    "SearchMode",
    "SearchObjective",
    "SearchResult",
    "SymmetricMomentSpec",
    "UnmatchedRuleError",
    "build_rule",
    "check_exactness",
    "classify_nodes",
    "compare_to_reference",
    "compute_constants",
    "cube_spec",
    "default_split",
    "degree4_nonexactness",
    "load_spec",
    "reduced_moment_chain",
    "region_monomial_moment",
    "region_spec",
    "search_masses",
    "sector_spec",
    "simplex_spec",
    "solve_two_point",
    "spec_from_dict",
]
