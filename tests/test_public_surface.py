"""The public surface: every exported name resolves, and the package's is pinned."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import symcub

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(symcub.__path__))

# Adding or removing a public name is a deliberate change to this list.
PACKAGE_ALL = [
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


def test_package_all_is_pinned():
    assert PACKAGE_ALL == sorted(PACKAGE_ALL)
    assert symcub.__all__ == PACKAGE_ALL


def test_package_names_resolve():
    missing = [name for name in symcub.__all__ if not hasattr(symcub, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", SUBMODULES)
def test_module_names_resolve(module_name):
    module = importlib.import_module(f"symcub.{module_name}")
    names = getattr(module, "__all__", [])  # errors.py exports by name only
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []


def test_submodules_are_found():
    assert {"assembly", "cli", "decomposition", "validation"} <= set(SUBMODULES)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency
    src = str(Path(symcub.__file__).parents[1])
    code = (
        "import sys, symcub, symcub.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
