"""Feasibility bounds and the mass-split search."""

import math

import numpy as np
import pytest

from symcub import (
    Feasibility,
    MassSplit,
    NodeClass,
    Region,
    RegionId,
    SearchMode,
    SearchObjective,
    check_exactness,
    classify_nodes,
    compute_constants,
    feasible_region_bounds,
    hankel_feasibility,
    reduced_moment_chain,
    region_spec,
    search_masses,
    simplex_spec,
)


def test_bounds_chain1_simplex3():
    spec = simplex_spec(3)
    consts = compute_constants(spec)
    bounds = feasible_region_bounds(spec, consts)
    assert len(bounds) == 1
    assert bounds[0] == pytest.approx(135 / 5184, rel=1e-12)


def test_bounds_chain2_and_last():
    spec = simplex_spec(3)
    consts = compute_constants(spec)
    bounds = feasible_region_bounds(spec, consts, (1 / 18,))
    assert len(bounds) == 2
    # m1 = -M/3 with M = 1/9, m2 = 1/20 + 1/81 -> bound = 20/909
    assert bounds[1] == pytest.approx(20 / 909, rel=1e-12)
    bounds = feasible_region_bounds(spec, consts, (1 / 18, 1 / 18))
    assert bounds[2] == 0.0
    full = feasible_region_bounds(spec, consts, (1 / 18, 1 / 18, 1 / 18))
    assert full == pytest.approx(bounds, rel=1e-15)


def _chain_with_mass(spec, consts, prefix, mass):
    # the bound for chain k is conditioned on the prefix masses, so keep
    # them fixed and spread the remaining budget over the later chains
    k = len(prefix) + 1
    tail_count = spec.n - k
    tail = (spec.m_1 - sum(prefix) - mass) / tail_count
    masses = tuple(prefix) + (mass,) + (tail,) * tail_count
    return reduced_moment_chain(spec, MassSplit(masses), consts)[k - 1]


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [3, 8, 33])
def test_bounds_are_the_chain_moment_ratio(region, n):
    # one source for the chain moments: each bound is m1^2 / m2 of the
    # chain entry that reduced_moment_chain builds from the same prefix
    spec = region_spec(RegionId(region, n))
    consts = compute_constants(spec)
    rng = np.random.default_rng(n)
    for _ in range(5):
        masses = tuple(rng.uniform(0.5, 1.5, n) * spec.m_1 / n)
        chain = reduced_moment_chain(spec, MassSplit(masses, compensation=True), consts)
        for p in range(n + 1):
            bounds = feasible_region_bounds(spec, consts, masses[:p])
            assert len(bounds) == min(p + 1, n)
            for bound, (_, m1, m2, _) in zip(bounds, chain):
                assert bound == m1 * m1 / m2


@pytest.mark.parametrize("k", [1, 2])
def test_bounds_agree_with_solver_flip(k):
    spec = simplex_spec(3)
    consts = compute_constants(spec)
    prefix = () if k == 1 else (1 / 18,) * (k - 1)
    bound = feasible_region_bounds(spec, consts, prefix)[k - 1]
    assert bound > 0
    above = _chain_with_mass(spec, consts, prefix, bound * (1 + 1e-6))
    below = _chain_with_mass(spec, consts, prefix, bound * (1 - 1e-6))
    assert hankel_feasibility(*above) is Feasibility.POSITIVE_DEFINITE
    assert hankel_feasibility(*below) is not Feasibility.POSITIVE_DEFINITE


def test_search_interior_simplex3():
    rid = RegionId(Region.SIMPLEX, 3)
    spec = region_spec(rid)
    result = search_masses(spec, rid, SearchObjective(mode=SearchMode.INTERIOR, seed=0))
    assert result.satisfied
    classes = classify_nodes(result.rule, rid, tol=1e-9).classes
    assert all(c is NodeClass.INTERIOR for c in classes)
    assert check_exactness(result.rule, spec).max_abs_error <= 1e-12
    assert math.fsum(result.split.masses) == pytest.approx(spec.m_1, rel=1e-12)


def test_search_interior_or_boundary_simplex3():
    rid = RegionId(Region.SIMPLEX, 3)
    spec = region_spec(rid)
    result = search_masses(
        spec, rid, SearchObjective(mode=SearchMode.INTERIOR_OR_BOUNDARY, seed=0)
    )
    assert result.satisfied
    assert classify_nodes(result.rule, rid).exterior == 0


def test_search_interior_sector4():
    # an all-interior split exists here, t = (0.8, 1.31, 1.11, 0.78) being
    # a known witness; the search must find one on its own
    rid = RegionId(Region.BALL_SECTOR, 4)
    spec = region_spec(rid)
    result = search_masses(spec, rid, SearchObjective(mode=SearchMode.INTERIOR, seed=0))
    assert result.satisfied
    assert classify_nodes(result.rule, rid).interior == 8
    assert check_exactness(result.rule, spec).max_abs_error <= 1e-12


def test_search_feasible_mode_is_immediate():
    rid = RegionId(Region.CUBE, 3)
    spec = region_spec(rid)
    result = search_masses(spec, rid, SearchObjective(mode=SearchMode.FEASIBLE, seed=0))
    assert result.satisfied
    assert result.evaluations == 1


def test_search_is_deterministic():
    rid = RegionId(Region.SIMPLEX, 4)
    spec = region_spec(rid)
    objective = SearchObjective(mode=SearchMode.INTERIOR, seed=11, max_evals=500)
    first = search_masses(spec, rid, objective)
    second = search_masses(spec, rid, objective)
    assert first.split.masses == second.split.masses
    assert first.evaluations == second.evaluations
    assert first.score == second.score


def test_search_respects_budget():
    rid = RegionId(Region.SIMPLEX, 4)
    spec = region_spec(rid)
    result = search_masses(
        spec, rid, SearchObjective(mode=SearchMode.INTERIOR, seed=0, max_evals=3)
    )
    assert result.evaluations <= 3
    if not result.satisfied:
        assert "budget" in result.message or "no feasible" in result.message


def test_search_with_compensation():
    rid = RegionId(Region.SIMPLEX, 4)
    spec = region_spec(rid)
    result = search_masses(
        spec,
        rid,
        SearchObjective(mode=SearchMode.INTERIOR, allow_compensation=True, seed=1),
    )
    assert result.satisfied
    assert len(result.rule) == 9
    assert result.rule.total_weight() == pytest.approx(spec.m_1, rel=1e-12)
    assert classify_nodes(result.rule, rid).exterior == 0


def test_search_unsatisfied_reports_best_effort():
    # a plain 2n-point all-interior rule for the 4-simplex is not found
    # within a small budget; the search must return its best candidate
    rid = RegionId(Region.SIMPLEX, 4)
    spec = region_spec(rid)
    result = search_masses(
        spec, rid, SearchObjective(mode=SearchMode.INTERIOR, seed=0, max_evals=200)
    )
    assert result.rule is not None
    assert result.score[0] >= 0
    if not result.satisfied:
        assert result.score[0] > 0
        assert "budget" in result.message


def test_objective_validation():
    with pytest.raises(ValueError):
        SearchObjective(max_evals=0)
    # a negative tolerance would count exterior nodes as interior
    for tol in (-0.05, math.inf, math.nan):
        with pytest.raises(ValueError):
            SearchObjective(boundary_tol=tol)
    assert SearchObjective(boundary_tol=0.0).boundary_tol == 0.0
