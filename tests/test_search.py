"""Per-chain mass bounds and the deterministic chain walk."""

import copy
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from symcub import (
    InvalidMomentSpecError,
    MassSplit,
    NodeClass,
    Region,
    RegionId,
    SearchMode,
    SearchObjective,
    SymmetricMomentSpec,
    check_exactness,
    classify_nodes,
    compute_constants,
    reduced_moment_chain,
    region_spec,
    search_masses,
    simplex_spec,
)
import symcub.search
from symcub.assembly import build_rule
from symcub.decomposition import add_exact, chain_moments, least_mass, map_nodes
from symcub.reference import load_reference_rule
from symcub.search import (
    _WALKS_PER_PASS, _ChainWalk, _bracket, _score_candidate, _walker,
)
from symcub.validation import BOUNDARY_TOL, node_margins
from reference_helpers import Feasibility, closure_chain_moments, hankel_feasibility


def _least_unbounded(spec, prefix):
    # the least mass of chain len(prefix) + 1 over an unbounded node interval
    k = len(prefix) + 1
    m1, m2, m3 = chain_moments(spec)(k, spec.m_1 - math.fsum(prefix))
    return least_mass(m1, m2, m3, -math.inf, math.inf)


def test_bounds_chain1_simplex3():
    spec = simplex_spec(3)
    assert _least_unbounded(spec, ()) == pytest.approx(135 / 5184, rel=1e-12)


def test_bounds_chain2_and_last():
    spec = simplex_spec(3)
    # m1 = -M/3 with M = 1/9, m2 = 1/20 + 1/81 -> bound = 20/909
    assert _least_unbounded(spec, (1 / 18,)) == pytest.approx(20 / 909, rel=1e-12)
    assert _least_unbounded(spec, (1 / 18, 1 / 18)) == 0.0


def _chain_with_mass(spec, prefix, mass):
    # the bound for chain k is conditioned on the prefix masses, so keep
    # them fixed and spread the remaining budget over the later chains
    k = len(prefix) + 1
    tail_count = spec.n - k
    tail = (spec.m_1 - sum(prefix) - mass) / tail_count
    masses = tuple(prefix) + (mass,) + (tail,) * tail_count
    return reduced_moment_chain(spec, MassSplit(masses))[k - 1]


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_bounds_are_the_chain_moment_ratio(region, n):
    # one source for the chain moments: over an unbounded node interval
    # the least mass is m1^2 / m2 of the chain entry that
    # reduced_moment_chain builds from the same prefix
    spec = region_spec(RegionId(region, n))
    rng = np.random.default_rng(n)
    for _ in range(5):
        masses = tuple(rng.uniform(0.5, 1.5, n) * spec.m_1 / n)
        chain = reduced_moment_chain(spec, MassSplit(masses, compensation=True))
        for k, (_, m1, m2, _) in enumerate(chain, start=1):
            assert _least_unbounded(spec, masses[: k - 1]) == m1 * m1 / m2


@pytest.mark.parametrize("k", [1, 2])
def test_bounds_agree_with_solver_flip(k):
    spec = simplex_spec(3)
    prefix = () if k == 1 else (1 / 18,) * (k - 1)
    bound = _least_unbounded(spec, prefix)
    assert bound > 0
    above = _chain_with_mass(spec, prefix, bound * (1 + 1e-6))
    below = _chain_with_mass(spec, prefix, bound * (1 - 1e-6))
    assert hankel_feasibility(*above) is Feasibility.POSITIVE_DEFINITE
    assert hankel_feasibility(*below) is not Feasibility.POSITIVE_DEFINITE


def test_least_mass_puts_both_nodes_in_the_node_interval():
    # chain 1 of the 3-simplex: at the least mass one node sits on an end
    # of [a, b]; a little more mass keeps both nodes inside
    spec = simplex_spec(3)
    m1, m2, m3 = chain_moments(spec)(1, spec.m_1)
    a, b = m1 / spec.m_1 - 0.3, m1 / spec.m_1 + 0.4
    lo = least_mass(m1, m2, m3, a, b)
    assert m1 * m1 / m2 < lo < math.inf
    for mu, inside in ((lo * (1 + 1e-9), True), (lo * (1 - 1e-6), False)):
        coeffs = (mu * m2 - m1 * m1, m1 * m2 - mu * m3, m1 * m3 - m2 * m2)
        roots = np.roots(coeffs)
        assert bool(a <= roots.min() and roots.max() <= b) is inside


def _reference_intervals(spec, rid, consts, tau):
    # every chain's node interval at once, vectorised over the full (n, 2n)
    # margin arrays: the reference that _ChainWalk.interval must equal exactly
    n = spec.n
    nodes = map_nodes([(k, (-1.0, 0.0, 1.0)) for k in range(1, n + 1)], consts)
    g_lo, A, g_hi = node_margins(rid, nodes).reshape(n, 3, -1).transpose(1, 0, 2)
    B, C = 0.5 * (g_hi - g_lo), 0.5 * (g_hi + g_lo) - A
    C[np.abs(C) <= 1e-12 * (np.abs(g_lo) + np.abs(A) + np.abs(g_hi))] = 0.0
    A = A - tau
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(B * B - 4.0 * C * A)
        lo = np.where(C < 0, (root - B) / (2.0 * C), np.where(B > 0, -A / B, -np.inf))
        hi = np.where(C < 0, (-root - B) / (2.0 * C), np.where(B < 0, -A / B, np.inf))
    empty = np.isnan(lo) | ((B == 0) & (C == 0) & (A < 0))
    lo[empty], hi[empty] = np.inf, -np.inf
    return lo.max(axis=1), hi.min(axis=1)


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 8, 33])
def test_interval_matches_the_full_margin_arrays(region, n):
    rid = RegionId(region, n)
    spec = region_spec(rid)
    consts = compute_constants(spec)
    walker = _ChainWalk(spec, rid)
    # a chain's cap is the least of its constant margins: equal to it the
    # chain still admits t, just above it no t
    caps = [cap for cap in walker.caps if cap < math.inf]
    assert len(caps) >= n - 2  # at least chains 3 .. n have a gamma block
    capped = [tau for cap in caps for tau in (cap, math.nextafter(cap, math.inf))]
    empty = 0
    for tau in (-1.0, -0.2, 0.0, 1e-9, 0.05, 0.3, 0.9, *capped):
        a, b = _reference_intervals(spec, rid, consts, tau)
        for k in range(1, n + 1):
            assert walker.interval(k, tau) == (a[k - 1], b[k - 1]), (tau, k)
            empty += a[k - 1] > b[k - 1]
    # the grid reaches margins that no node of some chain keeps
    assert empty > 0


@pytest.mark.parametrize("region", list(Region))
def test_chains_keep_at_most_six_margins(region):
    # a chain-k node has at most three distinct coordinates
    rid = RegionId(region, 64)
    spec = region_spec(rid)
    walker = _ChainWalk(spec, rid)
    assert max(len(margins) for margins in walker.margins) <= 6


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [3, 6, 9])
def test_mass_left_after_least_mass_never_decreases(region, n):
    # the walk's optimality rests on r - least_k(r) being nondecreasing in
    # the mass ahead r, with a chain that admits no mass counting as -inf
    rid = RegionId(region, n)
    spec = region_spec(rid)
    walker = _ChainWalk(spec, rid)
    masses_ahead = np.linspace(-walker.m_1, 2 * walker.m_1, 301)  # in the walk's units
    for tau in (-0.2, -0.05, 0.0, 0.05, 0.1):
        for k in range(2, n):
            a, b = walker.interval(k, tau)
            left = []
            for r in masses_ahead:
                least = least_mass(*walker.moments(k, r), a, b)
                left.append(r - least if 0 < least < math.inf else -math.inf)
            left = np.array(left)
            placed = np.isfinite(left)
            assert not np.any(placed[:-1] & ~placed[1:]), (tau, k)
            assert np.all(np.diff(left[placed]) >= 0), (tau, k)


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", range(2, 9))
def test_walk_success_is_monotone_in_tau(region, n):
    # the search's answer rests on walks succeeding for every margin below
    # some tau and for none above it, as its optimality rests on the lemma
    # above: then any bracket search over tau's grid ends on the grid point
    # a bisection ends on.  Checked on a grid and around the tau found.
    rid = RegionId(region, n)
    spec = region_spec(rid)
    walker = _ChainWalk(spec, rid)
    for slack in (None, 0.0, walker.m_1):
        reached = []

        def walk(tau, slack):
            result = walker.walk(tau, slack)
            if result[0] is not None:
                reached.append(tau)
            return result

        _bracket(SimpleNamespace(walk=walk), slack, _WALKS_PER_PASS)
        taus = np.union1d(np.linspace(-1.0, 1.0, 201), max(reached) + np.linspace(-1e-9, 1e-9, 50))
        succeeded = [walker.walk(tau, slack)[0] is not None for tau in taus.tolist()]
        assert succeeded == sorted(succeeded, reverse=True), slack


MODES = [SearchMode.FEASIBLE, SearchMode.INTERIOR, SearchMode.INTERIOR_OR_BOUNDARY]

# Largest n in 2..8 each objective meets; every smaller n is met too.
SATISFIED_UP_TO = {
    (Region.SIMPLEX, False): 3,
    (Region.BALL_SECTOR, False): 4,
    (Region.CUBE, False): 5,
    (Region.SIMPLEX, True): 5,
    (Region.BALL_SECTOR, True): 7,
    (Region.CUBE, True): 8,
}


@pytest.mark.parametrize("compensation", [False, True])
@pytest.mark.parametrize("region", list(Region))
def test_satisfied_set_on_the_grid(region, compensation):
    for n in range(2, 9):
        rid = RegionId(region, n)
        spec = region_spec(rid)
        for mode in MODES:
            result = search_masses(
                spec, rid, SearchObjective(mode=mode, allow_compensation=compensation)
            )
            expected = mode is SearchMode.FEASIBLE or n <= SATISFIED_UP_TO[region, compensation]
            assert result.satisfied is expected, (n, mode)
            # the walk count is deterministic: at most 14, or 17 with compensation
            assert result.evaluations <= (17 if compensation else 14)
            # best-effort rules are complete and exact as well
            assert len(result.rule) == 2 * n + compensation
            assert check_exactness(result.rule, spec).max_rel_error <= 1e-13
            if result.satisfied:
                classification = classify_nodes(result.rule, rid)
                if mode is SearchMode.INTERIOR:
                    assert classification.interior == len(result.rule)
                elif mode is SearchMode.INTERIOR_OR_BOUNDARY:
                    assert classification.exterior == 0


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
    # one pass of the bisection, with no walk spent on a failure message
    rid = RegionId(Region.CUBE, 3)
    spec = region_spec(rid)
    result = search_masses(spec, rid, SearchObjective(mode=SearchMode.FEASIBLE, seed=0))
    assert result.satisfied
    assert result.evaluations <= _WALKS_PER_PASS


def test_search_is_deterministic():
    rid = RegionId(Region.SIMPLEX, 4)
    spec = region_spec(rid)
    objective = SearchObjective(mode=SearchMode.INTERIOR, seed=11, max_evals=500)
    first = search_masses(spec, rid, objective)
    second = search_masses(spec, rid, objective)
    assert first.split.masses == second.split.masses
    assert first.evaluations == second.evaluations
    assert first.score == second.score


@pytest.mark.parametrize(
    "region, n", [(Region.SIMPLEX, 4), (Region.BALL_SECTOR, 5), (Region.CUBE, 6)]
)
def test_seed_has_no_effect(region, n):
    rid = RegionId(region, n)
    spec = region_spec(rid)
    results = [
        search_masses(spec, rid, SearchObjective(seed=seed, max_evals=1000))
        for seed in range(4)
    ]
    for result in results[1:]:
        assert result.split.masses == results[0].split.masses
        assert np.array_equal(result.rule.nodes, results[0].rule.nodes)
        assert np.array_equal(result.rule.weights, results[0].rule.weights)
        assert (result.score, result.message) == (results[0].score, results[0].message)


def test_search_respects_budget():
    rid = RegionId(Region.SIMPLEX, 4)
    spec = region_spec(rid)
    result = search_masses(
        spec, rid, SearchObjective(mode=SearchMode.INTERIOR, seed=0, max_evals=3)
    )
    assert result.evaluations <= 3
    assert not result.satisfied
    assert result.message.startswith("chain ")


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
    # as in table5: no split without a negative compensation weight exists
    assert classify_nodes(result.rule, rid).negative_weights == 1


def test_compensation_weight_stays_nonnegative_when_it_can():
    rid = RegionId(Region.SIMPLEX, 3)
    spec = region_spec(rid)
    result = search_masses(
        spec, rid, SearchObjective(mode=SearchMode.INTERIOR, allow_compensation=True)
    )
    assert result.satisfied
    assert len(result.rule) == 7
    assert classify_nodes(result.rule, rid).negative_weights == 0
    assert result.evaluations <= _WALKS_PER_PASS


def test_search_unsatisfied_reports_best_effort():
    # no plain 2n-point all-interior rule exists for the 4-simplex; the
    # search returns its best split and says which chain runs short
    rid = RegionId(Region.SIMPLEX, 4)
    spec = region_spec(rid)
    result = search_masses(
        spec, rid, SearchObjective(mode=SearchMode.INTERIOR, seed=0, max_evals=200)
    )
    assert not result.satisfied
    assert result.rule is not None and len(result.rule) == 8
    assert result.score[0] > 0
    assert result.message.startswith("chain 4 needs mu >= ")
    assert "remains" in result.message


@pytest.mark.parametrize(
    "region, n, chain",
    [(Region.SIMPLEX, 4, 4), (Region.BALL_SECTOR, 5, 5), (Region.CUBE, 6, 6)],
)
def test_message_names_the_failing_chain(region, n, chain):
    rid = RegionId(region, n)
    result = search_masses(region_spec(rid), rid, SearchObjective(max_evals=1000))
    assert not result.satisfied
    assert result.message.startswith(f"chain {chain} needs mu >= ")


def test_objective_validation():
    for max_evals in (0, 2.5, True, 48.0):
        with pytest.raises(ValueError):
            SearchObjective(max_evals=max_evals)
    # a negative tolerance would count exterior nodes as interior
    for tol in (-0.05, math.inf, math.nan):
        with pytest.raises(ValueError):
            SearchObjective(boundary_tol=tol)
    assert SearchObjective(boundary_tol=0.0).boundary_tol == 0.0


def test_exhausted_first_pass_keeps_its_reason():
    # one symmetrised point: no split exists, and the compensated first pass
    # spends the whole budget, so the second pass gets none
    spec = SymmetricMomentSpec(
        n=6, m_1=0.16366152548858584, m_x=0.14456262512674414, m_xx=0.1592244330428114,
        m_xy=0.12138613714840293, m_xxx=0.18597203448137536, m_xxy=0.13157758974449904,
        m_xyz=0.09504221218131687,
    )
    rid = RegionId(Region.CUBE, 6)
    objective = SearchObjective(allow_compensation=True, max_evals=_WALKS_PER_PASS)
    result = search_masses(spec, rid, objective)
    assert not result.satisfied and result.rule is None
    assert result.evaluations == _WALKS_PER_PASS
    assert result.message.startswith("chain 1 admits no mass > 0")


@pytest.mark.parametrize("n", [128, 160])
def test_feasible_search_at_tiny_mass(n):
    # L(1) = 1/n! < 1e-215: the least masses are found on rescaled moments
    rid = RegionId(Region.SIMPLEX, n)
    spec = region_spec(rid)
    result = search_masses(spec, rid, SearchObjective(mode=SearchMode.FEASIBLE))
    assert result.satisfied
    assert len(result.rule) == 2 * n
    assert check_exactness(result.rule, spec).max_rel_error <= 1e-13


def _bisect_walk(walker, tau, slack):
    # the walk as it was before it returned chain n's surplus
    masses, peeled, remaining = [], [], walker.m_1
    for k in range(1, walker.n + 1):
        least = least_mass(*walker.moments(k, remaining), *walker.interval(k, tau))
        if not 0 < least < math.inf:
            return None, f"chain {k} admits no mass > 0 at margin {tau:.6g}"
        if k == walker.n:
            available = remaining + (slack or 0.0)
            if least > available:
                least, available = (math.ldexp(x, walker.scale) for x in (least, available))
                return None, f"chain {k} needs mu >= {least:.9g} but {available:.9g} remains"
            if slack is None:
                least = remaining
        masses.append(least)
        add_exact(peeled, least)
        remaining = walker.m_1 - math.fsum(peeled)
    return tuple(masses), None


def _bisect(walker, slack, budget):
    # the plain bisection of tau the bracket search replaced
    best, ok, bad, why = None, None, 1.0, None
    tau, walks = -1.0, 0
    while walks < budget and (ok is None or ok < tau < bad):
        masses, failure = _bisect_walk(walker, tau, slack)
        walks += 1
        if masses is None:
            bad, why = tau, failure
        else:
            ok, best = tau, masses
        tau = 2.0 * tau if ok is None else 0.5 * (ok + bad)
    return best, walks, why


# Walks of the 114 searches of test_bracket_search_matches_the_bisection per
# region, as measured with the Anderson-Bjorck rule and the threshold walk;
# without that walk they took 1916, 1732 and 1540, the Illinois rule took
# 2356, 2164 and 1912, and the bisection takes 7168, 7066 and 6966.
BRACKET_WALKS = {Region.SIMPLEX: 1550, Region.BALL_SECTOR: 1408, Region.CUBE: 1272}


@pytest.mark.parametrize("region", list(Region))
def test_bracket_search_matches_the_bisection(region, monkeypatch):
    # with a full budget every pass ends on the bisection's grid point: the
    # same split, rule, score and message, in no more walks
    walks = 0
    for n in [*range(2, 17), 24, 32, 64, 128]:
        rid = RegionId(region, n)
        spec = region_spec(rid)
        for mode in MODES:
            for compensation in (False, True):
                objective = SearchObjective(mode, compensation, max_evals=1000)
                result = search_masses(spec, rid, objective)
                with monkeypatch.context() as patch:
                    patch.setattr(symcub.search, "_bracket", _bisect)
                    bisected = search_masses(spec, rid, objective)
                case = (n, mode, compensation)
                walks += result.evaluations
                assert result.evaluations <= bisected.evaluations, case
                assert (result.satisfied, result.score, result.message) == (
                    bisected.satisfied, bisected.score, bisected.message), case
                assert result.split.masses == bisected.split.masses, case
                assert result.rule.nodes.tobytes() == bisected.rule.nodes.tobytes(), case
                assert result.rule.weights.tobytes() == bisected.rule.weights.tobytes(), case
    assert walks <= BRACKET_WALKS[region]


@pytest.mark.parametrize(
    "region, n, compensation",
    [(Region.SIMPLEX, 4, False), (Region.BALL_SECTOR, 6, True), (Region.CUBE, 64, False)],
)
def test_search_under_a_cut_budget(region, n, compensation):
    # a pass cut short need not end where the bisection would; it stays in budget
    rid = RegionId(region, n)
    spec = region_spec(rid)
    for max_evals in range(1, 2 * _WALKS_PER_PASS + 2, 5):
        objective = SearchObjective(allow_compensation=compensation, max_evals=max_evals)
        result = search_masses(spec, rid, objective)
        assert result.evaluations <= max_evals
        assert result.message.startswith(("chain ", "objective ", "best split "))


def _illinois_walk(walker, tau, slack):
    # the walk as it was before it read the precomputed chain moment table
    masses, peeled, remaining = [], [], walker.m_1
    for k in range(1, walker.n + 1):
        least = least_mass(*walker.moments(k, remaining), *walker.interval(k, tau))
        if not 0 < least < math.inf:
            return None, f"chain {k} admits no mass > 0 at margin {tau:.6g}", None
        if k == walker.n:
            available = remaining + (slack or 0.0)
            surplus = available - least
            if least > available:
                least, available = (math.ldexp(x, walker.scale) for x in (least, available))
                why = f"chain {k} needs mu >= {least:.9g} but {available:.9g} remains"
                return None, why, surplus
            if slack is None:
                least = remaining
        masses.append(least)
        add_exact(peeled, least)
        remaining = walker.m_1 - math.fsum(peeled)
    return tuple(masses), None, surplus


def _illinois_walker(spec, region):
    # a walk table whose chain moments come from the per-call closure
    walker = _ChainWalk(spec, region)
    unit = spec.ldexp(-walker.scale)
    reference = SimpleNamespace(
        n=walker.n, m_1=walker.m_1, scale=walker.scale,
        interval=walker.interval, moments=closure_chain_moments(unit),
    )
    reference.walk = lambda tau, slack: _illinois_walk(reference, tau, slack)
    return reference


def _illinois_bracket(walker, slack, budget):
    # the bracket search with the Illinois rule: the end kept twice in a row
    # has its surplus halved
    best, ok, bad, why, bad_surplus = None, None, 1.0, None, None
    tau, walks = -1.0, 0
    while walks < budget and ok is None:
        masses, failure, surplus = walker.walk(tau, slack)
        walks += 1
        if masses is None:
            bad, why, bad_surplus = tau, failure, surplus
            tau *= 2.0
        else:
            ok, best, ok_surplus = tau, masses, surplus
    if ok is None:
        return None, walks, why
    depth = budget - walks
    h, lo, hi, moved = math.ldexp(bad - ok, -depth), 0, 1 << depth, 0
    while walks < budget and hi - lo > 1:
        if bad_surplus is None:
            i = (lo + hi) // 2
        else:
            step = round((hi - lo) * ok_surplus / (ok_surplus - bad_surplus))
            i = min(max(lo + step, lo + 1), hi - 1)
        masses, failure, surplus = walker.walk(ok + i * h, slack)
        walks += 1
        if masses is None:
            if moved < 0:
                ok_surplus *= 0.5
            hi, why, bad_surplus, moved = i, failure, surplus, -1
        else:
            if moved > 0 and bad_surplus is not None:
                bad_surplus *= 0.5
            lo, best, ok_surplus, moved = i, masses, surplus, 1
    return best, walks, why


@pytest.mark.parametrize("region", list(Region))
def test_search_matches_the_illinois_search(region, monkeypatch):
    # the cached walk table, its precomputed chain moments and the
    # Anderson-Bjorck bracket change only the walk count, never upwards
    for n in [*range(2, 17), 24, 32, 64, 128]:
        rid = RegionId(region, n)
        spec = region_spec(rid)
        for mode in MODES:
            for compensation in (False, True):
                objective = SearchObjective(mode, compensation, max_evals=1000)
                result = search_masses(spec, rid, objective)
                with monkeypatch.context() as patch:
                    patch.setattr(symcub.search, "_walker", _illinois_walker)
                    patch.setattr(symcub.search, "_bracket", _illinois_bracket)
                    illinois = search_masses(spec, rid, objective)
                case = (n, mode, compensation)
                assert result.evaluations <= illinois.evaluations, case
                assert (result.satisfied, result.score, result.message) == (
                    illinois.satisfied, illinois.score, illinois.message), case
                assert [mu.hex() for mu in result.split.masses] == [
                    mu.hex() for mu in illinois.split.masses], case
                assert result.rule.nodes.tobytes() == illinois.rule.nodes.tobytes(), case
                assert result.rule.weights.tobytes() == illinois.rule.weights.tobytes(), case


def _search_without_threshold_walk(spec, region, objective):
    # search_masses as it was before the threshold walk: with compensation
    # the first pass, compensation weight >= 0, always runs
    walker = _walker(spec, region)
    split, rule, score, evaluations, why = None, None, (math.inf,) * 3, 0, None
    for slack in (0.0, walker.m_1) if objective.allow_compensation else (None,):
        budget = min(_WALKS_PER_PASS, objective.max_evals - evaluations)
        masses, walks, failure = _bracket(walker, slack, budget)
        evaluations += walks
        if walks:
            why = failure
        if masses is None:
            continue
        split = MassSplit([math.ldexp(mu, walker.scale) for mu in masses], slack is not None)
        rule = build_rule(spec, split, region_label=region.region.value)
        score = _score_candidate(rule, region, objective.mode, objective.boundary_tol)
        if score[0] == 0.0 and math.isfinite(score[2]):
            message = f"objective {objective.mode.value} satisfied"
            return SimpleNamespace(split=split, rule=rule, satisfied=True, score=score,
                                   evaluations=evaluations, message=message)
    side = {SearchMode.INTERIOR: 1.0, SearchMode.INTERIOR_OR_BOUNDARY: -1.0}.get(objective.mode)
    if side is not None and evaluations < objective.max_evals:
        _, why, _ = walker.walk(side * objective.boundary_tol, slack)
        evaluations += 1
    if why is None:
        why = f"best split violates objective at {int(score[0])} node(s)"
    return SimpleNamespace(split=split, rule=rule, satisfied=False, score=score,
                           evaluations=evaluations, message=why)


@pytest.mark.parametrize("region", list(Region))
def test_threshold_walk_only_skips_a_pass_that_cannot_meet_the_objective(region):
    # a compensated search first walks at the objective's threshold with the
    # compensation weight >= 0, and skips that pass when the walk fails: at a
    # full budget the same split, rule, score and message, in at most one
    # more walk
    skipped = 0
    for n in [*range(2, 17), 24, 32, 64, 128]:
        rid = RegionId(region, n)
        spec = region_spec(rid)
        for mode in MODES:
            for compensation in (False, True):
                for tol in (1e-9, 1e-3, 0.0):
                    objective = SearchObjective(mode, compensation, max_evals=1000,
                                                boundary_tol=tol)
                    result = search_masses(spec, rid, objective)
                    reference = _search_without_threshold_walk(spec, rid, objective)
                    case = (n, mode, compensation, tol)
                    assert (result.satisfied, result.score, result.message) == (
                        reference.satisfied, reference.score, reference.message), case
                    assert [mu.hex() for mu in result.split.masses] == [
                        mu.hex() for mu in reference.split.masses], case
                    assert result.rule.nodes.tobytes() == reference.rule.nodes.tobytes(), case
                    assert result.rule.weights.tobytes() == reference.rule.weights.tobytes(), case
                    assert result.evaluations <= reference.evaluations + 1, case
                    if not compensation or mode is SearchMode.FEASIBLE:
                        assert result.evaluations == reference.evaluations, case
                    skipped += result.evaluations < reference.evaluations
    assert skipped > 0


def test_walk_table_is_built_once_per_spec_and_region():
    rid = RegionId(Region.BALL_SECTOR, 7)
    spec = region_spec(rid)
    walker = _walker(spec, rid)
    assert _walker(replace(spec), RegionId("ball-sector", 7)) is walker
    assert _walker(region_spec(RegionId(Region.CUBE, 7)), RegionId(Region.CUBE, 7)) is not walker


@pytest.mark.parametrize("region", list(Region))
def test_walk_scale_keeps_the_constants(region):
    # the walk reads the chain moments of the spec scaled by m_1's power of
    # two, and maps its nodes with the spec's constants: the two agree on
    # every built-in spec, so the walk is that of the unscaled spec
    checked = 0
    for n in range(2, 600):
        rid = RegionId(region, n)
        try:
            spec = region_spec(rid)
        except InvalidMomentSpecError:
            continue
        unit = spec.ldexp(-math.frexp(spec.m_1)[1])
        assert compute_constants(unit) == compute_constants(spec), n
        checked += 1
    assert checked >= 168  # every region builds its spec for n = 2 .. 169


def test_walks_leave_the_walk_table_unchanged():
    rid = RegionId(Region.SIMPLEX, 9)
    spec = region_spec(rid)
    walker = _walker(spec, rid)
    masses_ahead = [0.0, walker.m_1, -0.5 * walker.m_1, 1e-300, -1e300]

    def table():
        moments = [walker.moments(k, r) for k in range(1, walker.n + 1) for r in masses_ahead]
        return walker.n, walker.m_1, walker.scale, walker.margins, walker.caps, moments

    before = copy.deepcopy(table())
    rng = np.random.default_rng(9)
    for tau, slack in zip(rng.uniform(-1.5, 0.5, 200), rng.uniform(-0.5, 1.5, 200)):
        walker.walk(float(tau), None if slack < 0 else float(slack) * walker.m_1)
    assert table() == before


def test_walk_table_cache_is_bounded():
    bound = _walker.cache_info().maxsize
    assert bound is not None
    for n in range(2, bound + 4):
        rid = RegionId(Region.CUBE, n)
        _walker(region_spec(rid), rid)
    assert _walker.cache_info().currsize == bound


def test_search_after_cache_clear_matches_the_cached_search():
    rid = RegionId(Region.BALL_SECTOR, 6)
    spec = region_spec(rid)
    objective = SearchObjective(allow_compensation=True)
    cached = search_masses(spec, rid, objective)
    _walker.cache_clear()
    chain_moments.cache_clear()
    cold = search_masses(spec, rid, objective)
    assert _walker.cache_info().currsize == 1
    assert (cold.split, cold.satisfied, cold.score, cold.evaluations, cold.message) == (
        cached.split, cached.satisfied, cached.score, cached.evaluations, cached.message)
    assert cold.rule.nodes.tobytes() == cached.rule.nodes.tobytes()
    assert cold.rule.weights.tobytes() == cached.rule.weights.tobytes()


def test_objective_mode_is_coerced_from_its_value():
    assert SearchObjective(mode="interior").mode is SearchMode.INTERIOR
    assert SearchObjective(mode="feasible").mode is SearchMode.FEASIBLE
    with pytest.raises(ValueError):
        SearchObjective(mode="inside")
    # a mode given by value searches exactly as the enum member does
    rid = RegionId(Region.SIMPLEX, 4)
    spec = region_spec(rid)
    by_value = search_masses(spec, rid, SearchObjective(mode="interior-or-boundary"))
    by_member = search_masses(spec, rid, SearchObjective(mode=SearchMode.INTERIOR_OR_BOUNDARY))
    assert (by_value.satisfied, by_value.score, by_value.message, by_value.split) == (
        by_member.satisfied, by_member.score, by_member.message, by_member.split)


@pytest.mark.parametrize("table, n", [("table1", 3), ("table2", 4), ("table3", 3)])
def test_score_counts_the_nodes_each_mode_rejects(table, n):
    # one exterior, three exterior and two boundary nodes: the score's one
    # margin pass counts what classify_nodes counts
    rid = RegionId(Region.SIMPLEX, n)
    rule = load_reference_rule(table)
    classes = classify_nodes(rule, rid)
    rejected = {
        SearchMode.INTERIOR: classes.boundary + classes.exterior,
        SearchMode.INTERIOR_OR_BOUNDARY: classes.exterior,
        SearchMode.FEASIBLE: 0,
    }
    margin = -float(node_margins(rid, rule.nodes).min())
    for mode, count in rejected.items():
        score = _score_candidate(rule, rid, mode, BOUNDARY_TOL)
        assert score == (float(count), float(classes.negative_weights), margin), mode

