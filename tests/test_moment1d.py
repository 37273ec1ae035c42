"""One-dimensional truncated moment problems: feasibility and the solver."""

import math
from fractions import Fraction

import numpy as np
import pytest

from symcub import (
    InconsistentAtomError,
    InfeasibleMomentError,
    SymmetricMomentSpec,
    build_rule,
    check_exactness,
    solve_two_point,
)
from reference_helpers import Feasibility, hankel_feasibility, pivoted_two_point


def test_hankel_classification():
    assert hankel_feasibility(1, 0, 1, 0) is Feasibility.POSITIVE_DEFINITE
    assert hankel_feasibility(1, 1, 1, 1) is Feasibility.ATOMIC
    assert hankel_feasibility(1, 0, -1, 0) is Feasibility.INDEFINITE
    assert hankel_feasibility(-1, 0, 1, 0) is Feasibility.INDEFINITE
    # the solver makes the same split into two nodes, an atom or infeasible
    assert len(solve_two_point(1, 0, 1, 0)[0]) == 2
    assert len(solve_two_point(1, 1, 1, 1)[0]) == 1
    for moments in ((1, 0, -1, 0), (-1, 0, 1, 0), (0, 0, 1, 0)):
        with pytest.raises(InfeasibleMomentError):
            solve_two_point(*moments)


def test_symmetric_two_point():
    moments = (1 / 18, 0.0, 1 / 60, 0.0)
    nodes, weights = solve_two_point(*moments)
    root = math.sqrt(0.3)
    assert nodes == pytest.approx((root, -root), rel=1e-14)
    assert weights == pytest.approx((1 / 36, 1 / 36), rel=1e-13)
    assert hankel_feasibility(*moments) is Feasibility.POSITIVE_DEFINITE


def test_two_point_against_independent_elimination():
    # moments of the first simplex-3 chain; the orthogonal quadratic is
    # t^2 + (11/51) t - 27/340, solved here with exact rationals
    m0, m1, m2, m3 = Fraction(1, 18), Fraction(-1, 72), Fraction(1, 135), Fraction(-7, 2592)
    hankel = m0 * m2 - m1 * m1
    b = (m1 * m2 - m0 * m3) / hankel
    c = (m1 * m3 - m2 * m2) / hankel
    assert b == Fraction(11, 51) and c == Fraction(-27, 340)
    disc = math.sqrt(float(b * b - 4 * c))
    t_hi = (-float(b) + disc) / 2
    t_lo = (-float(b) - disc) / 2
    w_hi = (float(m1) - float(m0) * t_lo) / (t_hi - t_lo)

    nodes, weights = solve_two_point(float(m0), float(m1), float(m2), float(m3))
    assert nodes == pytest.approx((t_hi, t_lo), rel=1e-14)
    assert weights == pytest.approx((w_hi, float(m0) - w_hi), rel=1e-13)
    # the published first-table weights, rounded to 14 digits
    assert weights[0] == pytest.approx(0.01469064053612, abs=5e-13)
    assert weights[1] == pytest.approx(0.04086491501944, abs=5e-13)


def test_all_four_moments_reproduced():
    moments = (0.0555555555556, -0.0138888888889, 0.00740740740741, -0.00270061728395)
    nodes, weights = solve_two_point(*moments)
    for order, target in enumerate(moments):
        got = math.fsum(w * t**order for t, w in zip(nodes, weights))
        assert got == pytest.approx(target, rel=1e-12)


def test_atomic_point_mass():
    moments = (2.0, 2.0, 2.0, 2.0)
    assert hankel_feasibility(*moments) is Feasibility.ATOMIC
    nodes, weights = solve_two_point(*moments)
    assert nodes == (1.0,)
    assert weights == (2.0,)


def test_atomic_inconsistent_third_moment():
    assert hankel_feasibility(1.0, 1.0, 1.0, 5.0) is Feasibility.ATOMIC
    with pytest.raises(InconsistentAtomError):
        solve_two_point(1.0, 1.0, 1.0, 5.0)


def test_indefinite_raises_with_hankel():
    with pytest.raises(InfeasibleMomentError) as info:
        solve_two_point(1.0, 0.0, -1.0, 0.0)
    assert info.value.hankel == pytest.approx(-1.0)
    assert "m0*m2 - m1^2" in str(info.value)


def test_nodes_sorted_descending():
    nodes, _ = solve_two_point(1.0, -0.5, 1.0, -0.875)
    assert nodes[0] > nodes[1]


def _random_instances(count, rng):
    # node gap and weight floors keep the recovery well-conditioned
    out = []
    while len(out) < count:
        t = rng.uniform(-2.0, 2.0, 2)
        w = rng.uniform(0.1, 2.0, 2)
        if abs(t[0] - t[1]) < 0.2:
            continue
        order = np.argsort(t)[::-1]
        out.append((t[order], w[order]))
    return out


def test_roundtrip_recovery_and_identities():
    rng = np.random.default_rng(99)
    for t, w in _random_instances(2000, rng):
        moments = [float(w[0] * t[0] ** j + w[1] * t[1] ** j) for j in range(4)]
        nodes, weights = solve_two_point(*moments)
        assert nodes == pytest.approx(tuple(t), rel=1e-9)
        assert weights == pytest.approx(tuple(w), rel=1e-9)

        m0, m1, m2, m3 = moments
        hankel = m0 * m2 - m1 * m1
        t1, t2 = nodes
        w1, w2 = weights
        # weight identity: w1 w2 (t1 - t2)^2 = m0 m2 - m1^2
        assert w1 * w2 * (t1 - t2) ** 2 == pytest.approx(hankel, rel=1e-12)
        # discriminant identity: b^2 - 4c = (m0 b^2 + 4 m1 b + 4 m2)/m0 > 0
        b = -(t1 + t2)
        c = t1 * t2
        disc = b * b - 4 * c
        assert disc > 0
        assert disc == pytest.approx((m0 * b * b + 4 * m1 * b + 4 * m2) / m0, rel=1e-9)


def _two_point_problems(level, rng, count):
    """Exact two-point measures with mean level * spread and their rounded moments.

    The lighter weight is a share p of m0, log-uniform in [0.01, 0.5], at
    the node far from the mean.
    """
    out = []
    for _ in range(count):
        spread = Fraction(float(rng.uniform(0.5, 2.0)))
        mean = level * spread * int(rng.choice((-1, 1)))
        p = Fraction(float(10.0 ** rng.uniform(-2.0, math.log10(0.5))))
        m0 = Fraction(float(rng.uniform(0.1, 2.0)))
        side = int(rng.choice((-1, 1)))
        t = (mean + side * (1 - p) * spread, mean - side * p * spread)
        w = (m0 * p, m0 * (1 - p))
        if side < 0:
            t, w = t[::-1], w[::-1]
        moments = tuple(float(sum(wi * ti**j for ti, wi in zip(t, w))) for j in range(4))
        out.append((moments, float(mean), [float(x) for x in t], [float(x) for x in w]))
    return out


def _error_quantiles(solver, problems):
    # a node's error relative to its distance from the mean, a weight's to itself
    node_err, weight_err = [], []
    for moments, mean, t, w in problems:
        nodes, weights = solver(*moments)
        node_err.append(max(abs(g - e) / abs(e - mean) for g, e in zip(nodes, t)))
        weight_err.append(max(abs(g - e) / e for g, e in zip(weights, w)))
    return [
        np.percentile(node_err, 99), max(node_err),
        np.percentile(weight_err, 99), max(weight_err),
    ]


@pytest.mark.parametrize("level", [0, 1, 100, 10_000])
def test_solver_is_as_accurate_as_the_pivoted_reference(level):
    # |mean| / spread = level; at level 0 the root pair in the form
    # s/2 +- sqrt(s^2 + 4 var)/2 loses about 10x against the reference
    problems = _two_point_problems(Fraction(level), np.random.default_rng(1000 + level), 4000)
    ours = _error_quantiles(solve_two_point, problems)
    reference = _error_quantiles(pivoted_two_point, problems)
    for got, ref in zip(ours, reference):
        assert got <= 3.0 * ref


def test_custom_spec_exactness_is_pinned():
    # the n = 3 custom functional at the parent's solver gave 7.44e-15
    spec = SymmetricMomentSpec(
        n=3, m_1=1.0, m_x=0.5, m_xx=0.4, m_xy=0.2, m_xxx=0.3, m_xxy=0.1, m_xyz=0.05
    )
    rule = build_rule(spec)
    assert len(rule) == 6
    assert check_exactness(rule, spec).max_abs_error <= 2 * 7.44e-15
