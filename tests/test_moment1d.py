"""One-dimensional truncated moment problems: feasibility and the solver."""

import math
from fractions import Fraction

import numpy as np
import pytest

from symcub import (
    Feasibility,
    InconsistentAtomError,
    InfeasibleMomentError,
    solve_two_point,
)
from reference_helpers import hankel_feasibility


def test_hankel_classification():
    assert hankel_feasibility(1, 0, 1, 0) is Feasibility.POSITIVE_DEFINITE
    assert hankel_feasibility(1, 1, 1, 1) is Feasibility.ATOMIC
    assert hankel_feasibility(1, 0, -1, 0) is Feasibility.INDEFINITE
    assert hankel_feasibility(-1, 0, 1, 0) is Feasibility.INDEFINITE


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
