"""Truncated one-dimensional moment problems of order 3.

A problem is four floats (m0, m1, m2, m3); its solution is a pair
``(nodes, weights)`` of equal-length tuples holding at most two nodes,
in descending order, with the weights that reproduce all four moments.
Feasibility follows the Hankel criterion: H = m0*m2 - m1^2 must be
positive for a genuine two-point rule with real distinct nodes and
positive weights; H ~ 0 collapses to a single atom.

The two-point solver forms the monic quadratic p(t) = t^2 + b*t + c that
is orthogonal to 1 and t, i.e.

    m2 + b*m1 + c*m0 = 0
    m3 + b*m2 + c*m1 = 0,

takes its roots as nodes, and solves the 2x2 Vandermonde system for the
weights.  The 2x2 system for (b, c) has determinant m1^2 - m0*m2 = -H,
which the feasibility gate bounds away from zero.
"""

from __future__ import annotations

import enum
import math

from .errors import InconsistentAtomError, InfeasibleMomentError

__all__ = [
    "Feasibility",
    "solve_two_point",
]


class Feasibility(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    ATOMIC = "atomic"
    INDEFINITE = "indefinite"


def _classify(m0: float, m1: float, m2: float) -> tuple[Feasibility, float]:
    """The Hankel class of (m0, m1, m2) and the determinant H itself."""
    hankel = m0 * m2 - m1 * m1
    # scaled by the Hankel determinant's own terms; an absolute floor
    # would misclassify functionals with factorially small total mass
    # (the simplex beyond n = 8) as atomic
    tol = 1e-13 * max(m0 * abs(m2), m1 * m1)
    if m0 > 0 and hankel > tol:
        return Feasibility.POSITIVE_DEFINITE, hankel
    if m0 > 0 and abs(hankel) <= tol:
        return Feasibility.ATOMIC, hankel
    return Feasibility.INDEFINITE, hankel


def _quadratic_coefficients(
    m0: float, m1: float, m2: float, m3: float
) -> tuple[float, float]:
    # Eliminate on [[m1, m0], [m2, m1]] [b, c]^T = [-m2, -m3] with the
    # larger pivot in the first column.
    a11, a12, r1 = m1, m0, -m2
    a21, a22, r2 = m2, m1, -m3
    if abs(a21) > abs(a11):
        a11, a12, r1, a21, a22, r2 = a21, a22, r2, a11, a12, r1
    factor = a21 / a11
    a22 -= factor * a12
    r2 -= factor * r1
    c = r2 / a22
    b = (r1 - a12 * c) / a11
    return b, c


def solve_two_point(
    m0: float, m1: float, m2: float, m3: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Solve the order-3 truncated moment problem for (m0, m1, m2, m3).

    Returns ``(nodes, weights)``.  POSITIVE_DEFINITE moments yield two
    distinct real nodes ``(t_hi, t_lo)`` with positive weights.  ATOMIC
    moments yield the single node m1/m0 with weight m0, provided m2 and
    m3 are consistent with a point mass (:class:`InconsistentAtomError`
    otherwise).  INDEFINITE moments raise :class:`InfeasibleMomentError`.
    """
    feasibility, hankel = _classify(m0, m1, m2)
    if feasibility is Feasibility.ATOMIC:
        node = m1 / m0
        tol = 1e-10 * max(1.0, abs(m2), abs(m3))
        if abs(m2 - node * node * m0) > tol or abs(m3 - node**3 * m0) > tol:
            raise InconsistentAtomError(
                f"rank-1 moments are not a point mass: m = {(m0, m1, m2, m3)}"
            )
        return (node,), (m0,)
    if feasibility is Feasibility.INDEFINITE:
        raise InfeasibleMomentError(
            f"moments are not positive definite: m0*m2 - m1^2 = {hankel:.6e} "
            f"(m0 = {m0!r})",
            hankel=hankel,
        )

    b, c = _quadratic_coefficients(m0, m1, m2, m3)
    disc = b * b - 4.0 * c
    if disc <= 0:
        raise InfeasibleMomentError(
            f"quadratic has no real roots (discriminant = {disc:.6e})",
            hankel=hankel,
        )
    # Stable root pair: q and c/q avoid cancellation between -b and sqrt.
    root = math.sqrt(disc)
    q = -(b + math.copysign(root, b if b != 0.0 else 1.0)) / 2.0
    t_hi, t_lo = q, c / q
    if t_hi < t_lo:
        t_hi, t_lo = t_lo, t_hi
    w_hi = (m1 - m0 * t_lo) / (t_hi - t_lo)
    return (t_hi, t_lo), (w_hi, m0 - w_hi)
