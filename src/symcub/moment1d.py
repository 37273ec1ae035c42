"""Truncated one-dimensional moment problems of order 3.

A problem is four floats (m0, m1, m2, m3); its solution is a pair
``(nodes, weights)`` of equal-length tuples holding at most two nodes,
in descending order, with the weights that reproduce all four moments.

The solve works on the probability measure m / m0, whose mean, variance
and third central moment are

    a = m1 / m0,   var = m2 / m0 - a^2,   mu3 = m3 / m0 - a (3 m2 / m0 - 2 a^2).

A two-point measure centred at its mean has nodes u with u1 + u2 = mu3 / var
and u1 u2 = -var, so the nodes are a + u for the roots of
u^2 - s u - var with s = mu3 / var, and the weight of u_hi is
m0 (-u_lo) / (u_hi - u_lo).  var > 0 gives two distinct real nodes and
positive weights (the discriminant s^2 + 4 var is then positive);
var ~ 0 leaves one atom at a with weight m0; var < 0 has no solution.
The mass m0 cancels out of every test and formula, so nothing depends on
how small or large it is.
"""

from __future__ import annotations

import math

from .errors import InconsistentAtomError, InfeasibleMomentError

__all__ = ["solve_two_point"]


def solve_two_point(
    m0: float, m1: float, m2: float, m3: float
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Solve the order-3 truncated moment problem for (m0, m1, m2, m3).

    Returns ``(nodes, weights)``.  A positive variance of m / m0 yields two
    distinct real nodes ``(t_hi, t_lo)`` with positive weights.  A variance
    within rounding of 0 yields the single node m1/m0 with weight m0,
    provided m3 is consistent with a point mass
    (:class:`InconsistentAtomError` otherwise).  m0 <= 0 or a negative
    variance raises :class:`InfeasibleMomentError`.
    """
    if m0 > 0:
        a, b, c = m1 / m0, m2 / m0, m3 / m0
        var = b - a * a
        # the Hankel test m0*m2 - m1^2 > 0 divided by m0^2, with its tolerance
        tol = 1e-13 * max(abs(b), a * a)
        if var > tol:
            s = (c - a * (3.0 * b - 2.0 * a * a)) / var
            # stable root pair: q and -var/q avoid cancellation between s and the root
            q = 0.5 * (s + math.copysign(math.sqrt(s * s + 4.0 * var), s))
            u_hi, u_lo = (q, -var / q) if q > 0 else (-var / q, q)
            w_hi = m0 * (-u_lo / (u_hi - u_lo))
            return (a + u_hi, a + u_lo), (w_hi, m0 - w_hi)
        if var >= -tol:
            if abs(c - a * a * a) > 1e-10 * max(1.0, abs(b), abs(c)):
                raise InconsistentAtomError(
                    f"rank-1 moments are not a point mass: m = {(m0, m1, m2, m3)}"
                )
            return (a,), (m0,)
    hankel = m0 * m2 - m1 * m1
    raise InfeasibleMomentError(
        f"moments are not positive definite: m0*m2 - m1^2 = {hankel:.6e} "
        f"(m0 = {m0!r})",
        hankel=hankel,
    )
