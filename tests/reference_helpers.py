"""Reference helpers the tests share; the library itself has no use for them."""

import enum
import itertools
import math

import numpy as np

from symcub import ExactnessReport, SymmetricMomentSpec, compute_constants
from symcub.errors import DegreeOutOfRangeError
from symcub.moments import PATTERN_TO_FIELD, _as_exponents


def moment_of_monomial(spec: SymmetricMomentSpec, exponents) -> float:
    """L(x^alpha) for |alpha| <= 3 by symmetry-class lookup.

    The result is invariant under any permutation of `exponents`.
    """
    exps = _as_exponents(exponents, spec.n)
    if sum(exps) > 3:
        raise DegreeOutOfRangeError(
            f"total degree {sum(exps)} exceeds 3; only degree <= 3 moments are stored"
        )
    pattern = tuple(sorted((a for a in exps if a > 0), reverse=True))
    return getattr(spec, PATTERN_TO_FIELD[pattern])


class Feasibility(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    ATOMIC = "atomic"
    INDEFINITE = "indefinite"


def hankel_feasibility(m0: float, m1: float, m2: float, m3: float) -> Feasibility:
    """The Hankel class of a chain's four moments, tested on raw moments.

    For moments whose products m0*m2 and m1^2 do not underflow, this is
    the split `solve_two_point` makes into two nodes, an atom or infeasible.
    The class depends on m0, m1 and m2 only; m3 is taken so that a chain's
    four moments can be passed as they come.
    """
    hankel = m0 * m2 - m1 * m1
    tol = 1e-13 * max(m0 * abs(m2), m1 * m1)
    if m0 > 0 and hankel > tol:
        return Feasibility.POSITIVE_DEFINITE
    if m0 > 0 and abs(hankel) <= tol:
        return Feasibility.ATOMIC
    return Feasibility.INDEFINITE


def pivoted_two_point(m0: float, m1: float, m2: float, m3: float):
    """A two-point solve on raw moments by pivoted elimination, as a reference.

    Forms the monic quadratic t^2 + b t + c orthogonal to 1 and t,

        m2 + b*m1 + c*m0 = 0
        m3 + b*m2 + c*m1 = 0,

    by elimination with the larger pivot in the first column, takes its
    stable root pair as the nodes (descending) and solves the 2x2
    Vandermonde system for the weights.  Positive-definite moments only.
    """
    if hankel_feasibility(m0, m1, m2, m3) is not Feasibility.POSITIVE_DEFINITE:
        raise ValueError(f"moments are not positive definite: {(m0, m1, m2, m3)}")
    a11, a12, r1 = m1, m0, -m2
    a21, a22, r2 = m2, m1, -m3
    if abs(a21) > abs(a11):
        a11, a12, r1, a21, a22, r2 = a21, a22, r2, a11, a12, r1
    factor = a21 / a11
    a22 -= factor * a12
    r2 -= factor * r1
    c = r2 / a22
    b = (r1 - a12 * c) / a11
    root = math.sqrt(b * b - 4.0 * c)
    q = -(b + math.copysign(root, b if b != 0.0 else 1.0)) / 2.0
    t_hi, t_lo = max(q, c / q), min(q, c / q)
    w_hi = (m1 - m0 * t_lo) / (t_hi - t_lo)
    return (t_hi, t_lo), (w_hi, m0 - w_hi)


def full_columns(n: int) -> np.ndarray:
    """Column triples of every monomial of degree <= 3, rebuilt on every call.

    By degree, then in combinations_with_replacement order; column n is
    the padding column of ones.
    """
    return np.array([
        positions + (n,) * (3 - degree)
        for degree in range(4)
        for positions in itertools.combinations_with_replacement(range(n), degree)
    ])


def class_moments(spec: SymmetricMomentSpec, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact value and degree of each monomial, from its degree and distinct variables."""
    degree = (columns != spec.n).sum(axis=1)
    distinct = degree - ((columns[:, 1:] == columns[:, :-1]) & (columns[:, 1:] != spec.n)).sum(axis=1)
    table = np.zeros((4, 4))
    for pattern, name in PATTERN_TO_FIELD.items():
        table[sum(pattern), len(pattern)] = getattr(spec, name)
    return table[degree, distinct], degree


def per_call_exactness(rule, spec: SymmetricMomentSpec) -> ExactnessReport:
    """The full-enumeration check (n <= 8) with its tables built per call.

    Each degree's maximum is taken over a boolean mask of that degree.
    """
    n = spec.n
    columns = full_columns(n)
    padded = np.ones((len(rule), n + 1))
    padded[:, :n] = rule.nodes
    values = padded[:, columns[:, 0]]
    values *= padded[:, columns[:, 1]]
    values *= padded[:, columns[:, 2]]
    approx = values.T @ rule.weights
    exact, degrees = class_moments(spec, columns)
    abs_err = np.abs(approx - exact)
    scale = max(spec.m_1, float(np.abs(exact).max()))
    rel_err = abs_err / np.where(np.abs(exact) > 0, np.abs(exact), scale)
    worst = int(np.argmax(abs_err))
    return ExactnessReport(
        max_abs_error=float(abs_err[worst]),
        max_rel_error=float(rel_err.max()),
        worst_monomial=tuple(np.bincount(columns[worst], minlength=n + 1)[:n].tolist()),
        per_degree_max=tuple(float(abs_err[degrees == d].max()) for d in range(4)),
        monomial_count=len(columns),
    )


def closure_chain_moments(spec: SymmetricMomentSpec):
    """chain_moments as it was when each call computed its own coefficients.

    The reference that the precomputed coefficient table, and the walk that
    reads it, must reproduce bit for bit.
    """
    consts = compute_constants(spec)
    n = spec.n
    d2 = spec.m_xx - spec.m_xy
    c = consts.c_n
    first = (
        n * spec.m_x + c * spec.m_1,
        n * spec.m_xx + n * (n - 1) * spec.m_xy + 2.0 * n * c * spec.m_x + c * c * spec.m_1,
        n * spec.m_xxx
        + 3.0 * n * (n - 1) * spec.m_xxy
        + n * (n - 1) * (n - 2) * spec.m_xyz
        + 3.0 * c * (n * spec.m_xx + n * (n - 1) * spec.m_xy)
        + 3.0 * n * c * c * spec.m_x
        + c**3 * spec.m_1,
    )
    last = (0.0, 2.0 * d2, 0.0)
    e3 = -(spec.m_xxx - 3.0 * spec.m_xxy + 2.0 * spec.m_xyz)
    cm = consts.c_mid

    def moments(k, mass_ahead):
        if k == 1:
            return first
        if k == n:
            return last
        f2 = (n - k + 1) * (n - k + 2)
        return (
            cm * mass_ahead,
            f2 * d2 + cm * cm * mass_ahead,
            f2 * (n - k + 3) * e3 + cm**3 * mass_ahead,
        )

    return moments


def reference_node(k: int, t: float, consts) -> tuple[float, ...]:
    """The point of R^n, n = consts.n, of chain-k node value t, one coordinate at a time.

    Written from the block formulas in plain floats, with the operations in
    the order `map_nodes` documents, so the two agree bit for bit:

        k = 1:          (eta, ..., eta),  eta = (t - c_n) / n
        2 <= k <= n-1:  (alpha x (n-k+1), beta, gamma x (k-2)),
                        beta = gamma - t / (n - k + 2),  alpha = beta + (t - c_mid) / (n - k + 1)
        k = n:          (alpha, beta, gamma x (n-2)),
                        beta = gamma - (t + c_2) / 2,  alpha = beta + t

    with c_2 = c_n for n = 2 and c_mid otherwise.
    """
    n, gamma = consts.n, consts.gamma
    if not 1 <= k <= n:
        raise ValueError(f"chain index must be in [1, {n}], got {k}")
    if k == 1:
        return ((t - consts.c_n) / n,) * n
    if k == n:
        beta = gamma - (t + (consts.c_n if n == 2 else consts.c_mid)) / 2.0
        return (beta + t, beta) + (gamma,) * (n - 2)
    beta = gamma - t / (n - k + 2)
    alpha = beta + (t - consts.c_mid) / (n - k + 1)
    return (alpha,) * (n - k + 1) + (beta,) + (gamma,) * (k - 2)
