"""Decomposition of a symmetric functional into n one-dimensional problems.

The construction peels off one direction at a time.  Chain index k = 1 is
the problem along the sum of all coordinates, chain k = n is the problem
along the difference x1 - x2, and chains in between remove one coordinate
each.  Two constants drive everything:

    c_n   = -L(x1^3 + (n-3) x1^2 x2 - (n-2) x1 x2 x3) / L(x1^2 - x1 x2)
    c_mid = -L(x1^3 - 3 x1^2 x2 + 2 x1 x2 x3) / L(x1^2 - x1 x2)

c_mid is the shared value of the constants for all middle chains (it only
exists for n >= 3), and gamma = (c_mid - c_n) / n is the coordinate shared
by the trailing positions of every chain-k node with k >= 2.

The zeroth moments mu_1 .. mu_n of the chain entries are free parameters
(the mass split).  Without a compensation node they must add up to L(1);
with compensation the residual L(1) - sum(mu) becomes the weight of one
extra node.  Higher moments of each chain entry are fixed by the seven
base moments and the remaining mass ahead of the chain.

This module owns every step of one chain: its moments
(:func:`chain_moments`), its two-point solve (:func:`solve_two_point`),
the least mass that keeps its nodes in an interval (:func:`least_mass`)
and the map of its node values back to R^n (:func:`map_nodes`).  The
constants are closed forms in the seven moments, computed once per spec
(:func:`compute_constants`), so the spec and the split fix every chain:
the chain moments derive the constants from the spec themselves, and
only the node maps take them as an argument.

The n chains are independent, so the solve and the node map also come
as array versions over all chains at once: :func:`solve_two_point_array`
and :func:`map_nodes_array`.  Each does the operations of its scalar
version in the same order, elementwise, so the two agree bit for bit;
a fix to one formula belongs in both.  The array solve returns None
when any chain is an atom or infeasible, and the caller then solves the
chains one by one, for the scalar version's atom and errors.  Which
version a rule build takes depends on n only; see
:mod:`symcub.assembly`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InconsistentAtomError, InfeasibleMomentError, InvalidMomentSpecError, InvalidSplitError,
)
from .moments import SymmetricMomentSpec

__all__ = [
    "DecompositionConstants",
    "MassSplit",
    "add_exact",
    "chain_moments",
    "compute_constants",
    "default_split",
    "least_mass",
    "map_nodes",
    "map_nodes_array",
    "reduced_moment_chain",
    "solve_two_point",
    "solve_two_point_array",
    "validate_split",
]

# Relative tolerance on sum(mu) == m_1 for non-compensated splits.
MASS_BALANCE_RTOL = 1e-12


@dataclass(frozen=True)
class DecompositionConstants:
    """The constants c_n, c_mid and gamma for one moment spec.

    For n = 2 there are no middle chains: c_mid is None and gamma is 0,
    and the k = n node map falls back to c_n in place of c_mid.
    """

    n: int
    c_n: float
    c_mid: float | None
    gamma: float

    @property
    def c_2(self) -> float:
        """The constant used by the k = n node map."""
        return self.c_n if self.c_mid is None else self.c_mid


@dataclass(frozen=True)
class MassSplit:
    """Zeroth moments mu_1 .. mu_n of the chain entries.

    With `compensation` set, sum(mu) may differ from the total mass m_1;
    the residual is later attached to one extra node.
    """

    masses: tuple[float, ...]
    compensation: bool = False

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))

    @classmethod
    def from_t(
        cls,
        t_values: Sequence[float | str],
        spec: SymmetricMomentSpec,
        compensation: bool = False,
    ) -> "MassSplit":
        """Build a split from t-parameters, mu_k = t_k * m_1 / n.

        Values may be given as strings such as "93/85"; they are parsed
        exactly and converted to floats at the end.  A string that is not
        a number, divides by zero or overflows raises InvalidSplitError.
        """
        t = []
        for k, v in enumerate(t_values, start=1):
            try:
                t.append(float(Fraction(v)) if isinstance(v, str) else float(v))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise InvalidSplitError(
                    f"t-parameter t_{k} = {v!r} is not a finite number"
                ) from exc
        if len(t) != spec.n:
            raise InvalidSplitError(
                f"expected {spec.n} t-parameters, got {len(t)}"
            )
        return cls(tuple(tk * spec.m_1 / spec.n for tk in t), compensation)


@functools.lru_cache(maxsize=32)
def compute_constants(spec: SymmetricMomentSpec) -> DecompositionConstants:
    """Compute c_n, c_mid and gamma from the seven base moments.

    For n = 2 the c_n numerator reduces to L(x1^3 - x1^2 x2): the triple
    product term carries coefficient n - 2 = 0.  The constants are
    computed once per spec per process, so the chain moments, the rule
    builder and the search's walk table share one object.
    """
    d2 = spec.m_xx - spec.m_xy
    if d2 <= 0:
        raise InvalidMomentSpecError(
            f"m_xx - m_xy > 0 violated: denominator = {d2!r}"
        )
    n = spec.n
    c_n = -(spec.m_xxx + (n - 3) * spec.m_xxy - (n - 2) * spec.m_xyz) / d2
    if n == 2:
        return DecompositionConstants(n=2, c_n=c_n, c_mid=None, gamma=0.0)
    c_mid = -(spec.m_xxx - 3.0 * spec.m_xxy + 2.0 * spec.m_xyz) / d2
    return DecompositionConstants(n=n, c_n=c_n, c_mid=c_mid, gamma=(c_mid - c_n) / n)


def default_split(spec: SymmetricMomentSpec) -> MassSplit:
    """The uniform split mu_k = m_1 / n (all t-parameters equal to 1)."""
    return MassSplit((spec.m_1 / spec.n,) * spec.n, compensation=False)


def validate_split(split: MassSplit, spec: SymmetricMomentSpec) -> None:
    """Check that every mass and their sum are finite, every mass > 0 and,
    without compensation, total-mass balance."""
    if len(split.masses) != spec.n:
        raise InvalidSplitError(
            f"split has {len(split.masses)} masses, expected {spec.n}"
        )
    for k, mu in enumerate(split.masses, start=1):
        if not 0 < mu < math.inf:
            raise InvalidSplitError(f"mass mu_{k} must be finite and > 0, got {mu!r}")
    try:
        total = math.fsum(split.masses)
    except OverflowError:
        raise InvalidSplitError("the masses sum past the largest float") from None
    if not split.compensation and abs(total - spec.m_1) > MASS_BALANCE_RTOL * abs(spec.m_1):
        raise InvalidSplitError(
            f"masses sum to {total!r} but m_1 = {spec.m_1!r}; "
            "enable compensation or rescale the split"
        )


def add_exact(partials: list[float], x: float) -> None:
    """Add x to the exact sum held as non-overlapping partials (Shewchuk)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


@functools.lru_cache(maxsize=32)
def chain_moments(spec: SymmetricMomentSpec) -> Callable[[int, float], tuple[float, float, float]]:
    """The map (k, r) -> (m1, m2, m3) of chain k with mass r ahead of it.

    The mass ahead of chain k is m_1 - sum(mu_1 .. mu_{k-1}).  Chain 1
    uses the full base moments shifted by c_n and chain n is (0, 2*L(x1^2
    - x1*x2), 0); neither reads r, so both are computed once here.  Only
    the middle chains 2 .. n-1 depend on r, and each is affine in it:

        (c_mid r,  f2 d2 + c_mid^2 r,  f2 (n - k + 3) e3 + c_mid^3 r),

    with f2 = (n - k + 1)(n - k + 2), d2 = L(x1^2 - x1 x2) and e3 =
    -L(x1^3 - 3 x1^2 x2 + 2 x1 x2 x3).  The offsets and the powers of c_mid
    are computed once here, so a call is three multiply-adds, and the map is
    built once per spec per process: assembly and the search's walk table
    read the same one.
    """
    n = spec.n
    consts = compute_constants(spec)
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
    cm2, cm3 = (None, None) if cm is None else (cm * cm, cm**3)
    offset2, offset3 = [0.0, 0.0], [0.0, 0.0]  # list position k is middle chain k
    for k in range(2, n):
        f2 = (n - k + 1) * (n - k + 2)
        offset2.append(f2 * d2)
        offset3.append(f2 * (n - k + 3) * e3)

    def moments(k: int, mass_ahead: float) -> tuple[float, float, float]:
        if 1 < k < n:
            return cm * mass_ahead, offset2[k] + cm2 * mass_ahead, offset3[k] + cm3 * mass_ahead
        return first if k == 1 else last

    return moments


def reduced_moment_chain(
    spec: SymmetricMomentSpec, split: MassSplit
) -> list[tuple[float, float, float, float]]:
    """Moments (m0, m1, m2, m3) of the n reduced one-dimensional functionals.

    List position k - 1 is chain k: it carries mu_k as its zeroth moment
    and the higher moments of :func:`chain_moments`.  The mass ahead comes
    from one running exact sum, rounded once per chain, so it equals
    m_1 - fsum(masses[:k - 1]) bit for bit at O(1) amortised cost.
    """
    moments = chain_moments(spec)
    validate_split(split, spec)
    m_1 = spec.m_1
    out = []
    peeled: list[float] = []  # exact sum of mu_1 .. mu_{k-1} as partials
    for k, mu in enumerate(split.masses, start=1):
        m1, m2, m3 = moments(k, m_1 - math.fsum(peeled))
        out.append((mu, m1, m2, m3))
        add_exact(peeled, mu)
    return out


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


def solve_two_point_array(moments: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve every row (m0, m1, m2, m3) of an (r, 4) array as :func:`solve_two_point` does.

    Returns ``(nodes, weights)``, two (r, 2) arrays whose row i holds
    ``(t_hi, t_lo)`` and ``(w_hi, w_lo)``: bit for bit what
    :func:`solve_two_point` returns for row i, since every elementwise
    operation is the scalar one in the same order.  Returns None when some
    row is not a strict two-point problem (m0 <= 0 or a variance within
    rounding of 0 or below), so that the caller can solve the rows one by
    one and report the atom or the infeasible row as the scalar solve does.
    """
    m0 = moments[:, 0]
    with np.errstate(all="ignore"):
        a, b, c = (moments[:, 1:] / moments[:, :1]).T
        var = b - a * a
        if not ((m0 > 0).all() and (var > 1e-13 * np.maximum(np.abs(b), a * a)).all()):
            return None
        s = (c - a * (3.0 * b - 2.0 * a * a)) / var
        q = 0.5 * (s + np.copysign(np.sqrt(s * s + 4.0 * var), s))
        # var > 0, so q and -var/q have opposite signs and u_hi is the larger
        r = -var / q
        u_hi, u_lo = np.maximum(q, r), np.minimum(q, r)
        w_hi = m0 * (-u_lo / (u_hi - u_lo))
    return np.array((a + u_hi, a + u_lo)).T, np.array((w_hi, m0 - w_hi)).T


def least_mass(
    m1: float, m2: float, m3: float, a: float = -math.inf, b: float = math.inf
) -> float:
    """The least mass mu putting both nodes of (mu, m1, m2, m3) in [a, b], inf if none.

    The chain's nodes are the roots of

        D(t) = mu (m2 t^2 - m3 t) + (m1 m3 - m2^2 + m1 m2 t - m1^2 t^2).

    With H = mu m2 - m1^2 > 0 both lie in [a, b] iff D(a) >= 0, D(b) >= 0
    and the vertex (mu m3 - m1 m2) / (2H) is in [a, b]: conditions linear in
    mu, so the admissible masses form one interval, and this is its least
    element.  An unbounded [a, b] leaves the Hankel bound m1^2 / m2 (inf
    when m2 <= 0), the least mass that makes the chain solvable at all.
    """
    if a > b:
        return math.inf
    lo, hi = m1 * m1 / m2 if m2 > 0 else math.inf, math.inf
    det = m1 * m3 - m2 * m2
    for e, side in ((a, 1.0), (b, -1.0)):
        if not math.isfinite(e):
            continue
        # D(e) >= 0, then the vertex on the inner side of e; each p * mu + q >= 0
        p, q = m2 * e * e - m3 * e, det + m1 * m2 * e - m1 * m1 * e * e
        if p > 0:
            if -q / p > lo:
                lo = -q / p
        elif p < 0:
            if -q / p < hi:
                hi = -q / p
        elif q < 0:
            return math.inf
        p, q = side * (m3 - 2.0 * e * m2), side * (2.0 * e * m1 * m1 - m1 * m2)
        if p > 0:
            if -q / p > lo:
                lo = -q / p
        elif p < 0:
            if -q / p < hi:
                hi = -q / p
        elif q < 0:
            return math.inf
    return lo if lo <= hi else math.inf


def map_nodes(
    chains: Sequence[tuple[int, Sequence[float]]], consts: DecompositionConstants
) -> np.ndarray:
    """The points of R^n of chain-k node values ts, one row each, for each (k, ts).

    Rows follow `chains` in order, and each chain's `ts` in order.  A
    chain-k node value t maps to

        k = 1:          (eta, ..., eta)                with eta = (t - c_n) / n
        2 <= k <= n-1:  (alpha x (n-k+1), beta, gamma x (k-2))
                        beta  = gamma - t / (n - k + 2)
                        alpha = beta + (t - c_mid) / (n - k + 1)
        k = n:          (alpha, beta, gamma x (n-2))
                        beta  = gamma - (t + c_2) / 2,  alpha = beta + t

    with c_2 = c_mid for n >= 3 and c_2 = c_n for n = 2.  Every row is
    such a block pattern, so the (rows, n) array is filled with gamma once
    and each row writes its leading blocks by slice assignment.
    """
    n, gamma = consts.n, consts.gamma
    out = np.empty((sum(len(ts) for _, ts in chains), n))
    out.fill(gamma)
    row = 0
    for k, ts in chains:
        if not 1 <= k <= n:
            raise ValueError(f"chain index must be in [1, {n}], got {k}")
        if k == 1:
            for t in ts:
                out[row] = (t - consts.c_n) / n
                row += 1
            continue
        lead = n - k + 1
        for t in ts:
            if k == n:
                beta = gamma - (t + consts.c_2) / 2.0
                out[row, 0] = beta + t
            else:
                beta = gamma - t / (n - k + 2)
                out[row, :lead] = beta + (t - consts.c_mid) / lead
            out[row, lead] = beta
            row += 1
    return out


def map_nodes_array(
    ts: np.ndarray, consts: DecompositionConstants, compensation: bool = False
) -> np.ndarray:
    """The node array of :func:`map_nodes` for the (n, j) node values `ts`, row k - 1 of chain k.

    The rows come chain by chain, j per chain, in the order of `ts`, and
    with `compensation` one more row last: the chain-n image of t = 0.
    Every row is one block pattern (alpha x lead, beta, gamma x (k - 2)),
    lead = n - k + 1, except a chain-1 row, which is (eta x n).  Each row's
    three values come from elementwise operations in the order of
    :func:`map_nodes`, and one ``np.repeat`` of them by their run lengths
    writes the whole array, so every bit is that of :func:`map_nodes`.
    """
    n, j = ts.shape
    if n != consts.n:
        raise ValueError(f"expected node values of {consts.n} chains, got {n}")
    gamma, rows = consts.gamma, n * j + compensation
    lead = np.arange(n, 0, -1)[:, None]  # n - k + 1 for chain k = 1 .. n
    values = np.empty((rows, 3))
    runs = np.empty((rows, 3), dtype=np.intp)
    v, u = values[: n * j].reshape(n, j, 3), runs[: n * j].reshape(n, j, 3)
    # the middle chains' formulas; n = 2 has none, and c_2 stands in for c_mid
    v[..., 1] = gamma - ts / (lead + 1)
    v[..., 0] = v[..., 1] + (ts - consts.c_2) / lead
    u[..., 0], u[..., 1], u[..., 2] = lead, 1, n - 1 - lead
    # chain n's rows, then the compensation node's: the chain-n image of t = 0
    t = np.append(ts[-1], 0.0) if compensation else ts[-1]
    last = slice((n - 1) * j, None)
    values[last, 1] = gamma - (t + consts.c_2) / 2.0
    values[last, 0] = values[last, 1] + t
    runs[last] = (1, 1, n - 2)
    values[:j, 0] = (ts[0] - consts.c_n) / n
    runs[:j] = (n, 0, 0)
    values[:, 2] = gamma
    return np.repeat(values.ravel(), runs.ravel()).reshape(rows, n)
