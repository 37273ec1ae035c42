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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InvalidMomentSpecError, InvalidSplitError
from .moments import SymmetricMomentSpec

__all__ = [
    "DecompositionConstants",
    "MassSplit",
    "chain_moments",
    "compute_constants",
    "default_split",
    "reduced_moment_chain",
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
        exactly and converted to floats at the end.
        """
        t = [float(Fraction(v)) if isinstance(v, str) else float(v) for v in t_values]
        if len(t) != spec.n:
            raise InvalidSplitError(
                f"expected {spec.n} t-parameters, got {len(t)}"
            )
        return cls(tuple(tk * spec.m_1 / spec.n for tk in t), compensation)


def compute_constants(spec: SymmetricMomentSpec) -> DecompositionConstants:
    """Compute c_n, c_mid and gamma from the seven base moments.

    For n = 2 the c_n numerator reduces to L(x1^3 - x1^2 x2): the triple
    product term carries coefficient n - 2 = 0.
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
    """Check positivity and, without compensation, total-mass balance."""
    if len(split.masses) != spec.n:
        raise InvalidSplitError(
            f"split has {len(split.masses)} masses, expected {spec.n}"
        )
    for k, mu in enumerate(split.masses, start=1):
        if not mu > 0:
            raise InvalidSplitError(f"mass mu_{k} must be > 0, got {mu!r}")
    if not split.compensation:
        total = math.fsum(split.masses)
        if abs(total - spec.m_1) > MASS_BALANCE_RTOL * abs(spec.m_1):
            raise InvalidSplitError(
                f"masses sum to {total!r} but m_1 = {spec.m_1!r}; "
                "enable compensation or rescale the split"
            )


def _add_exact(partials: list[float], x: float) -> None:
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
def chain_moments(
    spec: SymmetricMomentSpec, consts: DecompositionConstants
) -> Callable[[int, float], tuple[float, float, float]]:
    """The map (k, r) -> (m1, m2, m3) of chain k with mass r ahead of it.

    The mass ahead of chain k is m_1 - sum(mu_1 .. mu_{k-1}).  Chain 1
    uses the full base moments shifted by c_n and chain n is (0, 2*L(x1^2
    - x1*x2), 0); neither reads r, so both are computed once here.  Only
    the middle chains 2 .. n-1 depend on r, and each is affine in it:

        (c_mid r,  f2 d2 + c_mid^2 r,  f2 (n - k + 3) e3 + c_mid^3 r),

    with f2 = (n - k + 1)(n - k + 2), d2 = L(x1^2 - x1 x2) and e3 =
    -L(x1^3 - 3 x1^2 x2 + 2 x1 x2 x3).  The offsets and the powers of c_mid
    are computed once here, so a call is three multiply-adds, and the map is
    built once per (spec, constants) per process: assembly and the search's
    walk table read the same one.
    """
    n = spec.n
    if consts.n != n:
        raise InvalidSplitError(
            f"constants were computed for n = {consts.n}, spec has n = {n}"
        )
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


def _chain_mass_bound(m1: float, m2: float) -> float:
    """The Hankel bound: mu * m2 - m1^2 > 0 iff mu > m1^2 / m2 (inf when m2 <= 0)."""
    return m1 * m1 / m2 if m2 > 0 else math.inf


def reduced_moment_chain(
    spec: SymmetricMomentSpec,
    split: MassSplit,
    consts: DecompositionConstants,
) -> list[tuple[float, float, float, float]]:
    """Moments (m0, m1, m2, m3) of the n reduced one-dimensional functionals.

    List position k - 1 is chain k: it carries mu_k as its zeroth moment
    and the higher moments of :func:`chain_moments`.  The mass ahead comes
    from one running exact sum, rounded once per chain, so it equals
    m_1 - fsum(masses[:k - 1]) bit for bit at O(1) amortised cost.
    """
    moments = chain_moments(spec, consts)
    validate_split(split, spec)
    m_1 = spec.m_1
    out = []
    peeled: list[float] = []  # exact sum of mu_1 .. mu_{k-1} as partials
    for k, mu in enumerate(split.masses, start=1):
        m1, m2, m3 = moments(k, m_1 - math.fsum(peeled))
        out.append((mu, m1, m2, m3))
        _add_exact(peeled, mu)
    return out
