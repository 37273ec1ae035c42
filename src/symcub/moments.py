"""Permutation-symmetric moment functionals up to degree 3.

A positive linear functional L on polynomials in n variables that is
invariant under permutations of the variables is determined, up to total
degree 3, by seven numbers: the values of L on

    1, x1, x1^2, x1*x2, x1^3, x1^2*x2, x1*x2*x3.

This module stores those seven values (:class:`SymmetricMomentSpec`)
and provides exact closed-form moments for three built-in regions: the
standard simplex x1 + ... + xn <= 1 (xi >= 0), the positive sector of
the unit ball, and the unit cube.  Region moments are available at
arbitrary degree, which the validation layer uses to demonstrate
non-exactness at degree 4.

A zero exponent contributes a factor of exactly 1 to each closed form,
so a built-in moment is evaluated from its nonzero exponent pattern as
one ratio of two exact integers (factorials or double factorials), taken
by a single int/int true division.  That division is correctly rounded,
so it equals ``float(Fraction(num, den))`` bit for bit.  The ball sector
then multiplies by a power of pi/2, so it divides num * 2^e by den, with
e chosen to put the quotient in (1/2, 2), and takes 2^e off the product
with ``math.ldexp``.  The ratio is thus never rounded as a subnormal, and
a moment stays accurate for as long as it is a normal float; where the
ratio is a normal float itself, the result equals the unscaled product.
A sector moment whose bound 2^(1 - e) (pi/2)^k is far below the least
subnormal is 0.0 without the power, which overflows past k = 1571.
The seven moments of a built-in region are computed once per process and
the frozen spec is shared after that; an underflow is raised again on
every call.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    DegreeOutOfRangeError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidMomentSpecError,
)

__all__ = [
    "PATTERN_TO_FIELD",
    "Region",
    "RegionId",
    "SymmetricMomentSpec",
    "cube_spec",
    "double_factorial",
    "load_spec",
    "region_monomial_moment",
    "region_spec",
    "sector_spec",
    "simplex_spec",
    "spec_from_dict",
]


def double_factorial(m: int) -> int:
    """Exact integer double factorial, with m!! = 1 for every m <= 0."""
    if m <= 0:
        return 1
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _check_dim(n) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {n!r}")
    return n


class Region(enum.Enum):
    """Built-in integration regions with closed-form monomial moments."""

    SIMPLEX = "simplex"
    BALL_SECTOR = "ball-sector"
    CUBE = "cube"


@dataclass(frozen=True)
class RegionId:
    """A built-in region together with its dimension."""

    region: Region
    n: int

    def __post_init__(self):
        _check_dim(self.n)
        if not isinstance(self.region, Region):
            object.__setattr__(self, "region", Region(self.region))

    @property
    def label(self) -> str:
        return self.region.value


# Sorted nonzero exponent patterns of total degree <= 3 mapped to the
# seven stored moments, in field order.  A pattern with more factors
# than n has no monomial in n variables.  The custom-spec JSON
# key of a moment is its field name without the underscore.
PATTERN_TO_FIELD = {
    (): "m_1",
    (1,): "m_x",
    (2,): "m_xx",
    (1, 1): "m_xy",
    (3,): "m_xxx",
    (2, 1): "m_xxy",
    (1, 1, 1): "m_xyz",
}


@dataclass(frozen=True)
class SymmetricMomentSpec:
    """The seven degree-<=3 moments of a permutation-symmetric functional.

    Fields m_1 .. m_xyz are L(1), L(x1), L(x1^2), L(x1*x2), L(x1^3),
    L(x1^2*x2) and L(x1*x2*x3).  For n = 2 the triple product moment is
    unused and stored as 0.  Construction validates the positivity
    invariants needed by the decomposition; violations raise
    :class:`InvalidMomentSpecError` naming the broken inequality.
    """

    n: int
    m_1: float
    m_x: float
    m_xx: float
    m_xy: float
    m_xxx: float
    m_xxy: float
    m_xyz: float = 0.0

    def __post_init__(self):
        _check_dim(self.n)
        if self.n == 2:
            object.__setattr__(self, "m_xyz", 0.0)
        for name in PATTERN_TO_FIELD.values():
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidMomentSpecError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not self.m_1 > 0:
            raise InvalidMomentSpecError(f"m_1 > 0 violated: m_1 = {self.m_1!r}")
        if not self.m_xx > 0:
            raise InvalidMomentSpecError(f"m_xx > 0 violated: m_xx = {self.m_xx!r}")
        if not self.m_xx - self.m_xy > 0:
            raise InvalidMomentSpecError(
                "m_xx - m_xy > 0 violated: "
                f"m_xx - m_xy = {self.m_xx - self.m_xy!r}"
            )
        # divided by m_1, so that no product overflows
        bound = self.m_x * (self.m_x / self.m_1)
        if self.m_xx < bound:
            raise InvalidMomentSpecError(
                "m_1*m_xx - m_x^2 >= 0 violated: "
                f"m_xx = {self.m_xx!r} < m_x^2 / m_1 = {bound!r}"
            )

    @property
    def moment_scale(self) -> float:
        """Largest |L(x^alpha)| over the monomials of degree <= 3."""
        return max(abs(getattr(self, name)) for name in PATTERN_TO_FIELD.values())

    def ldexp(self, j: int) -> "SymmetricMomentSpec":
        """The functional times 2^j: every moment scaled by math.ldexp.

        Exact while no moment leaves the normal floats; math.ldexp raises
        OverflowError past the largest float.
        """
        return replace(self, **{
            name: math.ldexp(getattr(self, name), j) for name in PATTERN_TO_FIELD.values()
        })


def _as_exponents(exponents: Sequence[int], n: int) -> tuple[int, ...]:
    exps = tuple(int(a) for a in exponents)
    if len(exps) != n:
        raise DimensionMismatchError(
            f"exponent vector has length {len(exps)}, expected {n}"
        )
    if any(a < 0 for a in exps):
        raise DegreeOutOfRangeError(f"exponents must be >= 0, got {exps}")
    return exps


def _pattern_moment(region: RegionId, pattern: Sequence[int]) -> float:
    """Moment over a built-in region of a monomial with these nonzero exponents."""
    total = sum(pattern)
    if region.region is Region.SIMPLEX:
        num = math.prod(math.factorial(a) for a in pattern)
        return num / math.factorial(region.n + total)
    if region.region is Region.BALL_SECTOR:
        num = math.prod(double_factorial(a - 1) for a in pattern)
        den = double_factorial(region.n + total)
        n_odd = sum(a % 2 for a in pattern)
        # num <= (|a| - 1)!! < den, so e >= 0, and num * 2^e / den is in (1/2, 2)
        e = den.bit_length() - num.bit_length()
        k = (region.n - n_odd) // 2
        # the moment is below 2^(1 + k log2(pi/2) - e), so under 2^-1099 it rounds
        # to 0.0; skipping the power there also keeps (pi/2)^k from overflowing,
        # which it does from k = 1572 (n = 3144)
        if k * math.log2(math.pi / 2.0) - e < -1100:
            return 0.0
        return math.ldexp((num << e) / den * (math.pi / 2.0) ** k, -e)
    if region.region is Region.CUBE:
        return 1 / math.prod(a + 1 for a in pattern)
    raise ValueError(f"unknown region {region.region!r}")


def region_monomial_moment(region: RegionId, exponents: Sequence[int]) -> float:
    """Exact moment of x^alpha over a built-in region, any total degree.

    Simplex:  prod(alpha_i!) / (n + |alpha|)!
    Ball sector:  prod((alpha_i - 1)!!) / (n + |alpha|)!! * (pi/2)^floor((n - n_odd)/2)
        where n_odd counts the odd exponents.
    Cube:  prod(1 / (alpha_i + 1))
    """
    exps = _as_exponents(exponents, region.n)
    return _pattern_moment(region, [a for a in exps if a > 0])


@functools.lru_cache(maxsize=256)
def _spec_from_region(region: RegionId) -> SymmetricMomentSpec:
    values = {
        field: _pattern_moment(region, pattern)
        for pattern, field in PATTERN_TO_FIELD.items()
        if len(pattern) <= region.n
    }
    # every built-in moment is positive, so a zero is a float64 underflow
    zeros = [name for name, value in values.items() if value == 0.0]
    if zeros:
        raise InvalidMomentSpecError(
            f"{region.label} moments at n = {region.n} underflow float64: "
            f"{', '.join(zeros)} round to 0.0 (L(1) = {values['m_1']!r})"
        )
    return SymmetricMomentSpec(n=region.n, **values)


def simplex_spec(n: int) -> SymmetricMomentSpec:
    """Moments of the standard simplex x1 + ... + xn <= 1, xi >= 0."""
    return _spec_from_region(RegionId(Region.SIMPLEX, _check_dim(n)))


def sector_spec(n: int) -> SymmetricMomentSpec:
    """Moments of the positive sector of the unit ball (xi >= 0, |x| <= 1)."""
    return _spec_from_region(RegionId(Region.BALL_SECTOR, _check_dim(n)))


def cube_spec(n: int) -> SymmetricMomentSpec:
    """Moments of the unit cube [0, 1]^n; independent of n."""
    return _spec_from_region(RegionId(Region.CUBE, _check_dim(n)))


def region_spec(region: RegionId) -> SymmetricMomentSpec:
    """Moments of any built-in region."""
    return _spec_from_region(region)


def spec_from_dict(data: Mapping) -> SymmetricMomentSpec:
    """Build a spec from a flat key/value mapping (the custom-spec schema).

    Required keys: n, m1, mx, mxx, mxy, mxxx, mxxy, and mxyz when n >= 3.
    For n = 2, mxyz may be absent; if present it is ignored.  Unknown keys
    are rejected.
    """
    keys = {field: field.replace("_", "") for field in PATTERN_TO_FIELD.values()}
    unknown = sorted(set(data) - {"n", *keys.values()})
    if unknown:
        raise InvalidMomentSpecError(f"unknown keys in moment spec: {unknown}")
    try:
        n = data["n"]
    except KeyError:
        raise InvalidMomentSpecError("moment spec is missing key 'n'") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidMomentSpecError(f"'n' must be an integer, got {n!r}")
    _check_dim(n)
    values = {}
    for pattern, field in PATTERN_TO_FIELD.items():
        if len(pattern) > n:
            continue
        key = keys[field]
        if key not in data:
            raise InvalidMomentSpecError(f"moment spec is missing key {key!r}")
        value = data[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidMomentSpecError(f"value for {key!r} must be a number, got {value!r}")
        values[field] = float(value)
    return SymmetricMomentSpec(n=n, **values)


def load_spec(path: str | Path) -> SymmetricMomentSpec:
    """Load a custom moment spec from a flat JSON document."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InvalidMomentSpecError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidMomentSpecError(f"{path} must contain a JSON object")
    return spec_from_dict(data)
