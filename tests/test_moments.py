"""Moment specs: closed forms, symmetry dispatch, ingestion."""

import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from symcub import (
    DegreeOutOfRangeError,
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidMomentSpecError,
    Region,
    RegionId,
    SymmetricMomentSpec,
    build_rule,
    check_exactness,
    cube_spec,
    load_spec,
    region_monomial_moment,
    region_spec,
    sector_spec,
    simplex_spec,
    spec_from_dict,
)
from reference_helpers import moment_of_monomial

REL = 1e-14


def _assert_close(value, expected, rel=REL):
    assert value == pytest.approx(expected, rel=rel, abs=1e-300)


def test_simplex_spec_n3_values():
    spec = simplex_spec(3)
    _assert_close(spec.m_1, 1 / 6)
    _assert_close(spec.m_x, 1 / 24)
    _assert_close(spec.m_xx, 1 / 60)
    _assert_close(spec.m_xy, 1 / 120)
    _assert_close(spec.m_xxx, 1 / 120)
    _assert_close(spec.m_xxy, 1 / 360)
    _assert_close(spec.m_xyz, 1 / 720)


def test_simplex_spec_n2_values():
    # alpha!/(2 + |alpha|)! evaluated by hand
    spec = simplex_spec(2)
    _assert_close(spec.m_1, 1 / 2)
    _assert_close(spec.m_x, 1 / 6)
    _assert_close(spec.m_xx, 1 / 12)
    _assert_close(spec.m_xy, 1 / 24)
    _assert_close(spec.m_xxx, 1 / 20)
    _assert_close(spec.m_xxy, 1 / 60)
    assert spec.m_xyz == 0.0


def test_simplex_spec_n4_mass():
    _assert_close(simplex_spec(4).m_1, 1 / 24)


def test_simplex3_pair_gap_positive():
    spec = simplex_spec(3)
    _assert_close(spec.m_xx - spec.m_xy, 1 / 120)
    assert spec.m_xx - spec.m_xy > 0


def test_sector_mass_equals_orthant_share_of_ball_volume():
    # independent oracle: vol(B_n) / 2^n with vol from the gamma function
    for n in range(2, 7):
        ball = math.pi ** (n / 2) / math.gamma(n / 2 + 1)
        _assert_close(sector_spec(n).m_1, ball / 2**n, rel=1e-13)


def test_sector_spec_n3_values():
    spec = sector_spec(3)
    _assert_close(spec.m_1, math.pi / 6)
    _assert_close(spec.m_x, math.pi / 16)
    _assert_close(spec.m_xx, math.pi / 30)
    _assert_close(spec.m_xy, 1 / 15)
    _assert_close(spec.m_xxx, math.pi / 48)
    _assert_close(spec.m_xxy, math.pi / 96)
    _assert_close(spec.m_xyz, 1 / 48)


def test_sector_spec_n2_first_moment():
    # quarter disk: integral of x over x, y >= 0, x^2 + y^2 <= 1 is 1/3
    _assert_close(sector_spec(2).m_x, 1 / 3)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cube_spec_values_independent_of_n(n):
    spec = cube_spec(n)
    expected = (1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 4, 1 / 6, 1 / 8)
    got = (spec.m_1, spec.m_x, spec.m_xx, spec.m_xy, spec.m_xxx, spec.m_xxy, spec.m_xyz)
    if n == 2:
        got = got[:-1]
        expected = expected[:-1]
    for g, e in zip(got, expected):
        _assert_close(g, e)


def test_moment_dispatch():
    spec = simplex_spec(3)
    _assert_close(moment_of_monomial(spec, (0, 2, 0)), 1 / 60)
    _assert_close(moment_of_monomial(spec, (0, 0, 0)), spec.m_1)
    _assert_close(moment_of_monomial(simplex_spec(4), (1, 0, 1, 1)), 1 / 5040)


def test_moment_scale_is_largest_absolute_moment():
    assert simplex_spec(3).moment_scale == simplex_spec(3).m_1
    assert cube_spec(4).moment_scale == 1.0
    spec = SymmetricMomentSpec(
        n=3, m_1=1.0, m_x=0.0, m_xx=2.0, m_xy=0.5, m_xxx=-7.0, m_xxy=0.0, m_xyz=0.0
    )
    assert spec.moment_scale == 7.0


def test_moment_permutation_invariance():
    rng = np.random.default_rng(7)
    for make, n in [(simplex_spec, 3), (sector_spec, 4), (cube_spec, 5)]:
        spec = make(n)
        for exps in [(0,) * n, (1,) + (0,) * (n - 1), (2,) + (0,) * (n - 1),
                     (1, 1) + (0,) * (n - 2), (3,) + (0,) * (n - 1),
                     (2, 1) + (0,) * (n - 2), (1, 1, 1) + (0,) * (n - 3)]:
            base = moment_of_monomial(spec, exps)
            for _ in range(10):
                perm = tuple(int(v) for v in rng.permutation(exps))
                assert moment_of_monomial(spec, perm) == base


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_spec_consistent_with_region_closed_form(region, n):
    rid = RegionId(region, n)
    spec = region_spec(rid)
    import itertools

    for degree in range(4):
        for positions in itertools.combinations_with_replacement(range(n), degree):
            exps = [0] * n
            for p in positions:
                exps[p] += 1
            _assert_close(
                moment_of_monomial(spec, exps), region_monomial_moment(rid, exps)
            )


def _simplex3_quadrature(exponents, points=24):
    # iterated Gauss-Legendre over x1+x2+x3 <= 1; exact for polynomials
    nodes, weights = np.polynomial.legendre.leggauss(points)
    nodes = (nodes + 1) / 2
    weights = weights / 2
    total = 0.0
    a, b, c = exponents
    for x, wx in zip(nodes, weights):
        for y_unit, wy in zip(nodes, weights):
            y = y_unit * (1 - x)
            z_max = 1 - x - y
            # integral of z^c over [0, z_max]
            inner = z_max ** (c + 1) / (c + 1)
            total += wx * wy * (1 - x) * x**a * y**b * inner
    return total


def test_simplex_degree4_moment_vs_quadrature():
    rid = RegionId(Region.SIMPLEX, 3)
    assert region_monomial_moment(rid, (4, 0, 0)) == pytest.approx(1 / 210, rel=1e-14)
    assert region_monomial_moment(rid, (4, 0, 0)) == pytest.approx(
        _simplex3_quadrature((4, 0, 0)), rel=1e-12
    )
    assert region_monomial_moment(rid, (2, 2, 0)) == pytest.approx(
        _simplex3_quadrature((2, 2, 0)), rel=1e-12
    )


def test_sector_degree4_moment():
    # spherical oracle: integral of x1^2 over the n=3 sector is
    # (1/8) * (1/3) * 4*pi/5 = pi/30 ... and for x1^2 via the formula
    rid = RegionId(Region.BALL_SECTOR, 3)
    _assert_close(region_monomial_moment(rid, (2, 0, 0)), (1 / 15) * (math.pi / 2))
    # integral of x1^4 over the full ball: (4*pi/35); sector gets 1/8
    _assert_close(region_monomial_moment(rid, (4, 0, 0)), (4 * math.pi / 35) / 8, rel=1e-13)


def test_cube_moment_any_degree():
    rid = RegionId(Region.CUBE, 2)
    _assert_close(region_monomial_moment(rid, (3, 1)), 1 / 8)


def test_degree_cap_and_validation():
    spec = simplex_spec(3)
    with pytest.raises(DegreeOutOfRangeError):
        moment_of_monomial(spec, (4, 0, 0))
    with pytest.raises(DegreeOutOfRangeError):
        moment_of_monomial(spec, (-1, 0, 0))
    with pytest.raises(DimensionMismatchError):
        moment_of_monomial(spec, (1, 0))


def test_invalid_dimension():
    with pytest.raises(InvalidDimensionError):
        simplex_spec(1)
    with pytest.raises(InvalidDimensionError):
        sector_spec(0)


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(m_1=0.0), "m_1 > 0"),
        (dict(m_xx=-0.1), "m_xx > 0"),
        (dict(m_xy=0.5), "m_xx - m_xy > 0"),
        (dict(m_x=1.0), "m_1*m_xx - m_x^2 >= 0"),
        # each of these passes every inequality above
        (dict(m_x=math.nan), "m_x must be finite"),
        (dict(m_xy=-math.inf), "m_xy must be finite"),
        (dict(m_xxx=math.inf), "m_xxx must be finite"),
        (dict(m_xxy=math.nan), "m_xxy must be finite"),
        (dict(m_xyz=-math.inf), "m_xyz must be finite"),
    ],
)
def test_spec_invariants_name_the_inequality(kwargs, fragment):
    base = dict(n=3, m_1=1.0, m_x=0.25, m_xx=0.2, m_xy=0.1, m_xxx=0.1, m_xxy=0.05, m_xyz=0.02)
    base.update(kwargs)
    with pytest.raises(InvalidMomentSpecError, match=fragment.replace("*", r"\*").replace("^", r"\^")):
        spec_from = base
        from symcub import SymmetricMomentSpec

        SymmetricMomentSpec(**spec_from)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_cauchy_schwarz_check_does_not_overflow(scale):
    base = dict(n=3, m_1=1.0, m_x=0.5, m_xx=0.4, m_xy=0.2, m_xxx=0.3, m_xxy=0.1, m_xyz=0.05)
    SymmetricMomentSpec(**{k: v if k == "n" else v * scale for k, v in base.items()})
    base["m_x"] = 0.7  # m_x^2 / m_1 = 0.49 > m_xx
    with pytest.raises(InvalidMomentSpecError, match=r"m_1\*m_xx - m_x\^2 >= 0"):
        SymmetricMomentSpec(**{k: v if k == "n" else v * scale for k, v in base.items()})


# the fields each case rounds to 0.0
_UNDERFLOW_ZEROS = {
    (Region.BALL_SECTOR, 340): "m_1, m_x, m_xx, m_xy, m_xxx, m_xxy, m_xyz",
    (Region.SIMPLEX, 200): "m_1, m_x, m_xx, m_xy, m_xxx, m_xxy, m_xyz",
    # L(1) is still positive here, but the cubic moments are not
    (Region.BALL_SECTOR, 336): "m_xxx, m_xxy, m_xyz",
    (Region.SIMPLEX, 175): "m_xxx, m_xxy, m_xyz",
    # (pi/2)^(n/2) passes the largest float from here on
    (Region.BALL_SECTOR, 3144): "m_1, m_x, m_xx, m_xy, m_xxx, m_xxy, m_xyz",
    (Region.BALL_SECTOR, 4000): "m_1, m_x, m_xx, m_xy, m_xxx, m_xxy, m_xyz",
}


@pytest.mark.parametrize("region, n", list(_UNDERFLOW_ZEROS))
def test_region_moment_underflow_is_named(region, n):
    with pytest.raises(InvalidMomentSpecError) as info:
        region_spec(RegionId(region, n))
    message = str(info.value)
    zeros = _UNDERFLOW_ZEROS[region, n]
    assert f"{region.value} moments at n = {n} underflow float64: {zeros} round" in message
    assert "L(1)" in message


@pytest.mark.parametrize("n", [3144, 4000])
def test_sector_moments_past_the_power_overflow_are_zero(n):
    # the true moments are far below the least subnormal, as is (pi/2)^k / den
    with pytest.raises(InvalidMomentSpecError, match="underflow float64"):
        sector_spec(n)
    rid = RegionId(Region.BALL_SECTOR, n)
    for head in [(), (1,), (2,), (6,), (1, 1, 1)]:
        assert region_monomial_moment(rid, head + (0,) * (n - len(head))) == 0.0


@pytest.mark.parametrize("region, n", list(_UNDERFLOW_ZEROS))
def test_region_moment_underflow_is_raised_on_every_call(region, n):
    for _ in range(3):
        with pytest.raises(InvalidMomentSpecError, match="underflow float64"):
            region_spec(RegionId(region, n))


@pytest.mark.parametrize("region", list(Region))
def test_region_spec_is_built_once_and_shared(region):
    rid = RegionId(region, 5)
    spec = region_spec(rid)
    assert region_spec(RegionId(region.value, 5)) is spec
    by_name = {Region.SIMPLEX: simplex_spec, Region.BALL_SECTOR: sector_spec, Region.CUBE: cube_spec}
    assert by_name[region](5) is spec
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.m_1 = 2.0


def _sector_ratio(n, exps):
    # the sector's closed form is num / den * (pi/2)^k; m!! is
    # prod(range(m, 0, -2)), 1 for m <= 0
    num = math.prod(math.prod(range(a - 1, 0, -2)) for a in exps)
    n_odd = sum(1 for a in exps if a % 2 == 1)
    return num, math.prod(range(n + sum(exps), 0, -2)), (n - n_odd) // 2


def _reference_region_moment(region, exps):
    # the closed forms over the full length-n exponent tuple, rounded once
    # through Fraction; the sector's ratio is rounded at 2^e times its size,
    # e the bit length of its denominator, so that it is >= 1 and never
    # subnormal, and the scale is taken off after the product with (pi/2)^k
    n, total = region.n, sum(exps)
    if region.region is Region.SIMPLEX:
        num = math.prod(math.factorial(a) for a in exps)
        return float(Fraction(num, math.factorial(n + total)))
    if region.region is Region.BALL_SECTOR:
        num, den, k = _sector_ratio(n, exps)
        e = den.bit_length()
        return math.ldexp(float(Fraction(num << e, den)) * (math.pi / 2.0) ** k, -e)
    return float(Fraction(1, math.prod(a + 1 for a in exps)))


_CLASS_HEADS = {
    "m_1": (),
    "m_x": (1,),
    "m_xx": (2,),
    "m_xy": (1, 1),
    "m_xxx": (3,),
    "m_xxy": (2, 1),
    "m_xyz": (1, 1, 1),
}


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 4, 8, 33, 128, 160, 256, 300, 512])
def test_region_moments_bit_identical_to_fraction_reference(region, n):
    rid = RegionId(region, n)

    def full(head):
        return tuple(head) + (0,) * (n - len(head))

    for head in [(), (4,), (2, 2)]:
        got = region_monomial_moment(rid, full(head))
        assert got.hex() == _reference_region_moment(rid, full(head)).hex(), head
    expected = {
        field: _reference_region_moment(rid, full(head))
        for field, head in _CLASS_HEADS.items()
        if len(head) <= n
    }
    if 0.0 in expected.values():
        with pytest.raises(InvalidMomentSpecError, match="underflow float64"):
            region_spec(rid)
        return
    spec = region_spec(rid)
    for field, value in expected.items():
        assert getattr(spec, field).hex() == value.hex(), field


def _cube_dict(n=3):
    return {
        "n": n,
        "m1": 1.0,
        "mx": 0.5,
        "mxx": 1 / 3,
        "mxy": 0.25,
        "mxxx": 0.25,
        "mxxy": 1 / 6,
        "mxyz": 0.125,
    }


def test_spec_file_roundtrip(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(_cube_dict()))
    spec = load_spec(path)
    assert spec.n == 3
    _assert_close(spec.m_xy, 0.25)


def test_spec_dict_rejects_unknown_keys():
    data = _cube_dict()
    data["extra"] = 1.0
    with pytest.raises(InvalidMomentSpecError, match="unknown keys"):
        spec_from_dict(data)


def test_spec_dict_requires_mxyz_for_n3():
    data = _cube_dict()
    del data["mxyz"]
    with pytest.raises(InvalidMomentSpecError, match="mxyz"):
        spec_from_dict(data)


def test_spec_dict_ignores_mxyz_for_n2():
    data = _cube_dict(n=2)
    data["mxyz"] = 123.0
    spec = spec_from_dict(data)
    assert spec.m_xyz == 0.0
    del data["mxyz"]
    assert spec_from_dict(data).m_xyz == 0.0


def test_spec_dict_rejects_non_numeric():
    data = _cube_dict()
    data["mx"] = "a half"
    with pytest.raises(InvalidMomentSpecError, match="must be a number"):
        spec_from_dict(data)


def test_load_spec_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(InvalidMomentSpecError, match="JSON object"):
        load_spec(path)


def test_load_spec_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidMomentSpecError):
        load_spec(path)


def test_sector_moments_match_60_digit_values():
    # every sector moment that is a normal float, up to n = 340: the ratio of
    # double factorials must not be rounded as a subnormal before the
    # product with (pi/2)^k, or the moments lose precision from n = 297
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(60):
        half_pi = mpmath.pi / 2
        for n in range(2, 341):
            rid = RegionId(Region.BALL_SECTOR, n)
            for head in [*_CLASS_HEADS.values(), (4,), (2, 2)]:
                if len(head) > n:
                    continue
                exps = tuple(head) + (0,) * (n - len(head))
                got = region_monomial_moment(rid, exps)
                if abs(got) < sys.float_info.min:
                    continue
                num, den, k = _sector_ratio(n, exps)
                exact = mpmath.mpf(num) / den * half_pi**k
                worst = max(worst, float(abs(got - exact) / exact))
    assert worst <= 1e-14


@pytest.mark.parametrize("n", [307, 308, 309])
def test_sector_specs_past_306_are_exact(n):
    # a subnormal ratio in the moments leaves chain 1 with zero variance
    # here, a false InfeasibleMomentError; the default rule is exact
    spec = sector_spec(n)
    rule = build_rule(spec)
    assert len(rule) == 2 * n
    assert check_exactness(rule, spec).max_abs_error <= 1e-13 * spec.moment_scale
