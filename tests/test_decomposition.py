"""Decomposition constants, mass splits, and the reduced moment chain."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from symcub import (
    InvalidSplitError,
    MassSplit,
    Region,
    RegionId,
    SymmetricMomentSpec,
    build_rule,
    compute_constants,
    cube_spec,
    default_split,
    reduced_moment_chain,
    region_spec,
    sector_spec,
    simplex_spec,
)
from symcub.decomposition import chain_moments
from reference_helpers import closure_chain_moments


def test_simplex3_constants():
    consts = compute_constants(simplex_spec(3))
    assert consts.c_n == pytest.approx(-5 / 6, rel=1e-15)
    assert consts.c_mid == pytest.approx(-1 / 3, rel=1e-15)
    assert consts.gamma == pytest.approx(1 / 6, rel=1e-14)


@pytest.mark.parametrize("n", range(3, 9))
def test_simplex_constants_closed_form(n):
    # c_mid = -2/(n+3), c_n = -(n+2)/(n+3), gamma = 1/(n+3)
    consts = compute_constants(simplex_spec(n))
    assert consts.c_mid == pytest.approx(-2 / (n + 3), rel=1e-14)
    assert consts.c_n == pytest.approx(-(n + 2) / (n + 3), rel=1e-14)
    assert consts.gamma == pytest.approx(1 / (n + 3), rel=1e-14)


def test_sector3_constants_closed_form():
    consts = compute_constants(sector_spec(3))
    pi = math.pi
    scale = 15 / 48
    assert consts.c_mid == pytest.approx(-scale * (4 - pi) / (pi - 2), rel=1e-13)
    assert consts.c_n == pytest.approx(-scale * (2 * pi - 2) / (pi - 2), rel=1e-13)
    assert consts.gamma == pytest.approx(scale, rel=1e-13)
    assert consts.gamma == pytest.approx((consts.c_mid - consts.c_n) / 3, rel=1e-14)


def test_sector4_gamma_matches_published_coordinate():
    # the trailing coordinate of the n=4 sector tables, 96/(105*pi)
    consts = compute_constants(sector_spec(4))
    assert consts.gamma == pytest.approx(96 / (105 * math.pi), rel=1e-13)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_cube_constants(n):
    consts = compute_constants(cube_spec(n))
    assert consts.c_n == pytest.approx(-n / 2, rel=1e-14)
    assert consts.c_mid == pytest.approx(0.0, abs=1e-15)
    assert consts.gamma == pytest.approx(0.5, rel=1e-14)


def test_cube3_cn_from_moment_ratio():
    # numerator L(x1^3 - x1 x2 x3) = 1/4 - 1/8; denominator 1/3 - 1/4
    spec = cube_spec(3)
    expected = -(spec.m_xxx - spec.m_xyz) / (spec.m_xx - spec.m_xy)
    assert expected == pytest.approx(-3 / 2, rel=1e-15)
    assert compute_constants(spec).c_n == pytest.approx(expected, rel=1e-15)


def test_n2_constants():
    spec = simplex_spec(2)
    consts = compute_constants(spec)
    assert consts.c_mid is None
    assert consts.gamma == 0.0
    expected = -(spec.m_xxx - spec.m_xxy) / (spec.m_xx - spec.m_xy)
    assert consts.c_n == pytest.approx(expected, rel=1e-15)
    assert consts.c_2 == consts.c_n


def test_default_split_examples():
    assert default_split(simplex_spec(3)).masses == pytest.approx([1 / 18] * 3)
    assert default_split(cube_spec(4)).masses == pytest.approx([1 / 4] * 4)
    # sector mass L(1) = pi/6 at n = 3, shared equally
    assert default_split(sector_spec(3)).masses == pytest.approx([math.pi / 18] * 3)


def test_split_from_t_parses_rationals():
    spec = simplex_spec(3)
    split = MassSplit.from_t(["93/85", "378/391", "108/115"], spec)
    assert split.masses[0] == pytest.approx(float(Fraction(93, 85)) / 18, rel=1e-16)
    assert split.masses[1] == pytest.approx(float(Fraction(378, 391)) / 18, rel=1e-15)


def test_reduced_chain_simplex3_default():
    spec = simplex_spec(3)
    chain = reduced_moment_chain(spec, default_split(spec))
    assert len(chain) == 3
    assert chain[0] == pytest.approx((1 / 18, -1 / 72, 32 / 4320, -70 / 25920), rel=1e-13)
    assert chain[1] == pytest.approx(
        (1 / 18, -1 / 27, 1 / 20 + 1 / 81, -1 / 15 - 1 / 243), rel=1e-13
    )
    m0, m1, m2, m3 = chain[2]
    assert m0 == pytest.approx(1 / 18, rel=1e-15)
    assert m1 == 0.0 and m3 == 0.0
    assert m2 == pytest.approx(1 / 60, rel=1e-15)


def test_last_chain_entry_zeros_are_exact():
    for make, n in [(simplex_spec, 5), (sector_spec, 4), (cube_spec, 3)]:
        spec = make(n)
        chain = reduced_moment_chain(spec, default_split(spec))
        _, m1, _, m3 = chain[-1]
        assert m1 == 0.0
        assert m3 == 0.0


def remaining_mass(split, m_1, k):
    """Reference: mass left after the first k chains, m_1 - sum(mu_1 .. mu_k)."""
    if not 0 <= k <= len(split.masses):
        raise InvalidSplitError(f"k must be in [0, {len(split.masses)}], got {k}")
    return m_1 - math.fsum(split.masses[:k])


def test_remaining_mass():
    spec = simplex_spec(3)
    split = default_split(spec)
    assert remaining_mass(split, spec.m_1, 0) == spec.m_1
    assert remaining_mass(split, spec.m_1, 1) == pytest.approx(1 / 9, rel=1e-15)
    with pytest.raises(InvalidSplitError):
        remaining_mass(split, spec.m_1, 4)
    with pytest.raises(InvalidSplitError):
        remaining_mass(split, spec.m_1, -1)


def test_remaining_mass_compensation_residual():
    spec = simplex_spec(4)
    split = MassSplit.from_t(
        ["104/75", "3577/2775", "9947/8880", "49/60"], spec, compensation=True
    )
    residual = remaining_mass(split, spec.m_1, 4)
    assert residual == pytest.approx(-49 / 7680, rel=1e-12)


def test_chain_mass_conservation_random_splits():
    rng = np.random.default_rng(2024)
    for region in Region:
        for n in [2, 3, 5]:
            spec = region_spec(RegionId(region, n))
            for _ in range(20):
                t = rng.uniform(0.6, 1.4, n)
                t *= n / t.sum()
                split = MassSplit(tuple(t * spec.m_1 / n))
                chain = reduced_moment_chain(spec, split)
                total = math.fsum(m0 for m0, _, _, _ in chain)
                assert abs(total - spec.m_1) <= 1e-12 * spec.m_1
                assert all(m0 > 0 for m0, _, _, _ in chain)


@pytest.mark.parametrize("make", [simplex_spec, sector_spec])
@pytest.mark.parametrize("n", [3, 8, 33])
def test_chain_remaining_mass_is_the_exact_prefix_sum(make, n):
    # the running prefix sum must round exactly like fsum over each prefix,
    # also when the masses span hundreds of binary orders of magnitude
    spec = make(n)
    consts = compute_constants(spec)
    rng = np.random.default_rng(n)
    for low, high in [(0.5, 1.5), (-200.0, 200.0)]:
        if low > 0:
            masses = rng.uniform(low, high, n) * spec.m_1 / n
        else:
            masses = 10.0 ** rng.uniform(low, high, n)
        split = MassSplit(tuple(masses), compensation=True)
        chain = reduced_moment_chain(spec, split)
        d2 = spec.m_xx - spec.m_xy
        e3 = -(spec.m_xxx - 3.0 * spec.m_xxy + 2.0 * spec.m_xyz)
        cm = consts.c_mid
        for k in range(2, n):
            _, m1, m2, m3 = chain[k - 1]
            ahead = remaining_mass(split, spec.m_1, k - 1)
            f2 = (n - k + 1) * (n - k + 2)
            assert m1 == cm * ahead
            assert m2 == f2 * d2 + cm * cm * ahead
            assert m3 == f2 * (n - k + 3) * e3 + cm**3 * ahead


def test_centrally_symmetric_spec_has_odd_moments_zero():
    spec = SymmetricMomentSpec(
        n=3, m_1=1.0, m_x=0.0, m_xx=1 / 3, m_xy=1 / 9, m_xxx=0.0, m_xxy=0.0, m_xyz=0.0
    )
    consts = compute_constants(spec)
    assert consts.c_n == 0.0
    chain = reduced_moment_chain(spec, default_split(spec))
    for _, m1, _, m3 in chain:
        assert m1 == 0.0
        assert m3 == 0.0


def test_validate_split_errors():
    spec = simplex_spec(3)
    with pytest.raises(InvalidSplitError, match="3 t-parameters"):
        MassSplit.from_t(["1", "1"], spec)
    with pytest.raises(InvalidSplitError, match="mu_2"):
        reduced_moment_chain(spec, MassSplit((0.1, -0.1, 0.1)))
    with pytest.raises(InvalidSplitError, match="masses sum to"):
        reduced_moment_chain(spec, MassSplit((0.1, 0.1, 0.1)))
    # same masses accepted once flagged as compensated
    chain = reduced_moment_chain(spec, MassSplit((0.1, 0.1, 0.1), compensation=True))
    assert len(chain) == 3
    with pytest.raises(InvalidSplitError, match="masses"):
        reduced_moment_chain(spec, MassSplit((0.1, 0.1)))


@pytest.mark.parametrize("compensation", [False, True])
@pytest.mark.parametrize("masses, match", [
    ((math.inf, 1.0, 1.0), "mu_1 must be finite"),
    ((1.0, 1.0, math.nan), "mu_3 must be finite"),
    ((1e308, 1e308, 1e308), "sum past the largest float"),
])
def test_infinite_or_overflowing_masses_are_named(masses, match, compensation):
    # an infinite mass, or masses whose sum overflows, never reach a chain
    spec = cube_spec(3)
    with pytest.raises(InvalidSplitError, match=match):
        build_rule(spec, MassSplit(masses, compensation))


def test_largest_finite_masses_are_accepted_with_compensation():
    # the sum of these masses is the largest float: no overflow, so the
    # split is checked and fails only on chain feasibility or not at all
    spec = cube_spec(3)
    masses = (math.ldexp(1.0, 1023), math.ldexp(1.0, 1022), math.ldexp(1.0, 1022) * (1 - 2**-51))
    assert math.fsum(masses) == sys.float_info.max
    assert len(reduced_moment_chain(spec, MassSplit(masses, True))) == 3


@pytest.mark.parametrize("t, name", [
    (["1/0", "1", "1"], "t_1"),
    (["1", "abc", "1"], "t_2"),
    (["1", "1", "1e400"], "t_3"),
])
def test_split_from_bad_t_string_names_the_parameter(t, name):
    with pytest.raises(InvalidSplitError, match=f"{name} = .* is not a finite number"):
        MassSplit.from_t(t, simplex_spec(3))


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 8, 33, 128])
def test_chain_moment_table_matches_the_closure(region, n):
    # every chain, at r = +-0, at m_1 and at random +-r over 1e-300 .. 1e300
    spec = region_spec(RegionId(region, n))
    table, reference = chain_moments(spec), closure_chain_moments(spec)
    rng = np.random.default_rng(n)
    signs = rng.choice([-1.0, 1.0], 64)
    masses = [0.0, -0.0, spec.m_1, *(signs * 10.0 ** rng.uniform(-300, 300, 64)).tolist()]
    for k in range(1, n + 1):
        for r in masses:
            got = [x.hex() for x in table(k, r)]
            assert got == [x.hex() for x in reference(k, r)], (k, r)


def test_chain_moment_table_is_built_once_per_spec():
    spec = region_spec(RegionId(Region.SIMPLEX, 6))
    table = chain_moments(spec)
    assert chain_moments(replace(spec)) is table
    other = region_spec(RegionId(Region.CUBE, 6))
    assert chain_moments(other) is not table
    assert chain_moments.cache_info().maxsize is not None
