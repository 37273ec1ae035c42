"""Decomposition constants, mass splits, and the reduced moment chain."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from symcub import (
    InvalidMomentSpecError,
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
from symcub import assembly
from symcub.assembly import ARRAY_MIN_N
from symcub.decomposition import (
    MAX_SPREAD, chain_moment_array, chain_moments, solve_two_point, solve_two_point_array,
)
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


@pytest.mark.parametrize("n", [3, 8, 128])
@pytest.mark.parametrize("compensation", [False, True])
def test_split_from_string_t_equals_split_from_float_t(n, compensation):
    # a string is parsed exactly and rounded once: "93/85" gives the float 93/85
    spec = sector_spec(n)
    t = np.random.default_rng(n).integers(50, 150, (n, 2)).tolist()
    strings = [f"{p}/{q}" for p, q in t]
    floats = [p / q for p, q in t]
    from_strings = MassSplit.from_t(strings, spec, compensation)
    from_floats = MassSplit.from_t(floats, spec, compensation)
    want = [(x * spec.m_1 / n).hex() for x in floats]
    assert [x.hex() for x in from_strings.masses] == want
    assert [x.hex() for x in from_floats.masses] == want
    assert all(type(x) is float for x in from_strings.masses)
    assert from_strings.compensation is from_floats.compensation is compensation
    # numpy floats and ints convert as floats do
    assert MassSplit.from_t(np.array(floats), spec).masses == from_floats.masses
    assert MassSplit.from_t([1] * n, spec).masses == default_split(spec).masses


@pytest.mark.parametrize("t, name, cause", [
    (["1/0", "1", "1"], "t_1", ZeroDivisionError),
    (["1", "abc", "1"], "t_2", ValueError),
    (["1", "1", "1e400"], "t_3", OverflowError),
    ([1.0, 10**400, 1.0], "t_2", OverflowError),
    (["1", "", "1/0"], "t_2", ValueError),  # the first bad value is named
    ([1.0, 1.0, "inf"], "t_3", ValueError),
])
def test_split_from_rejected_t_keeps_its_error(t, name, cause):
    with pytest.raises(InvalidSplitError) as info:
        MassSplit.from_t(t, simplex_spec(3))
    assert str(info.value) == f"t-parameter {name} = {t[int(name[2:]) - 1]!r} is not a finite number"
    assert type(info.value.__cause__) is cause


def test_split_from_t_of_the_wrong_length_or_type():
    with pytest.raises(InvalidSplitError, match="^expected 3 t-parameters, got 4$"):
        MassSplit.from_t(["1", "1", "1", "1"], simplex_spec(3))
    with pytest.raises(InvalidSplitError, match="^expected 3 t-parameters, got 0$"):
        MassSplit.from_t([], simplex_spec(3))
    # a conversion error comes before the length check
    with pytest.raises(InvalidSplitError, match="t_1"):
        MassSplit.from_t(["x"], simplex_spec(3))
    # a value that is neither a number nor a string is not a t-parameter error
    with pytest.raises(TypeError):
        MassSplit.from_t([1.0, None, 1.0], simplex_spec(3))


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
    assert compute_constants(replace(spec)) is compute_constants(spec)
    other = region_spec(RegionId(Region.CUBE, 6))
    assert chain_moments(other) is not table
    assert chain_moments.cache_info().maxsize is not None


def _two_point_moments(rng, count):
    """Moments (m0, m1, m2, m3) of seeded two-point measures c +- h.

    The lighter node carries 1e-8 .. 1/2 of the mass m0 and sits above or
    below the heavier one, so the solve's q takes both signs; |c| / h runs
    from 1e-2 to 1e4 and m0 from 1e-200 to 1e200.
    """
    light = 10.0 ** rng.uniform(-8.0, math.log10(0.5), count)
    h = 10.0 ** rng.uniform(-3.0, 3.0, count)
    c = rng.choice([-1.0, 1.0], count) * h * 10.0 ** rng.uniform(-2.0, 4.0, count)
    m0 = 10.0 ** rng.uniform(-200.0, 200.0, count)
    up = rng.random(count) < 0.5
    w_hi, w_lo = np.where(up, light, 1 - light), np.where(up, 1 - light, light)
    x_hi, x_lo = c + h, c - h
    moments = np.stack([m0 * (w_hi * x_hi**p + w_lo * x_lo**p) for p in range(4)], axis=1)
    return moments, light, np.abs(c) / h


def test_array_solve_is_bit_identical_to_the_scalar_solve():
    moments, light, ratio = _two_point_moments(np.random.default_rng(20260), 4000)
    scalar = [solve_two_point(*row) for row in moments.tolist()]
    # rows whose variance is within rounding of 0 are atoms: the array solve defers those
    two = np.array([len(nodes) == 2 for nodes, _ in scalar])
    assert two.mean() > 0.9
    assert light[two].min() < 1e-7 and ratio[two].max() > 1e3
    moments = moments[two]
    scalar = [solved for solved, keep in zip(scalar, two) if keep]
    # t_hi + t_lo - 2a is s, whose sign q takes
    skew = [sum(ts) - 2 * m1 / m0 for (ts, _), (m0, m1, _, _) in zip(scalar, moments.tolist())]
    assert min(skew) < 0 < max(skew)
    nodes, weights = solve_two_point_array(moments)
    assert [x.hex() for x in nodes.ravel().tolist()] == [x.hex() for ts, _ in scalar for x in ts]
    assert [x.hex() for x in weights.ravel().tolist()] == [x.hex() for _, ws in scalar for x in ws]


@pytest.mark.parametrize("row", [
    (1.0, 0.5, 0.25, 0.125),  # an atom at 1/2
    (-1.0, 0.0, -1.0, 0.0),  # m0 < 0 with a positive variance of m / m0
    (0.0, 0.0, 1.0, 0.0),
    (1.0, 0.0, -1.0, 0.0),  # a negative variance
])
def test_array_solve_defers_atoms_and_infeasible_rows(row):
    moments = np.array([(1.0, 0.0, 1.0, 0.0), row])
    assert solve_two_point_array(moments) is None
    assert solve_two_point_array(moments[:1]) is not None


def _hex(values):
    return [x.hex() for x in np.asarray(values, dtype=np.float64).ravel().tolist()]


def _array_vs_loop(spec, split):
    """chain_moment_array's bits, or None where it declines the split, and the loop's bits."""
    got = chain_moment_array(spec, split)
    loop = _hex(reduced_moment_chain(spec, split))
    if got is None:
        return None, loop
    assert got.shape == (spec.n, 4)
    return _hex(got), loop


def _assert_rule_is_the_per_chain_rule(monkeypatch, spec, split):
    """build_rule's rule, or its error, is the per-chain build's bit for bit."""
    def build():
        try:
            rule = build_rule(spec, split)
        except Exception as exc:  # the type and message are compared
            return type(exc), str(exc)
        return rule.nodes.tobytes(), rule.weights.tobytes()

    rule = build()
    monkeypatch.setattr(assembly, "ARRAY_MIN_N", math.inf)
    per_chain = build()
    monkeypatch.undo()
    assert rule == per_chain


def _seeded_splits(spec, seed):
    """The uniform split, and seeded random ones, balanced and compensated."""
    n, m_1 = spec.n, spec.m_1
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.5, 1.5, n)
    balanced = MassSplit(tuple(t * n / t.sum() * m_1 / n))
    return [
        default_split(spec),
        balanced,
        MassSplit(tuple(rng.uniform(0.5, 1.5, n) * m_1 / n), compensation=True),
        MassSplit(tuple(rng.uniform(0.9, 1.1, n) * m_1 / n), compensation=True),
    ]


@pytest.mark.parametrize("region, n", [
    *((region, n) for region in Region for n in (ARRAY_MIN_N, 33, 128)),
    (Region.CUBE, 512),
    # masses near the least normal float: 2^shift itself would overflow
    (Region.BALL_SECTOR, 320),
    (Region.SIMPLEX, 160),
])
def test_chain_moment_array_is_bit_identical_to_the_loop(region, n):
    spec = region_spec(RegionId(region, n))
    for split in _seeded_splits(spec, n):
        got, loop = _array_vs_loop(spec, split)
        assert got == loop


@pytest.mark.parametrize("n", [3, ARRAY_MIN_N, 128])
def test_chain_moment_array_falls_back_past_max_spread(monkeypatch, n):
    # least mass 1.0, so binary exponent 1; the largest has exponent 1 + spread
    spec = cube_spec(n)
    assert MAX_SPREAD == 9
    # the largest scaled mass of a 9-binade spread is 2^62 - 2^9
    for spread, top in [(9, math.nextafter(2.0**10, 0)), (9, 2.0**9),
                        (10, 2.0**10), (10, 1.5 * 2.0**10)]:
        assert math.frexp(top)[1] - math.frexp(1.0)[1] == spread
        masses = [1.0] * n
        masses[n // 2] = top
        masses[-1] = math.nextafter(1.0, 2.0)
        split = MassSplit(masses, True)
        got, loop = _array_vs_loop(spec, split)
        assert (got is None) == (spread > 9)
        assert got is None or got == loop
        _assert_rule_is_the_per_chain_rule(monkeypatch, spec, split)


def test_chain_moment_array_falls_back_on_a_subnormal_mass(monkeypatch):
    spec = cube_spec(ARRAY_MIN_N)
    masses = np.linspace(1.0, 3.0, ARRAY_MIN_N) * sys.float_info.min
    # the least normal float takes the array path, a subnormal mass the loop
    for least, subnormal in [(sys.float_info.min, False), (5e-324, True),
                             (sys.float_info.min / 3, True)]:
        masses[1] = least
        split = MassSplit(masses, True)
        got, loop = _array_vs_loop(spec, split)
        assert (got is None) == subnormal
        assert got is None or got == loop
        _assert_rule_is_the_per_chain_rule(monkeypatch, spec, split)


def test_chain_moment_array_prefix_sums_round_as_fsum():
    # masses one ulp apart, whose prefix sums fall on ties and just off them
    n = 64
    spec = cube_spec(n)
    rng = np.random.default_rng(64)
    for _ in range(50):
        ulps = rng.integers(0, 4, n)
        masses = [math.ldexp(float(2**52 + u), -58) for u in ulps.tolist()]
        got, loop = _array_vs_loop(spec, MassSplit(masses, compensation=True))
        assert got == loop


def _error(call, *args):
    try:
        call(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return None


SPLIT_CASES = ["short", "long", "zero", "negative", "nan", "inf", "overflowing sum", "unbalanced"]


def _bad_split(spec, case, compensation):
    """A split of `spec` broken as `case` says, or an unbalanced one."""
    n = spec.n
    masses = [spec.m_1 / n] * n
    if case == "short":
        masses = masses[:-1]
    elif case == "long":
        masses.append(masses[0])
    elif case == "zero":
        masses[3] = 0.0
    elif case == "negative":
        masses[3] = -masses[3]
    elif case == "nan":
        masses[3] = math.nan
    elif case == "inf":
        masses[3] = math.inf
    elif case == "overflowing sum":
        masses = [1e307] * n
    else:
        masses[3] *= 1.5
    return MassSplit(masses, compensation)


@pytest.mark.parametrize("compensation", [False, True])
@pytest.mark.parametrize("case", SPLIT_CASES)
def test_chain_moment_array_rejects_splits_as_the_loop_does(case, compensation):
    # the kernel declines every split the loop rejects, and build_rule raises
    # the loop's error on both sides of ARRAY_MIN_N
    for n in (ARRAY_MIN_N - 1, ARRAY_MIN_N):
        spec = cube_spec(n)
        split = _bad_split(spec, case, compensation)
        expected = _error(reduced_moment_chain, spec, split)
        if case == "unbalanced" and compensation:
            assert expected is None
            assert chain_moment_array(spec, split) is not None
        else:
            assert expected is not None and expected[0] is InvalidSplitError
            assert chain_moment_array(spec, split) is None
        assert _error(build_rule, spec, split) == expected


OVERFLOWING = [
    (1e102, "chain moment m3 of chain 2 overflows float64 (c_mid^3 with c_mid = -1e+103)"),
    (1e308, "chain moment m1 of chain 1 overflows float64 (c_n = inf)"),
]


@pytest.mark.parametrize("m_xyz, message", OVERFLOWING)
def test_overflowing_chain_moments_are_named(m_xyz, message):
    spec = SymmetricMomentSpec(
        n=3, m_1=1.0, m_x=0.0, m_xx=0.4, m_xy=0.2, m_xxx=0.3, m_xxy=0.1, m_xyz=m_xyz
    )
    for call in (lambda: chain_moments(spec), lambda: build_rule(spec)):
        with pytest.raises(InvalidMomentSpecError) as info:
            call()
        assert str(info.value) == message
