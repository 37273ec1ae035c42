"""Node maps, compensation node, and full rule assembly."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from symcub import (
    CubatureError,
    CubatureRule,
    InconsistentAtomError,
    InfeasibleMomentError,
    InvalidSplitError,
    MassSplit,
    Region,
    RegionId,
    SymmetricMomentSpec,
    build_rule,
    check_exactness,
    compute_constants,
    cube_spec,
    default_split,
    reduced_moment_chain,
    region_spec,
    sector_spec,
    simplex_spec,
    solve_two_point,
)
from symcub import assembly, decomposition
from symcub.assembly import ARRAY_MIN_N
from symcub.reference import load_reference_rule
from symcub.decomposition import chain_moments, least_mass, map_nodes, map_nodes_array
from symcub.validation import compare_to_reference
from reference_helpers import moment_of_monomial, reference_node


def _row(k, t, consts):
    """The one row that map_nodes gives chain-k node value t, as a tuple."""
    return tuple(map_nodes([(k, (t,))], consts)[0].tolist())


def test_map_node_sum_chain():
    consts = compute_constants(simplex_spec(3))
    node = _row(1, 0.19388840, consts)
    assert node == pytest.approx((0.34240724,) * 3, abs=1e-8)


def test_map_node_difference_chain():
    consts = compute_constants(simplex_spec(3))
    node = _row(3, 0.54772256, consts)
    assert node == pytest.approx((0.60719461, 0.05947205, 0.16666667), abs=1e-8)


def test_map_node_middle_chain():
    # chain-2 node of the default simplex-3 rule: the larger root of
    # t^2 + (142/183) t - 369/610, derived by exact elimination
    b, c = Fraction(142, 183), Fraction(-369, 610)
    t = (-float(b) + math.sqrt(float(b * b - 4 * c))) / 2
    consts = compute_constants(simplex_spec(3))
    node = _row(2, t, consts)
    assert node == pytest.approx(
        (0.41353088165296, 0.41353088165296, 0.00627157002742), abs=5e-9
    )


def test_map_node_coordinate_multiplicities():
    spec = cube_spec(6)
    consts = compute_constants(spec)
    n = 6
    for k in range(2, n):
        node = _row(k, 0.37, consts)
        assert len(node) == n
        alpha = node[: n - k + 1]
        assert all(x == alpha[0] for x in alpha)
        assert node[n - k + 1 :][1:] == (consts.gamma,) * (k - 2)
    assert _row(1, 0.5, consts) == ((0.5 - consts.c_n) / n,) * n
    with pytest.raises(ValueError):
        _row(0, 0.1, consts)
    with pytest.raises(ValueError):
        _row(7, 0.1, consts)


@pytest.mark.parametrize("make", [simplex_spec, sector_spec, cube_spec])
@pytest.mark.parametrize("n", [2, 3, 5, 33])
@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("compensation", [False, True])
def test_map_nodes_array_is_bit_identical_to_map_nodes(make, n, j, compensation):
    consts = compute_constants(make(n))
    ts = np.random.default_rng(n * j).normal(0.0, 3.0, (n, j))
    ts[0, 0] = 0.0  # a zero node value, whose sign the maps must agree on too
    chains = [(k, tuple(row)) for k, row in enumerate(ts.tolist(), start=1)]
    if compensation:
        chains.append((n, (0.0,)))
    got, want = map_nodes_array(ts, consts, compensation), map_nodes(chains, consts)
    assert got.shape == (n * j + compensation, n)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    with pytest.raises(ValueError):
        map_nodes_array(ts[1:], consts)


def _layouts(n, rng):
    """Chains of two-node rows, atoms, three-value rows, a compensation row and a mix."""
    t = rng.normal(0.0, 3.0, (n, 3)).tolist()
    two = [(k, (t[k - 1][0], t[k - 1][1])) for k in range(1, n + 1)]
    return {
        "two": two,
        "atoms": [(k, (t[k - 1][2],)) for k in range(1, n + 1)],
        "three": [(k, (-1.0, 0.0, 1.0)) for k in range(1, n + 1)],
        "compensated": two + [(n, (0.0,))],
        "mixed": [(k, ts if k % 2 else ts[:1]) for k, ts in two] + [(n, (0.0,)), (1, ())],
    }


@pytest.mark.parametrize("make", [simplex_spec, sector_spec, cube_spec])
@pytest.mark.parametrize("n", [*range(2, ARRAY_MIN_N + 2), 48])
def test_map_nodes_is_bit_identical_to_reference_node(make, n):
    # every n of the per-chain path and the next, and one n of the array path
    consts = compute_constants(make(n))
    for name, chains in _layouts(n, np.random.default_rng(n)).items():
        got = map_nodes(chains, consts)
        want = np.array([reference_node(k, t, consts) for k, ts in chains for t in ts])
        want = want.reshape(-1, n)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert map_nodes([], consts).shape == (0, n)


def test_map_nodes_writes_rows_past_the_run_table_bound():
    big = compute_constants(cube_spec(600))
    rows = map_nodes([(k, (0.5, -0.5)) for k in range(1, 601)], big)
    assert rows.shape == (1200, 600) and 1200 > decomposition._RUNS_MAX_ROWS


def test_map_nodes_array_run_table_is_cached_read_only_and_bounded():
    table = decomposition._run_table
    assert table.cache_info().maxsize == 32
    table.cache_clear()
    keys = [(3, 2, False), (32, 2, True), (512, 2, True), (341, 3, False)]
    for n, j, compensation in keys:
        consts = compute_constants(cube_spec(n))
        map_nodes_array(np.zeros((n, j)), consts, compensation)
        runs, lead, lead1 = table(n, j, compensation)
        assert runs.shape == (3 * (n * j + compensation),)
        assert lead.shape == lead1.shape == (n, 1)
        for a in (runs, lead, lead1):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
    assert table.cache_info().currsize == table.cache_info().misses == len(keys)
    # more chains, or more rows, than the bound: built for the call alone
    map_nodes_array(np.zeros((1025, 1)), compute_constants(cube_spec(1025)))
    map_nodes_array(np.zeros((512, 3)), compute_constants(cube_spec(512)))
    assert table.cache_info().currsize == table.cache_info().misses == len(keys)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_map_node_dimension_comes_from_the_constants(n):
    consts = compute_constants(simplex_spec(n))
    for k in range(1, n + 1):
        assert len(_row(k, 0.25, consts)) == n


def test_compensation_node_simplex4():
    consts = compute_constants(simplex_spec(4))
    node = _row(4, 0.0, consts)
    assert node == pytest.approx((2 / 7, 2 / 7, 1 / 7, 1 / 7), abs=1e-15)


def test_compensation_node_simplex3():
    consts = compute_constants(simplex_spec(3))
    assert _row(3, 0.0, consts) == pytest.approx((1 / 3, 1 / 3, 1 / 6), abs=1e-15)


def test_compensation_node_cube3():
    # c_mid = 0 and gamma = 1/2 put the compensation node at the center
    consts = compute_constants(cube_spec(3))
    assert _row(3, 0.0, consts) == pytest.approx((0.5, 0.5, 0.5), abs=1e-14)


def test_assembled_rule_matches_reference_table1():
    rule = build_rule(simplex_spec(3), region_label="simplex")
    diff = compare_to_reference(rule, load_reference_rule("table1"))
    assert diff.max_node_distance <= 5e-9
    assert diff.max_weight_deviation <= 5e-9


def test_assembled_rule_matches_reference_table6():
    rule = build_rule(sector_spec(3))
    diff = compare_to_reference(rule, load_reference_rule("table6"))
    assert diff.passed


def test_weight_passthrough():
    spec = sector_spec(4)
    consts = compute_constants(spec)
    split = default_split(spec)
    expected = []
    for moments in reduced_moment_chain(spec, split):
        expected.extend(solve_two_point(*moments)[1])
    rule = build_rule(spec, split)
    assert np.array_equal(rule.weights, expected)


@pytest.mark.parametrize("make", [simplex_spec, sector_spec, cube_spec])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_node_count_and_mass(make, n):
    spec = make(n)
    rule = build_rule(spec)
    assert len(rule) == 2 * n
    assert rule.total_weight() == pytest.approx(spec.m_1, rel=1e-12)


def test_compensated_rule_has_extra_node_and_conserves_mass():
    spec = simplex_spec(4)
    split = MassSplit.from_t(
        ["104/75", "3577/2775", "9947/8880", "49/60"], spec, compensation=True
    )
    rule = build_rule(spec, split)
    assert len(rule) == 9
    assert rule.nodes[-1] == pytest.approx((2 / 7, 2 / 7, 1 / 7, 1 / 7), abs=1e-15)
    assert rule.weights[-1] == pytest.approx(-49 / 7680, rel=1e-12)
    assert rule.total_weight() == pytest.approx(spec.m_1, rel=1e-12)


def test_rule_is_deterministic():
    spec = sector_spec(3)
    a = build_rule(spec)
    b = build_rule(spec)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)


def test_canonical_ordering():
    spec = simplex_spec(4)
    rule = build_rule(spec)
    # chain-major: the first two nodes come from the all-equal chain
    for node in rule.nodes[:2]:
        assert all(x == node[0] for x in node)
    # within a chain the larger one-dimensional node comes first; for the
    # sum chain that is the larger coordinate
    assert rule.nodes[0][0] > rule.nodes[1][0]


def test_structural_constraint_sum_of_coordinates():
    # every chain k >= 2 node satisfies x1 + ... + xn = -c_n
    spec = simplex_spec(5)
    consts = compute_constants(spec)
    rule = build_rule(spec)
    for node in rule.nodes[2:]:
        assert math.fsum(node) == pytest.approx(-consts.c_n, rel=1e-13)


def test_infeasible_split_reports_chain_and_bound():
    spec = simplex_spec(3)
    # chain 1 needs mu_1 > m1^2/m2 = (1/72)^2 / (32/4320) = 135/5184
    bad = MassSplit((0.02, (spec.m_1 - 0.02) / 2, (spec.m_1 - 0.02) / 2))
    with pytest.raises(InfeasibleMomentError) as info:
        build_rule(spec, bad)
    assert info.value.chain == 1
    assert info.value.mass_bound == pytest.approx(135 / 5184, rel=1e-9)
    assert "chain 1" in str(info.value)
    assert "mu_1" in str(info.value)


def test_rule_metadata():
    spec = simplex_spec(3)
    rule = build_rule(spec, default_split(spec), region_label="simplex")
    assert rule.metadata["region"] == "simplex"
    assert rule.metadata["compensation"] is False
    assert rule.metadata["masses"] == pytest.approx([1 / 18] * 3)
    consts = compute_constants(spec)
    assert rule.metadata["constants"] == {
        "c_n": consts.c_n, "c_mid": consts.c_mid, "gamma": consts.gamma
    }


def test_exactness_by_direct_summation_n2():
    # order-3 check for every monomial in two variables, done longhand
    spec = simplex_spec(2)
    rule = build_rule(spec)
    for exps in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]:
        quad = math.fsum(
            w * node[0] ** exps[0] * node[1] ** exps[1]
            for node, w in zip(rule.nodes, rule.weights)
        )
        assert quad == pytest.approx(moment_of_monomial(spec, exps), abs=1e-15)


# ---------------------------------------------------------------------------
# The array-native assembly against a rule built one node at a time.


def _per_node_reference(spec, split):
    """Nodes and weights built row by row from the block formulas, as tuples."""
    consts = compute_constants(spec)
    nodes, weights = [], []
    chain = reduced_moment_chain(spec, split)
    for k, moments in enumerate(chain, start=1):
        for t, w in zip(*solve_two_point(*moments)):
            nodes.append(reference_node(k, t, consts))
            weights.append(w)
    if split.compensation:
        nodes.append(reference_node(spec.n, 0.0, consts))
        weights.append(spec.m_1 - math.fsum(split.masses))
    return np.array(nodes).reshape(len(nodes), spec.n), np.array(weights)


def _split(spec, kind, rng):
    n = spec.n
    if kind == "default":
        return default_split(spec)
    t = rng.uniform(0.9, 1.1, n)
    if kind == "random":
        t *= n / t.sum()
        return MassSplit.from_t(list(t), spec)
    return MassSplit.from_t(list(t), spec, compensation=True)


def _assert_matches_reference(spec, split):
    rule = build_rule(spec, split)
    nodes, weights = _per_node_reference(spec, split)
    assert rule.nodes.shape == nodes.shape
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, weights)
    return rule


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 4, 8, ARRAY_MIN_N - 1, ARRAY_MIN_N, 33, 64, 128])
@pytest.mark.parametrize("kind", ["default", "random", "compensated"])
def test_assembly_is_bit_identical_to_per_node_reference(region, n, kind):
    # n < ARRAY_MIN_N solves chain by chain, larger n solves and maps all at once
    spec = region_spec(RegionId(region, n))
    _assert_matches_reference(spec, _split(spec, kind, np.random.default_rng(n)))


def test_assembly_is_bit_identical_to_per_node_reference_cube512():
    spec = cube_spec(512)
    rule = _assert_matches_reference(
        spec, _split(spec, "compensated", np.random.default_rng(512))
    )
    assert rule.nodes.shape == (1025, 512)


@pytest.mark.parametrize(
    "region, n",
    [(Region.SIMPLEX, n) for n in (101, 120, 128, 160)]
    + [(Region.BALL_SECTOR, n) for n in (192, 256, 300)],
)
def test_tiny_mass_rules_keep_2n_rows_and_bits(region, n):
    # L(1) < 1e-150, so m0*m2 and m1^2 of a chain underflow; each chain is
    # solved on m / m0, so none reads as an atom
    spec = region_spec(RegionId(region, n))
    rule = _assert_matches_reference(spec, default_split(spec))
    assert len(rule) == 2 * n
    assert check_exactness(rule, spec).max_rel_error <= 1e-13


def _orbit_spec(n):
    """The point (0, ..., 0, 0.75) symmetrised: chain 1 is a single atom."""
    return SymmetricMomentSpec(
        n=n, m_1=1.0, m_x=0.75 / n, m_xx=0.5625 / n, m_xy=0.0, m_xxx=0.421875 / n,
        m_xxy=0.0, m_xyz=0.0,
    )


_SCALE_CASES = {
    "simplex-3": simplex_spec(3),
    "sector-4": sector_spec(4),
    "cube-8": cube_spec(8),
    "custom-3": SymmetricMomentSpec(
        n=3, m_1=1.0, m_x=0.5, m_xx=0.4, m_xy=0.2, m_xxx=0.3, m_xxy=0.1, m_xyz=0.05
    ),
    "orbit-3": _orbit_spec(3),
    # the same orbit at the least n of the array path: its atom takes the per-chain path
    f"orbit-{ARRAY_MIN_N}": _orbit_spec(ARRAY_MIN_N),
}


@pytest.mark.parametrize("name", list(_SCALE_CASES))
def test_rules_scale_exactly_with_the_functional(name):
    # L -> 2^j L scales every moment exactly, so the nodes stay and the
    # weights scale by 2^j bit for bit, however small or large L(1) gets
    spec = _SCALE_CASES[name]
    rule = _assert_matches_reference(spec, default_split(spec))
    assert len(rule) == (2 * spec.n - 1 if name.startswith("orbit") else 2 * spec.n)
    for j in (-900, -600, -300, 300, 600, 900):
        got = build_rule(spec.ldexp(j))
        assert np.array_equal(got.nodes, rule.nodes)
        assert np.array_equal(got.weights, np.ldexp(rule.weights, j))


def test_rule_arrays_are_read_only():
    rule = build_rule(sector_spec(4), MassSplit(default_split(sector_spec(4)).masses, True))
    assert rule.nodes.dtype == np.float64 and rule.weights.dtype == np.float64
    assert rule.node_array is rule.nodes and rule.weight_array is rule.weights
    with pytest.raises(ValueError):
        rule.nodes[0, 0] = 1.0
    with pytest.raises(ValueError):
        rule.weights[0] = 1.0
    with pytest.raises(ValueError):
        rule.nodes[-1] = 0.0


def test_rule_from_sequences_validates_shapes():
    rule = CubatureRule(dim=2, nodes=((0.0, 1.0), (1.0, 0.0)), weights=(0.5, 0.5))
    assert rule.nodes.shape == (2, 2) and len(rule) == 2
    assert CubatureRule(dim=3, nodes=(), weights=()).nodes.shape == (0, 3)
    with pytest.raises(ValueError):
        CubatureRule(dim=3, nodes=((0.0, 1.0),), weights=(1.0,))
    with pytest.raises(ValueError):
        CubatureRule(dim=2, nodes=((0.0, 1.0),), weights=(1.0, 2.0))


def test_rule_takes_float64_arrays_over_and_converts_the_rest():
    # a float64 array, contiguous or not, is kept without a copy and marked
    # read-only; lists and other dtypes are converted once to float64
    nodes = np.arange(12.0).reshape(4, 3)[:, ::2]
    weights = np.arange(8.0)[::2]
    assert not nodes.flags.c_contiguous and not weights.flags.c_contiguous
    rule = CubatureRule(dim=2, nodes=nodes, weights=weights)
    assert rule.nodes is nodes and rule.weights is weights
    assert not nodes.flags.writeable and not weights.flags.writeable
    for other in (
        CubatureRule(dim=2, nodes=nodes.tolist(), weights=weights.tolist()),
        CubatureRule(dim=2, nodes=nodes.astype(np.float32), weights=weights.astype(">f8")),
    ):
        assert other.nodes.dtype == np.float64 and other.weights.dtype == np.float64
        assert np.array_equal(other.nodes, nodes) and np.array_equal(other.weights, weights)
        assert not other.nodes.flags.writeable and not other.weights.flags.writeable
    with pytest.raises(ValueError):
        CubatureRule(dim=3, nodes=nodes, weights=weights)
    with pytest.raises(ValueError):
        CubatureRule(dim=2, nodes=nodes, weights=weights[1:])


def test_infeasible_middle_chain_reports_chain_and_bound():
    # every middle chain: the error's mass bound is the search's least mass
    # over an unbounded node interval, bit for bit
    # n >= ARRAY_MIN_N finds the infeasible chain in the array solve and
    # falls back to the per-chain solve, which reports it
    for region, n in itertools.product(Region, (4, 6, 8, ARRAY_MIN_N, 64)):
        spec = region_spec(RegionId(region, n))
        consts = compute_constants(spec)
        default = default_split(spec).masses
        moments = chain_moments(spec)
        for k in range(2, n):
            prefix = default[: k - 1]
            m1, m2, m3 = moments(k, spec.m_1 - math.fsum(prefix))
            bound = least_mass(m1, m2, m3, -math.inf, math.inf)
            # c_mid = 0 (the cube) zeroes m1, so any positive mass is feasible
            mass = 0.5 * bound if bound > 0 else 1e-3 * default[k - 1]
            tail = (spec.m_1 - math.fsum(prefix) - mass) / (n - k)
            split = MassSplit(prefix + (mass,) + (tail,) * (n - k))
            if bound == 0.0:
                assert consts.c_mid == 0.0
                build_rule(spec, split)
                continue
            with pytest.raises(InfeasibleMomentError) as info:
                build_rule(spec, split)
            assert info.value.chain == k
            assert info.value.mass_bound == bound
            assert f"mu_{k}" in str(info.value)


def _first_chain_error(spec, split):
    """The chain index and error of the first chain that reduced_moment_chain's loop cannot solve."""
    for k, moments in enumerate(reduced_moment_chain(spec, split), start=1):
        try:
            solve_two_point(*moments)
        except (InfeasibleMomentError, InconsistentAtomError) as exc:
            return k, moments, exc
    return None


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [3, 5, ARRAY_MIN_N - 1])
def test_per_chain_build_keeps_the_infeasible_chain_error(region, n):
    # the per-chain build walks the chain moments itself: the first failing
    # chain, its Hankel value and its mass bound are those of the moment loop
    spec = region_spec(RegionId(region, n))
    m_1 = spec.m_1
    for k in (1, 2, n - 1):
        masses = [m_1 / n] * n
        masses[k - 1] *= 1e-6
        masses[-1] += m_1 / n - masses[k - 1]
        split = MassSplit(masses)
        expected = _first_chain_error(spec, split)
        if expected is None:
            build_rule(spec, split)
            continue
        chain, (m0, m1, m2, m3), cause = expected
        with pytest.raises(InfeasibleMomentError) as info:
            build_rule(spec, split)
        assert info.value.chain == chain
        assert info.value.hankel == cause.hankel
        assert info.value.mass_bound == least_mass(m1, m2, m3)
        assert str(info.value) == (
            f"chain {chain} is infeasible (m0*m2 - m1^2 = {cause.hankel:.6e}); "
            f"feasibility needs mu_{chain} > {least_mass(m1, m2, m3):.9g}"
        )


def test_per_chain_build_keeps_the_inconsistent_atom_error():
    # the orbit of (0, 0, 0.75) with L(x1^2 x2) moved off 0: chain 1 keeps zero
    # variance (n = 3 drops L(x1^2 x2) from c_n) but its third moment no longer fits
    spec = SymmetricMomentSpec(
        n=3, m_1=1.0, m_x=0.25, m_xx=0.1875, m_xy=0.0, m_xxx=0.140625, m_xxy=0.01, m_xyz=0.0
    )
    chain, moments, cause = _first_chain_error(spec, default_split(spec))
    assert chain == 1 and isinstance(cause, InconsistentAtomError)
    with pytest.raises(InconsistentAtomError) as info:
        build_rule(spec)
    assert str(info.value) == str(cause) == f"rank-1 moments are not a point mass: m = {moments}"


def test_compensated_cube512_build_allocates_about_one_node_array():
    # the node array is written in place: no per-node objects and no copy
    spec = cube_spec(512)
    split = _split(spec, "compensated", np.random.default_rng(0))
    tracemalloc.start()
    try:
        rule = build_rule(spec, split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rule.nodes.shape == (1025, 512)
    assert peak <= 1.5 * rule.nodes.nbytes


# ---------------------------------------------------------------------------
# Which path build_rule takes, and its one fallback.

_SPIED = ("reduced_moment_chain", "chain_moment_array", "_build_per_chain")


def _spy_build(monkeypatch, spec, split):
    """The calls of each of _SPIED in one build_rule(spec, split), and the type of its error."""
    calls = dict.fromkeys(_SPIED, 0)
    for name in _SPIED:
        def spy(*args, name=name, call=getattr(assembly, name)):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(assembly, name, spy)
    try:
        build_rule(spec, split)
        error = None
    except CubatureError as exc:
        error = type(exc)
    finally:
        monkeypatch.undo()
    return calls, error


def _path_cases(n):
    """(spec, split, whether the array path declines it, the build's error) by name."""
    spec = cube_spec(n)
    m_1 = spec.m_1
    spread = [m_1 / n] * n
    spread[n // 2] *= 2.0**10
    unbalanced = [m_1 / n] * n
    unbalanced[0] *= 1.5
    # the cube's c_mid = 0 keeps every middle chain feasible; the simplex's
    # chain 2 gets half the least mass that makes it feasible
    simplex = simplex_spec(n)
    m1, m2, m3 = chain_moments(simplex)(2, simplex.m_1 - simplex.m_1 / n)
    mass = 0.5 * least_mass(m1, m2, m3)
    infeasible = [simplex.m_1 / n, mass]
    infeasible += [(simplex.m_1 - simplex.m_1 / n - mass) / (n - 2)] * (n - 2)
    orbit = _orbit_spec(n)
    return {
        "uniform": (spec, default_split(spec), False, None),
        "compensated": (spec, _split(spec, "compensated", np.random.default_rng(n)), False, None),
        "10-binade spread": (spec, MassSplit(spread, True), True, None),
        "short": (spec, MassSplit([m_1 / n] * (n - 1)), True, InvalidSplitError),
        "unbalanced": (spec, MassSplit(unbalanced), True, InvalidSplitError),
        "infeasible": (simplex, MassSplit(infeasible), True, InfeasibleMomentError),
        "atom": (orbit, default_split(orbit), True, None),
    }


@pytest.mark.parametrize("n", [3, 8, ARRAY_MIN_N - 1])
def test_small_builds_walk_the_chain_moments_once(monkeypatch, n):
    for name, (spec, split, _, error) in _path_cases(n).items():
        calls, got = _spy_build(monkeypatch, spec, split)
        assert got is error, name
        expected = {"reduced_moment_chain": 1, "chain_moment_array": 0, "_build_per_chain": 1}
        assert calls == expected, name


@pytest.mark.parametrize("n", [ARRAY_MIN_N, 64])
def test_large_builds_fall_back_only_where_the_array_path_declines(monkeypatch, n):
    for name, (spec, split, declined, error) in _path_cases(n).items():
        calls, got = _spy_build(monkeypatch, spec, split)
        assert got is error, name
        expected = {"reduced_moment_chain": int(declined), "chain_moment_array": 1,
                    "_build_per_chain": int(declined)}
        assert calls == expected, name
