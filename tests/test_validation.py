"""Exactness reports, degree-4 probes, node classification, rule diffs."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from symcub import (
    CubatureRule,
    DimensionMismatchError,
    ExactnessReport,
    NodeClass,
    Region,
    RegionId,
    UnmatchedRuleError,
    build_rule,
    check_exactness,
    classify_nodes,
    compare_to_reference,
    cube_spec,
    degree4_nonexactness,
    region_monomial_moment,
    region_spec,
    sector_spec,
    simplex_spec,
)
from symcub.cli import main
from symcub.reference import load_reference_rule, numbered_table_names, regenerate_table
from symcub.ruleio import write_rule
from symcub.moments import PATTERN_TO_FIELD
from symcub.validation import (
    _degree4_targets,
    _monomial_table,
    _probe_table,
    node_class,
    node_margins,
)
from reference_helpers import moment_of_monomial, per_call_exactness


def monomial_exponents(n, max_degree=3):
    """Reference: every exponent vector of length n and total degree <= max_degree."""
    for degree in range(max_degree + 1):
        for positions in itertools.combinations_with_replacement(range(n), degree):
            exps = [0] * n
            for p in positions:
                exps[p] += 1
            yield tuple(exps)


def test_monomial_enumeration_count():
    # C(n + 3, 3) exponent vectors of degree <= 3
    for n in [2, 3, 8]:
        count = sum(1 for _ in monomial_exponents(n))
        assert count == math.comb(n + 3, 3)


def test_reference_table1_exactness_within_print_precision():
    report = check_exactness(load_reference_rule("table1"), simplex_spec(3))
    assert report.max_abs_error <= 1e-8


def test_fresh_rule_exactness():
    spec = simplex_spec(3)
    report = check_exactness(build_rule(spec), spec)
    assert report.max_abs_error <= 1e-13
    assert report.per_degree_max[0] <= 1e-14  # mass conservation
    assert len(report.per_degree_max) == 4
    assert len(report.worst_monomial) == 3


def test_mass_conservation_any_rule():
    for make, n in [(simplex_spec, 3), (sector_spec, 4), (cube_spec, 2)]:
        spec = make(n)
        rule = build_rule(spec)
        assert abs(rule.total_weight() - spec.m_1) <= 1e-14


def test_wrong_spec_shows_large_error():
    rule = build_rule(cube_spec(3))
    report = check_exactness(rule, simplex_spec(3))
    assert report.max_abs_error > 1e-3


def test_dimension_mismatch():
    rule = build_rule(cube_spec(3))
    with pytest.raises(DimensionMismatchError):
        check_exactness(rule, cube_spec(4))


def test_sampled_exactness_above_dim8():
    # above n = 8 the probe covers all C(12, 3) monomials at once
    spec = simplex_spec(9)
    rule = build_rule(spec)
    report = check_exactness(rule, spec)
    assert report.monomial_count == 220
    assert report.max_abs_error <= 1e-13 * spec.moment_scale
    assert report.worst_monomial is None
    # the probe directions are fixed, so the check is reproducible
    assert check_exactness(rule, spec) == report


def test_degree4_witness_on_table1():
    rule = load_reference_rule("table1")
    region = RegionId(Region.SIMPLEX, 3)
    witness = degree4_nonexactness(rule, region)
    assert witness is not None
    exps, error = witness
    assert sum(exps) == 4
    assert error > 1e-5
    # the pure quartic probe alone already shows the defect
    x4 = np.array([node[0] ** 4 for node in rule.nodes]) @ np.array(rule.weights)
    assert abs(x4 - region_monomial_moment(region, (4, 0, 0))) > 1e-5


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_degree4_witness_for_default_rules(region, n):
    rid = RegionId(region, n)
    from symcub import region_spec

    spec = region_spec(rid)
    witness = degree4_nonexactness(build_rule(spec), rid)
    assert witness is not None
    exps, error = witness
    assert sum(exps) == 4
    assert error > 1e-6 * spec.m_1


def test_classify_rejects_negative_or_non_finite_tol():
    rule = build_rule(simplex_spec(3))
    rid = RegionId(Region.SIMPLEX, 3)
    # tol = -0.5 used to label all six nodes exterior
    for tol in (-0.5, -1e-12, math.inf, math.nan):
        with pytest.raises(ValueError):
            classify_nodes(rule, rid, tol=tol)
    assert classify_nodes(rule, rid, tol=0.0).interior == 5


def test_node_class_thresholds():
    # interior strictly above tol, exterior strictly below -tol or NaN
    tol = 1e-9
    assert node_class(math.nextafter(tol, math.inf), tol) is NodeClass.INTERIOR
    assert node_class(tol, tol) is NodeClass.BOUNDARY
    assert node_class(-tol, tol) is NodeClass.BOUNDARY
    assert node_class(math.nextafter(-tol, -math.inf), tol) is NodeClass.EXTERIOR
    assert node_class(math.nan, tol) is NodeClass.EXTERIOR
    assert node_class(0.0, 0.0) is NodeClass.BOUNDARY


def test_classify_table1():
    classification = classify_nodes(
        load_reference_rule("table1"), RegionId(Region.SIMPLEX, 3), tol=1e-9
    )
    assert classification.classes[0] is NodeClass.EXTERIOR
    assert classification.classes[1:] == (NodeClass.INTERIOR,) * 5
    assert classification.exterior == 1
    assert classification.positive_weights == 6


def test_classify_table2_three_exterior():
    classification = classify_nodes(
        load_reference_rule("table2"), RegionId(Region.SIMPLEX, 4), tol=1e-9
    )
    assert classification.exterior == 3
    flagged = [i for i, c in enumerate(classification.classes) if c is NodeClass.EXTERIOR]
    # outside mass on row 1, negative coordinates on rows 3 and 5
    assert flagged == [0, 2, 4]


def test_classify_table3_boundary_rows():
    classification = classify_nodes(
        load_reference_rule("table3"), RegionId(Region.SIMPLEX, 3), tol=1e-9
    )
    assert classification.classes[0] is NodeClass.BOUNDARY
    assert classification.classes[2] is NodeClass.BOUNDARY
    assert classification.boundary == 2
    assert classification.exterior == 0


def test_classify_table8_all_interior():
    classification = classify_nodes(
        load_reference_rule("table8"), RegionId(Region.BALL_SECTOR, 4), tol=1e-9
    )
    assert classification.interior == 8


def test_classify_counts_sum_to_rule_size():
    rule = load_reference_rule("table4")
    classification = classify_nodes(rule, RegionId(Region.SIMPLEX, 4))
    assert (
        classification.interior + classification.boundary + classification.exterior
        == len(rule)
    )
    assert classification.negative_weights == 1


def test_classification_is_permutation_equivariant():
    rule = load_reference_rule("table2")
    rid = RegionId(Region.SIMPLEX, 4)
    base = classify_nodes(rule, rid).classes
    rng = np.random.default_rng(5)
    for _ in range(5):
        permuted_nodes = tuple(
            tuple(np.asarray(node)[rng.permutation(4)]) for node in rule.nodes
        )
        permuted = CubatureRule(dim=4, nodes=permuted_nodes, weights=rule.weights)
        assert classify_nodes(permuted, rid).classes == base


def test_cube_classification():
    rid = RegionId(Region.CUBE, 3)
    rule = CubatureRule(
        dim=3,
        nodes=((0.5, 0.5, 0.5), (1.0, 0.5, 0.5), (1.2, 0.5, 0.5), (-0.1, 0.2, 0.3)),
        weights=(1.0, 1.0, 1.0, 1.0),
    )
    classes = classify_nodes(rule, rid).classes
    assert classes == (
        NodeClass.INTERIOR,
        NodeClass.BOUNDARY,
        NodeClass.EXTERIOR,
        NodeClass.EXTERIOR,
    )


def test_compare_to_reference_is_symmetric_and_order_insensitive():
    rule = build_rule(simplex_spec(3), region_label="simplex")
    reference = load_reference_rule("table1")
    shuffled = CubatureRule(
        dim=3,
        nodes=tuple(reversed(reference.nodes)),
        weights=tuple(reversed(reference.weights)),
    )
    forward = compare_to_reference(rule, shuffled)
    backward = compare_to_reference(shuffled, rule)
    assert forward.max_node_distance == pytest.approx(backward.max_node_distance, abs=1e-18)
    assert forward.max_weight_deviation == pytest.approx(
        backward.max_weight_deviation, abs=1e-18
    )
    assert forward.passed


def test_compare_rule_to_itself_is_zero():
    rule = build_rule(sector_spec(4))
    diff = compare_to_reference(rule, rule)
    assert diff.max_node_distance == 0.0
    assert diff.max_weight_deviation == 0.0


def test_compare_errors():
    a = build_rule(simplex_spec(3))
    b = build_rule(simplex_spec(4))
    with pytest.raises(DimensionMismatchError):
        compare_to_reference(a, b)
    truncated = CubatureRule(dim=3, nodes=a.nodes[:-1], weights=a.weights[:-1])
    with pytest.raises(UnmatchedRuleError):
        compare_to_reference(a, truncated)


def _assignment_diff(linear_sum_assignment, rule, reference):
    """Reference: the deviations under a minimum-cost assignment."""
    delta = rule.nodes[:, None, :] - reference.nodes[None, :, :]
    distance = np.sqrt((delta**2).sum(axis=2))
    rows, cols = linear_sum_assignment(distance)
    return (
        float(distance[rows, cols].max()),
        float(np.abs(rule.weights[rows] - reference.weights[cols]).max()),
    )


def _compare_pairs():
    for name in (*numbered_table_names(), "table3_interior"):
        yield regenerate_table(name), load_reference_rule(name)
    rng = np.random.default_rng(6)
    for region in Region:
        for n in [2, 3, 4, 5, 8, 16, 33, 64]:
            rule = build_rule(region_spec(RegionId(region, n)))
            for scale in [0.0, 1e-12, 1e-9, 1e-6]:
                perm = rng.permutation(len(rule))
                nodes = rule.nodes[perm] + scale * rng.standard_normal(rule.nodes.shape)
                weights = rule.weights[perm] + scale * rng.standard_normal(len(rule))
                yield rule, CubatureRule(dim=n, nodes=nodes, weights=weights)


def test_nearest_node_pairing_matches_the_assignment_solver():
    solver = pytest.importorskip("scipy.optimize").linear_sum_assignment
    for rule, other in _compare_pairs():
        for a, b in [(rule, other), (other, rule)]:
            diff = compare_to_reference(a, b)
            expected = _assignment_diff(solver, a, b)
            assert (diff.max_node_distance, diff.max_weight_deviation) == expected


def test_shared_nearest_node_does_not_match():
    p, q = np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.1, 0.2])
    e1 = np.array([1e-3, 0.0, 0.0])
    rule = CubatureRule(dim=3, nodes=np.array([p, p + e1, q]), weights=np.ones(3))
    other = CubatureRule(dim=3, nodes=np.array([p, q, q + e1]), weights=np.ones(3))
    diff = compare_to_reference(rule, other)
    assert diff.max_node_distance == np.inf
    assert diff.passed is False


def test_compare_to_reference_memory_is_bounded():
    rule = build_rule(cube_spec(128))
    shuffled = CubatureRule(dim=128, nodes=rule.nodes[::-1], weights=rule.weights[::-1])
    tracemalloc.start()
    try:
        diff = compare_to_reference(rule, shuffled)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert diff.max_node_distance == 0.0 and diff.max_weight_deviation == 0.0


# ---------------------------------------------------------------------------
# The gathered evaluation against a per-monomial reference.

def _reference_exactness(rule, spec):
    """Every monomial of degree <= 3, one exponent tuple at a time."""
    exps = list(monomial_exponents(spec.n))
    nodes, weights = rule.node_array, rule.weight_array
    approx = np.array([np.prod(nodes ** np.asarray(a), axis=1) @ weights for a in exps])
    exact = np.array([moment_of_monomial(spec, a) for a in exps])
    errors = np.abs(approx - exact)
    worst = int(np.argmax(errors))
    return exps[worst], float(errors[worst]), len(exps)


def _reference_degree4(rule, region):
    n = region.n
    candidates = []
    for i in range(n):
        candidates.append(tuple(4 if k == i else 0 for k in range(n)))
    for i, j in itertools.combinations(range(n), 2):
        candidates.append(tuple(2 if k in (i, j) else 0 for k in range(n)))
    nodes, weights = rule.node_array, rule.weight_array
    errors = np.array([
        abs(np.prod(nodes ** np.asarray(a), axis=1) @ weights
            - region_monomial_moment(region, a))
        for a in candidates
    ])
    worst = int(np.argmax(errors))
    return candidates[worst], float(errors[worst])


def _corrupted(rule, kind, rng):
    nodes = np.array(rule.node_array)
    weights = np.array(rule.weight_array)
    i = int(rng.integers(len(weights)))
    if kind == "weight":
        weights[i] *= 1.0 + 1e-6
    else:
        nodes[i, int(rng.integers(rule.dim))] += 1e-6
    return CubatureRule(
        dim=rule.dim, nodes=tuple(map(tuple, nodes.tolist())), weights=tuple(weights.tolist())
    )


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 16, 33])
@pytest.mark.parametrize("kind", ["clean", "weight", "coordinate"])
def test_gathered_evaluation_matches_per_monomial_reference(region, n, kind):
    rid = RegionId(region, n)
    spec = region_spec(rid)
    rule = build_rule(spec)
    if kind != "clean":
        rule = _corrupted(rule, kind, np.random.default_rng(n))
    scale = spec.moment_scale
    report = check_exactness(rule, spec)
    worst, error, count = _reference_exactness(rule, spec)
    assert report.monomial_count == count
    if n > 8:
        # the directional probe is a detector on the rule's own scale: it
        # reads roundoff on a clean rule and the size of a corruption
        if kind == "clean":
            assert report.max_abs_error <= 1e-13 * scale
        else:
            assert 0.1 * error <= report.max_abs_error <= 100 * error
    else:
        assert abs(report.max_abs_error - error) <= 1e-12 * max(error, scale)
        if error > 1e-12 * scale:
            assert report.worst_monomial == worst
        else:
            assert report.max_abs_error <= 1e-12 * scale
    witness = degree4_nonexactness(rule, rid)
    ref_monomial, ref_error = _reference_degree4(rule, rid)
    assert witness is not None
    assert sorted(witness[0]) == sorted(ref_monomial)
    assert witness[1] == pytest.approx(ref_error, rel=1e-9)


def _corner_corrupted(rule, spec, triple, eps=0.5):
    """The rule plus 8 nodes on the corners of {0, eps}^3 in coordinates
    `triple`, with weights (-1)^(3 - |s|) delta.  This third mixed
    difference changes only the moment of x_i x_j x_k, by eps^3 delta."""
    delta = 1e-3 * spec.m_1
    corners = np.array(list(itertools.product((0.0, eps), repeat=3)))
    extra = np.zeros((8, rule.dim))
    extra[:, list(triple)] = corners
    signs = (-1.0) ** (3 - (corners > 0).sum(axis=1))
    return CubatureRule(
        dim=rule.dim,
        nodes=np.vstack([rule.nodes, extra]),
        weights=np.concatenate([rule.weights, signs * delta]),
    )


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [16, 64])
def test_corner_corruption_of_one_cubic_monomial_is_rejected(tmp_path, capsys, region, n):
    # x_1 x_2 x_3 was not among the seven class representatives and 200
    # permutations of each that the former sampled check drew with seed 0,
    # so that check passed this rule at about 1e-16 x the moment scale
    spec = region_spec(RegionId(region, n))
    bad = _corner_corrupted(build_rule(spec), spec, (1, 2, 3))
    exps = [0] * n
    exps[1] = exps[2] = exps[3] = 1
    rule_sum = bad.weights @ np.prod(bad.nodes ** np.array(exps), axis=1)
    assert rule_sum - moment_of_monomial(spec, exps) == pytest.approx(0.125e-3 * spec.m_1)
    report = check_exactness(bad, spec)
    assert report.max_abs_error > 1e-8 * spec.moment_scale
    path = tmp_path / "corner.json"
    write_rule(bad, path)
    assert main(["verify", str(path), "--region", region.value]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("region", list(Region))
def test_empty_or_nan_rule_fails_the_probe(region):
    spec = region_spec(RegionId(region, 16))
    rule = build_rule(spec)
    empty = CubatureRule(dim=16, nodes=(), weights=())
    weights = np.array(rule.weights)
    weights[5] = np.nan
    nan_weight = CubatureRule(dim=16, nodes=rule.nodes, weights=weights)
    for bad in (empty, nan_weight):
        report = check_exactness(bad, spec)
        assert not report.max_abs_error <= 1e-8 * spec.moment_scale
        assert not report.max_rel_error <= 1e-8


def test_large_dimension_check_is_bounded():
    n = 512
    spec = cube_spec(n)
    rule = build_rule(spec)
    tracemalloc.start()
    try:
        report = check_exactness(rule, spec)
        witness = degree4_nonexactness(rule, RegionId(Region.CUBE, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert report.monomial_count == math.comb(515, 3)
    assert report.max_abs_error <= 1e-12 * spec.moment_scale
    assert witness is not None and sum(witness[0]) == 4


@pytest.mark.parametrize("region", list(Region))
def test_node_margins_rows_match_single_nodes(region):
    rule = build_rule(region_spec(RegionId(region, 5)))
    rid = RegionId(region, 5)
    rows = node_margins(rid, rule.node_array)
    for node, row in zip(rule.nodes, rows):
        assert np.array_equal(node_margins(rid, node), row)
    with pytest.raises(DimensionMismatchError):
        node_margins(rid, rule.node_array[:, :4])


def _check_variants(rule):
    """The rule, a corrupted copy and copies with a NaN coordinate and a NaN weight."""
    nodes, weights = np.array(rule.nodes), np.array(rule.weights)
    moved = nodes.copy()
    moved[1, 0] += 1e-3
    nan_node = nodes.copy()
    nan_node[2, 1] = np.nan
    nan_weight = weights.copy()
    nan_weight[0] = np.nan
    return {
        "clean": rule,
        "corrupted": CubatureRule(dim=rule.dim, nodes=moved, weights=weights * 1.01),
        "nan node": CubatureRule(dim=rule.dim, nodes=nan_node, weights=weights),
        "nan weight": CubatureRule(dim=rule.dim, nodes=nodes, weights=nan_weight),
    }


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", range(2, 9))
def test_cached_monomial_table_matches_per_call_tables(region, n):
    spec = region_spec(RegionId(region, n))
    for name, rule in _check_variants(build_rule(spec)).items():
        # repr compares every float bit for bit and NaN equal to NaN
        assert repr(check_exactness(rule, spec)) == repr(per_call_exactness(rule, spec)), name


def test_cached_tables_reject_writes():
    columns, moments, starts, exponents = _monomial_table(4)
    assert starts.tolist() == [0, 1, 5, 15] and len(columns) == len(exponents) == 35
    assert exponents[6] == (1, 1, 0, 0) and moments[6] == 3  # x1 x2: m_xy
    (quartic, pair, mass), pairs = _degree4_targets(RegionId(Region.CUBE, 4))
    assert (quartic, pair, mass) == (0.2, 1 / 9, 1.0)
    directions, sums = _probe_table(16)
    assert directions.shape == (16, 4) and len(sums) == 5
    for array in (columns, moments, starts, *pairs, directions, *sums):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_tables_are_built_once_per_n():
    # the same objects come back on every call, whichever n came between
    tables = {n: (_monomial_table(n) if n <= 8 else _probe_table(n)) for n in (3, 8, 9, 64)}
    for n in (64, 9, 8, 3):
        again = _monomial_table(n) if n <= 8 else _probe_table(n)
        assert all(a is b for a, b in zip(again, tables[n]))


def _per_call_check(rule, spec):
    # check_exactness as it was when each call built its own probe
    # directions, moment lookup table, worst exponents and degree maxima
    n = spec.n
    if n > 8:
        v = np.random.default_rng(0).standard_normal((n, 4))
        pad = np.zeros((1, 4))
        e2_terms = v * np.vstack([pad, np.cumsum(v, axis=0)[:-1]])
        e3 = (v * np.vstack([pad, np.cumsum(e2_terms, axis=0)[:-1]])).sum(axis=0)
        e1, e2, p2, p3 = v.sum(axis=0), e2_terms.sum(axis=0), (v**2).sum(axis=0), (v**3).sum(axis=0)
        targets = (
            np.full(4, spec.m_1),
            spec.m_x * e1,
            spec.m_xx * p2 + 2 * spec.m_xy * e2,
            spec.m_xxx * p3 + 3 * spec.m_xxy * (e1 * p2 - p3) + 6 * spec.m_xyz * e3,
        )
        y = rule.nodes @ v
        rel = np.empty((4, 4))
        for d, target in enumerate(targets):
            own = np.maximum(np.abs(rule.weights) @ np.abs(y**d), np.abs(target))
            rel[d] = np.abs(rule.weights @ y**d - target) / np.where(own > 0, own, 1.0)
        per_degree = spec.moment_scale * rel.max(axis=1)
        return ExactnessReport(
            max_abs_error=float(per_degree.max()),
            max_rel_error=float(rel.max()),
            worst_monomial=None,
            per_degree_max=tuple(per_degree.tolist()),
            monomial_count=math.comb(n + 3, 3),
        )
    columns = np.array([
        positions + (n,) * (3 - degree)
        for degree in range(4)
        for positions in itertools.combinations_with_replacement(range(n), degree)
    ])
    degree = (columns != n).sum(axis=1)
    distinct = degree - ((columns[:, 1:] == columns[:, :-1]) & (columns[:, 1:] != n)).sum(axis=1)
    bounds = tuple(np.searchsorted(degree, range(5)).tolist())
    padded = np.ones((len(rule), n + 1))
    padded[:, :n] = rule.nodes
    values = padded[:, columns[:, 0]] * padded[:, columns[:, 1]] * padded[:, columns[:, 2]]
    approx = values.T @ rule.weights
    table = np.zeros(16)
    for pattern, name in PATTERN_TO_FIELD.items():
        table[4 * sum(pattern) + len(pattern)] = getattr(spec, name)
    exact = table[4 * degree + distinct]
    abs_err = np.abs(approx - exact)
    scale = max(spec.m_1, float(np.abs(exact).max()))
    rel_err = abs_err / np.where(np.abs(exact) > 0, np.abs(exact), scale)
    worst = int(np.argmax(abs_err))
    return ExactnessReport(
        max_abs_error=float(abs_err[worst]),
        max_rel_error=float(rel_err.max()),
        worst_monomial=tuple(np.bincount(columns[worst], minlength=n + 1)[:n].tolist()),
        per_degree_max=tuple(float(abs_err[lo:hi].max()) for lo, hi in zip(bounds, bounds[1:])),
        monomial_count=len(columns),
    )


@pytest.mark.parametrize(
    "region, n",
    # simplex and sector moments underflow to 0 before n = 512
    [(region, n) for region in Region for n in [*range(2, 9), 9, 16, 33, 64]]
    + [(Region.SIMPLEX, 160), (Region.BALL_SECTOR, 320), (Region.CUBE, 512)],
)
def test_check_exactness_matches_the_per_call_code(region, n):
    spec = region_spec(RegionId(region, n))
    for name, rule in _check_variants(build_rule(spec)).items():
        # repr compares every float bit for bit and NaN equal to NaN
        assert repr(check_exactness(rule, spec)) == repr(_per_call_check(rule, spec)), name


def test_alternating_dimensions_match_fresh_tables():
    cases = []
    for n in (3, 8):
        rid = RegionId(Region.SIMPLEX, n)
        spec = region_spec(rid)
        for rule in _check_variants(build_rule(spec)).values():
            _monomial_table.cache_clear()
            _degree4_targets.cache_clear()
            fresh = repr((check_exactness(rule, spec), degree4_nonexactness(rule, rid)))
            cases.append((rule, spec, rid, fresh))
    for _ in range(3):
        for rule, spec, rid, fresh in cases[::2] + cases[1::2]:
            assert repr((check_exactness(rule, spec), degree4_nonexactness(rule, rid))) == fresh


@pytest.mark.parametrize("region", list(Region))
def test_nan_node_is_exterior(region):
    rid = RegionId(region, 3)
    rule = build_rule(region_spec(rid))
    nodes = np.array(rule.nodes)
    nodes[0, 1] = np.nan
    classification = classify_nodes(CubatureRule(dim=3, nodes=nodes, weights=rule.weights), rid)
    assert classification.classes[0] is NodeClass.EXTERIOR
    assert classification.classes[1:] == classify_nodes(rule, rid).classes[1:]
