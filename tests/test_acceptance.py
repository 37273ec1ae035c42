"""Acceptance criteria, one test per criterion with a printed verdict line.

Each criterion runs at its stated tolerance; the printed line reports the
measured figure next to the bound so the margin is visible in `pytest -s`
output.
"""

import math
import time
import zlib

import numpy as np

from symcub import (
    MassSplit,
    NodeClass,
    Region,
    RegionId,
    build_rule,
    check_exactness,
    classify_nodes,
    compare_to_reference,
    classify_nodes as _classify,
    degree4_nonexactness,
    reduced_moment_chain,
    region_spec,
    solve_two_point,
)
from symcub.reference import load_reference_rule, table_spec
from reference_helpers import Feasibility, hankel_feasibility

ALL_REGIONS = list(Region)


def _verdict(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _rule_for_table(name: str):
    entry = table_spec(name)
    spec = region_spec(RegionId(entry.region, entry.dim))
    split = MassSplit.from_t(entry.t_values, spec, compensation=entry.compensation)
    return build_rule(spec, split), spec


def _table_deviation(name: str):
    rule, _ = _rule_for_table(name)
    diff = compare_to_reference(rule, load_reference_rule(name))
    return rule, max(diff.max_node_distance, diff.max_weight_deviation)


def _random_feasible_split(spec, rng, compensation=False, scale=1.0):
    for _ in range(500):
        t = rng.uniform(0.55, 1.45, spec.n)
        t *= spec.n / t.sum()
        masses = tuple(t * spec.m_1 / spec.n * scale)
        split = MassSplit(masses, compensation=compensation)
        chain = reduced_moment_chain(spec, split)
        if all(hankel_feasibility(*m) is Feasibility.POSITIVE_DEFINITE for m in chain):
            return split
    raise RuntimeError("no feasible split found")


def test_criterion_1_simplex_table_reproduction():
    start = time.perf_counter()
    _, dev1 = _table_deviation("table1")
    rule3, dev3 = _table_deviation("table3")
    rule3i, dev3i = _table_deviation("table3_interior")
    elapsed = time.perf_counter() - start

    # exact boundary placements of the t = (93/85, 378/391, 108/115) rule
    centroid_dev = max(abs(x - 1 / 3) for x in rule3.nodes[0])
    boundary_dev = abs(rule3.nodes[2][2])
    interior = classify_nodes(rule3i, RegionId(Region.SIMPLEX, 3), tol=1e-9)
    worst = max(dev1, dev3, dev3i)
    ok = (
        worst <= 5e-9
        and centroid_dev <= 1e-12
        and boundary_dev <= 1e-12
        and interior.interior == 6
        and elapsed < 0.25
    )
    _verdict(
        1,
        ok,
        f"tables 1/3/3-interior reproduced (max dev {worst:.2e}, centroid dev "
        f"{centroid_dev:.1e}, boundary dev {boundary_dev:.1e}, {elapsed * 1e3:.1f} ms)",
    )


def test_criterion_2_simplex4_and_compensation():
    _, dev2 = _table_deviation("table2")
    rule4, dev4 = _table_deviation("table4")
    spec4 = region_spec(RegionId(Region.SIMPLEX, 4))
    residual = spec4.m_1 - math.fsum(rule4.metadata["masses"])
    w9 = rule4.weights[-1]
    total = math.fsum(rule4.weights)
    # the published ninth weight, -49/80, is on the t-parameter scale and
    # inconsistent with sum(w) = 1/24; the residual mass -49/7680 is used
    ok = (
        dev2 <= 5e-9
        and dev4 <= 5e-9
        and len(rule4) == 9
        and abs(w9 - residual) <= 1e-16
        and abs(w9 + 49 / 7680) <= 1e-12
        and abs(total - 1 / 24) <= 1e-12
    )
    _verdict(
        2,
        ok,
        f"table 2 dev {dev2:.2e}, table 4 dev {dev4:.2e}, w9 = {w9:.10f} "
        f"(residual mass), sum(w) - 1/24 = {total - 1 / 24:.2e}",
    )


def test_criterion_3_sector_tables():
    _, dev6 = _table_deviation("table6")
    _, dev7 = _table_deviation("table7")
    rule8, dev8 = _table_deviation("table8")
    classes = classify_nodes(rule8, RegionId(Region.BALL_SECTOR, 4), tol=1e-9)
    worst = max(dev6, dev7, dev8)
    ok = worst <= 5e-9 and classes.interior == len(rule8)
    _verdict(
        3,
        ok,
        f"tables 6/7/8 reproduced (max dev {worst:.2e}); table 8 all "
        f"{classes.interior} nodes interior at tol 1e-9",
    )


def test_criterion_4_exactness_sweep():
    start = time.perf_counter()
    worst = 0.0
    rules = 0
    for region in ALL_REGIONS:
        for n in range(2, 9):
            spec = region_spec(RegionId(region, n))
            rng = np.random.default_rng(zlib.crc32(f"{region.value}:{n}".encode()))
            bound = 1e-12 * spec.moment_scale  # the `generate` gate
            for _ in range(100):
                split = _random_feasible_split(spec, rng)
                rule = build_rule(spec, split)
                report = check_exactness(rule, spec)
                worst = max(worst, report.max_abs_error / bound)
                rules += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed < 10.0 and rules == len(ALL_REGIONS) * 7 * 100
    _verdict(
        4,
        ok,
        f"{rules} rules over n=2..8, all regions; worst error at "
        f"{worst:.2e} of the 1e-12*max|moment| bound; {elapsed:.2f} s",
    )


def test_criterion_5_degree3_sharpness():
    worst_margin = math.inf
    for region in ALL_REGIONS:
        for n in (2, 3, 4):
            rid = RegionId(region, n)
            spec = region_spec(rid)
            witness = degree4_nonexactness(build_rule(spec), rid)
            if witness is None:
                _verdict(5, False, f"no degree-4 witness for {region.value} n={n}")
            _, error = witness
            worst_margin = min(worst_margin, error / (1e-6 * spec.m_1))
    _verdict(
        5,
        worst_margin > 1.0,
        f"degree-4 witness found for every default rule (n=2..4, all regions); "
        f"smallest error is {worst_margin:.1e}x the 1e-6*L(1) threshold",
    )


def test_criterion_6_one_dimensional_solver_oracle():
    # nodes in [-2, 2] with a 0.2 separation floor, weights in [0.1, 2]:
    # the floors keep the recovery well-conditioned in 64-bit arithmetic
    rng = np.random.default_rng(0)
    instances = 0
    worst_node = worst_weight = worst_identity = 0.0
    while instances < 10_000:
        t = rng.uniform(-2.0, 2.0, 2)
        w = rng.uniform(0.1, 2.0, 2)
        if abs(t[0] - t[1]) < 0.2:
            continue
        instances += 1
        order = np.argsort(t)[::-1]
        t, w = t[order], w[order]
        moments = [float(w[0] * t[0] ** j + w[1] * t[1] ** j) for j in range(4)]
        nodes, weights = solve_two_point(*moments)
        for got, expected in zip(nodes, t):
            worst_node = max(worst_node, abs(got - expected) / max(1.0, abs(expected)))
        for got, expected in zip(weights, w):
            worst_weight = max(worst_weight, abs(got - expected) / expected)
        hankel = moments[0] * moments[2] - moments[1] ** 2
        lhs = weights[0] * weights[1] * (nodes[0] - nodes[1]) ** 2
        worst_identity = max(worst_identity, abs(lhs - hankel) / hankel)
    ok = worst_node <= 1e-9 and worst_weight <= 1e-9 and worst_identity <= 1e-12
    _verdict(
        6,
        ok,
        f"10^4 round trips: node dev {worst_node:.2e} (<=1e-9), weight dev "
        f"{worst_weight:.2e} (<=1e-9), identity dev {worst_identity:.2e} (<=1e-12)",
    )


def test_criterion_7_node_counts():
    checked = 0
    for region in ALL_REGIONS:
        for n in (2, 3, 4, 6):
            spec = region_spec(RegionId(region, n))
            rng = np.random.default_rng(zlib.crc32(f"count:{region.value}:{n}".encode()))
            for _ in range(10):
                split = _random_feasible_split(spec, rng)
                assert len(build_rule(spec, split)) == 2 * n
                compensated = _random_feasible_split(spec, rng, compensation=True, scale=0.95)
                assert len(build_rule(spec, compensated)) == 2 * n + 1
                checked += 2
    _verdict(
        7,
        True,
        f"{checked} rules: 2n nodes without compensation, 2n+1 with",
    )


def test_criterion_8_classification_matches_published_prose():
    t1 = _classify(load_reference_rule("table1"), RegionId(Region.SIMPLEX, 3), 1e-9)
    t2 = _classify(load_reference_rule("table2"), RegionId(Region.SIMPLEX, 4), 1e-9)
    t3 = _classify(load_reference_rule("table3"), RegionId(Region.SIMPLEX, 3), 1e-9)
    t8 = _classify(load_reference_rule("table8"), RegionId(Region.BALL_SECTOR, 4), 1e-9)
    ok = (
        t1.classes[0] is NodeClass.EXTERIOR
        and t1.exterior == 1
        and t2.exterior == 3
        and t3.classes[0] is NodeClass.BOUNDARY
        and t3.classes[2] is NodeClass.BOUNDARY
        and t3.boundary == 2
        and t3.exterior == 0
        and t8.interior == len(load_reference_rule("table8"))
    )
    _verdict(
        8,
        ok,
        "table 1 row 1 exterior; table 2 has exactly 3 exterior nodes; "
        "table 3 rows 1 and 3 on the boundary; table 8 all interior",
    )
