"""Timing of the verify path on default cube rules.

The file name does not match `test_*.py`, so the test suite does not
collect it and timing noise cannot fail the suite.  Run it by path:

    python -m pytest benchmarks/bench_exactness.py --benchmark-json BENCH_exactness.json

`check_exactness` runs at n = 3 .. 512: n = 3 and 8 take the full
monomial enumeration; n = 32, 128 and 512 the directional probe.
`degree4_nonexactness`, `classify_nodes` and an in-process
`symcub verify --format json` of a JSON rule file run at n = 3, 8 and 32.
Rules and rule files are made outside the timed call.
"""

import pytest

from symcub import (
    Region,
    RegionId,
    build_rule,
    check_exactness,
    classify_nodes,
    cube_spec,
    degree4_nonexactness,
)
from symcub.cli import main
from symcub.ruleio import write_rule


@pytest.mark.parametrize("n", [3, 8, 32, 128, 512])
def test_check_exactness(benchmark, n):
    spec = cube_spec(n)
    rule = build_rule(spec)
    report = benchmark(check_exactness, rule, spec)
    assert report.max_abs_error <= 1e-12 * spec.moment_scale


@pytest.mark.parametrize("n", [3, 8, 32])
def test_degree4_nonexactness(benchmark, n):
    rule = build_rule(cube_spec(n))
    witness = benchmark(degree4_nonexactness, rule, RegionId(Region.CUBE, n))
    assert witness is not None


@pytest.mark.parametrize("n", [3, 8, 32])
def test_classify_nodes(benchmark, n):
    rule = build_rule(cube_spec(n))
    classification = benchmark(classify_nodes, rule, RegionId(Region.CUBE, n))
    assert len(classification.classes) == len(rule)


@pytest.mark.parametrize("n", [3, 8, 32])
def test_cli_verify(benchmark, tmp_path, n):
    rule_path, report_path = tmp_path / "rule.json", tmp_path / "report.json"
    write_rule(build_rule(cube_spec(n)), rule_path)
    argv = ["verify", str(rule_path), "--region", "cube", "--format", "json",
            "--output", str(report_path)]
    assert benchmark(main, argv) == 0
