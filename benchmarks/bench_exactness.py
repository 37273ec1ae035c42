"""Timing of the verify path on default cube rules.

The file name does not match `test_*.py`, so the test suite does not
collect it and timing noise cannot fail the suite.  Run it by path:

    python -m pytest benchmarks/bench_exactness.py --benchmark-json BENCH_exactness.json

`check_exactness` runs at n = 3 .. 512: n = 3 and 8 take the full
monomial enumeration; n = 16, 32, 128 and 512 the directional probe.
`degree4_nonexactness`, `classify_nodes` and an in-process
`symcub verify --format json` of a JSON rule file run at n = 3, 8 and 32.
The JSON writer `indented_json` runs next to `json.dumps(indent=2)` on
the verify report payloads of n = 3 and 64, and `dumps_json` writes the
cube rules of n = 64 and 256.  An in-process `symcub tables` regenerates
and diffs the eight numbered tables.
Rules, payloads and rule files are made outside the timed call.
"""

import dataclasses
import json

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
from symcub.cli import _data, main
from symcub.ruleio import dumps_json, indented_json, write_rule


@pytest.mark.parametrize("n", [3, 8, 16, 32, 128, 512])
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


def _verify_payload(n):
    # the payload `symcub verify --region cube --format json` writes
    rid = RegionId(Region.CUBE, n)
    spec = cube_spec(n)
    rule = build_rule(spec)
    report = dataclasses.replace(
        check_exactness(rule, spec), degree4_witness=degree4_nonexactness(rule, rid)
    )
    return _data({
        "pass": True,
        "tolerance": 1e-8 * spec.moment_scale,
        "exactness": report,
        "classification": classify_nodes(rule, rid),
    })


@pytest.mark.parametrize("writer", [indented_json, lambda value: json.dumps(value, indent=2)],
                         ids=["indented_json", "json_dumps"])
@pytest.mark.parametrize("n", [3, 64])
def test_verify_report_json(benchmark, writer, n):
    payload = _verify_payload(n)
    assert benchmark(writer, payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("n", [64, 256])
def test_dumps_json(benchmark, n):
    rule = build_rule(cube_spec(n))
    assert benchmark(dumps_json, rule).startswith("{")


def test_cli_tables(benchmark, tmp_path):
    argv = ["tables", "--output-dir", str(tmp_path / "tables")]
    assert benchmark(main, argv) == 0
