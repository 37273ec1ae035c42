"""Timing of `check_exactness` on default cube rules at n = 3 .. 512.

The file name does not match `test_*.py`, so the test suite does not
collect it and timing noise cannot fail the suite.  Run it by path:

    python -m pytest benchmarks/bench_exactness.py --benchmark-json BENCH_exactness.json

n = 3 and 8 take the full monomial enumeration; n = 32, 128 and 512 the
directional probe.  Rules are built outside the timed call.
"""

import pytest

from symcub import build_rule, check_exactness, cube_spec


@pytest.mark.parametrize("n", [3, 8, 32, 128, 512])
def test_check_exactness(benchmark, n):
    spec = cube_spec(n)
    rule = build_rule(spec)
    report = benchmark(check_exactness, rule, spec)
    assert report.max_abs_error <= 1e-12 * spec.moment_scale
