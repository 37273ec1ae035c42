"""Timing of one `search_masses` call per region at n = 3, 8, 32 and 128.

The file name does not match `test_*.py`, so the test suite does not
collect it and timing noise cannot fail the suite.  Run it by path:

    python -m pytest benchmarks/bench_search.py --benchmark-json BENCH_search.json

Each call asks for an all-interior 2n-node rule (no compensation node);
at n = 8, 32 and 128 no such rule exists and the call returns its best
effort.  Each entry's `extra_info["walks"]` is the walk count of one
call, which is the same on every call.
"""

import pytest

from symcub import Region, RegionId, SearchMode, SearchObjective, region_spec, search_masses


@pytest.mark.parametrize("n", [3, 8, 32, 128])
@pytest.mark.parametrize("region", list(Region), ids=lambda r: r.value)
def test_search_masses(benchmark, region, n):
    rid = RegionId(region, n)
    spec = region_spec(rid)
    objective = SearchObjective(mode=SearchMode.INTERIOR)
    result = benchmark(search_masses, spec, rid, objective)
    benchmark.extra_info["walks"] = result.evaluations
    assert result.rule is not None and len(result.rule) == 2 * n
