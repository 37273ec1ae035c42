"""Timing of one `search_masses` call, and of one walk, per region at n = 3, 8, 32 and 128.

The file name does not match `test_*.py`, so the test suite does not
collect it and timing noise cannot fail the suite.  Run it by path:

    python -m pytest benchmarks/bench_search.py --benchmark-json BENCH_search.json

Each call asks for an all-interior 2n-node rule (no compensation node);
at n = 8, 32 and 128 no such rule exists and the call returns its best
effort.  The compensated entries ask for an all-interior 2n + 1-node
rule of the 4-simplex, the 6-dimensional ball sector and the 8-cube:
each first walks at the objective's threshold with the compensation
weight >= 0, fails there, and so goes straight to the pass that lets
that weight go negative (17, 14 and 12 walks in all).  Each
entry's `extra_info["walks"]` is the walk count of one call, which is
the same on every call.

`test_walk` times one walk of a search at the fixed margin tau = -1,
the bracket's first, without compensation: every chain takes its least
mass in turn, and at the cube's n = 32 and 128 the walk runs to chain n
and fails there.  It finds the walk table built.

A process builds each (spec, region)'s walk table, each spec's
decomposition constants, chain moment table and map, and each size's
node-map runs once.  The warm entry times a call that finds them built;
the cold entry clears every one of those caches before each call, so it
pays what a one-shot `symcub search` pays for the search (the region's
moments, which the CLI also computes, are made outside the timed call).
"""

import pytest

from symcub import Region, RegionId, SearchMode, SearchObjective, region_spec, search_masses
from symcub.decomposition import _run_table, chain_moments, chain_table, compute_constants
from symcub.search import _walker

# every per-process cache that search_masses reaches
_CACHES = (_walker, chain_moments, chain_table, compute_constants, _run_table)


def _clear_caches():
    for cache in _CACHES:
        cache.cache_clear()


def _search(benchmark, region, n, cold, compensation=False):
    rid = RegionId(region, n)
    spec = region_spec(rid)
    args = (spec, rid, SearchObjective(mode=SearchMode.INTERIOR, allow_compensation=compensation))
    if cold:
        rounds = max(5, 200 // n)
        result = benchmark.pedantic(search_masses, args, setup=_clear_caches, rounds=rounds)
    else:
        result = benchmark(search_masses, *args)
    benchmark.extra_info["walks"] = result.evaluations
    assert result.rule is not None and len(result.rule) == 2 * n + compensation


@pytest.mark.parametrize("n", [3, 8, 32, 128])
@pytest.mark.parametrize("region", list(Region), ids=lambda r: r.value)
def test_search_masses(benchmark, region, n):
    _search(benchmark, region, n, cold=False)


@pytest.mark.parametrize("n", [3, 8, 32, 128])
@pytest.mark.parametrize("region", list(Region), ids=lambda r: r.value)
def test_search_masses_cold(benchmark, region, n):
    _search(benchmark, region, n, cold=True)


COMPENSATED = [(Region.SIMPLEX, 4), (Region.BALL_SECTOR, 6), (Region.CUBE, 8)]


@pytest.mark.parametrize("region, n", COMPENSATED, ids=lambda x: getattr(x, "value", x))
def test_search_masses_compensated(benchmark, region, n):
    _search(benchmark, region, n, cold=False, compensation=True)


@pytest.mark.parametrize("region, n", COMPENSATED, ids=lambda x: getattr(x, "value", x))
def test_search_masses_compensated_cold(benchmark, region, n):
    _search(benchmark, region, n, cold=True, compensation=True)


@pytest.mark.parametrize("n", [3, 8, 32, 128])
@pytest.mark.parametrize("region", list(Region), ids=lambda r: r.value)
def test_walk(benchmark, region, n):
    rid = RegionId(region, n)
    walker = _walker(region_spec(rid), rid)
    masses, failure, _ = benchmark(walker.walk, -1.0, None)
    # the walk reaches chain n
    assert masses is not None or failure[0] == n
