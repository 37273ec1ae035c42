"""Timing of the splits, the chain moments, the 1-D solves, the least masses, the node map and rule building at n = 3 .. 512.

The file name does not match `test_*.py`, so the test suite does not
collect it and timing noise cannot fail the suite.  Run it by path:

    python -m pytest benchmarks/bench_chain.py --benchmark-json BENCH_chain.json

`reduced_moment_chain` computes the n chains' moments of a default cube
split one chain at a time, as `build_rule` does below
`symcub.assembly.ARRAY_MIN_N`, and `chain_moment_array` the same moments
as one (n, 4) array from exact prefix sums of the masses;
`solve_two_point` times the n one-dimensional solves of those moments
alone, one call per chain, and `solve_two_point_array` the same solves
as one call on their (n, 4) array; `map_nodes` and `map_nodes_array`
map their 2n node values to the (2n, n) node array; `least_mass` times
the n least masses of the cube's chains on a search walk's node
intervals at tau = -1, each chain with the mass ahead of it that the
uniform split leaves.  `from_t` builds a compensated split from a list
of n float t-values, as perfbench's build workload does.  `build_rule`
adds the constants and the chain moments to the solves and the node
map, on the uniform split and on a compensated one, and
`build_rule_path` times each of its two paths at every n: where the
array path starts to win sets `ARRAY_MIN_N`, hence the sizes between 16
and 32.  `build_rule_declined` times a compensated split whose masses
span ten binades at n = 128 and 512: `chain_moment_array` declines it,
so the build pays for the array path's checks and then takes the
per-chain path, the array path's one fallback.  The split and every
argument of the timed call are computed outside it; the node maps also
take the constants from outside.
"""

import math

import numpy as np
import pytest

from symcub import (
    MassSplit,
    Region,
    RegionId,
    assembly,
    build_rule,
    compute_constants,
    cube_spec,
    default_split,
    reduced_moment_chain,
    solve_two_point,
)
from symcub.decomposition import (
    chain_moment_array, least_mass, map_nodes, map_nodes_array, solve_two_point_array,
)
from symcub.search import _walker

SIZES = [3, 8, 16, 20, 24, 28, 32, 128, 512]


def _cube(n):
    spec = cube_spec(n)
    return spec, default_split(spec)


@pytest.mark.parametrize("n", SIZES)
def test_reduced_moment_chain(benchmark, n):
    spec, split = _cube(n)
    chain = benchmark(reduced_moment_chain, spec, split)
    assert len(chain) == n


@pytest.mark.parametrize("n", SIZES)
def test_chain_moment_array(benchmark, n):
    spec, split = _cube(n)
    chain = benchmark(chain_moment_array, spec, split)
    assert chain.shape == (n, 4)


@pytest.mark.parametrize("n", SIZES)
def test_solve_two_point(benchmark, n):
    chain = reduced_moment_chain(*_cube(n))
    solved = benchmark(lambda: [solve_two_point(*moments) for moments in chain])
    assert all(len(nodes) == 2 for nodes, _ in solved)


@pytest.mark.parametrize("n", SIZES)
def test_solve_two_point_array(benchmark, n):
    chain = reduced_moment_chain(*_cube(n))
    nodes, _ = benchmark(lambda: solve_two_point_array(np.array(chain)))
    assert nodes.shape == (n, 2)


@pytest.mark.parametrize("n", SIZES)
def test_build_rule(benchmark, n):
    spec, split = _cube(n)
    rule = benchmark(build_rule, spec, split)
    assert rule.nodes.shape == (2 * n, n)


@pytest.mark.parametrize("n", SIZES)
def test_build_rule_compensated(benchmark, n):
    spec = cube_spec(n)
    t = np.random.default_rng(n).uniform(0.9, 1.1, n)
    split = MassSplit.from_t(list(t), spec, compensation=True)
    rule = benchmark(build_rule, spec, split)
    assert rule.nodes.shape == (2 * n + 1, n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("path", ["per-chain", "array"])
def test_build_rule_path(benchmark, monkeypatch, path, n):
    monkeypatch.setattr(assembly, "ARRAY_MIN_N", 2 if path == "array" else math.inf)
    spec, split = _cube(n)
    rule = benchmark(build_rule, spec, split)
    assert rule.nodes.shape == (2 * n, n)


@pytest.mark.parametrize("n", [128, 512])
def test_build_rule_declined(benchmark, n):
    spec = cube_spec(n)
    masses = [spec.m_1 / n] * n
    masses[n // 2] *= 2.0**10
    split = MassSplit(masses, compensation=True)
    assert chain_moment_array(spec, split) is None
    rule = benchmark(build_rule, spec, split)
    assert rule.nodes.shape == (2 * n + 1, n)


@pytest.mark.parametrize("n", SIZES)
def test_map_nodes(benchmark, n):
    spec, split = _cube(n)
    chain = reduced_moment_chain(spec, split)
    solved = [(k, solve_two_point(*moments)[0]) for k, moments in enumerate(chain, start=1)]
    nodes = benchmark(map_nodes, solved, compute_constants(spec))
    assert nodes.shape == (2 * n, n)


@pytest.mark.parametrize("n", SIZES)
def test_map_nodes_array(benchmark, n):
    spec, split = _cube(n)
    ts, _ = solve_two_point_array(np.array(reduced_moment_chain(spec, split)))
    nodes = benchmark(map_nodes_array, ts, compute_constants(spec))
    assert nodes.shape == (2 * n, n)


@pytest.mark.parametrize("n", SIZES)
def test_from_t(benchmark, n):
    spec = cube_spec(n)
    t = np.random.default_rng(n).uniform(0.9, 1.1, n).tolist()
    split = benchmark(MassSplit.from_t, t, spec, True)
    assert len(split.masses) == n


@pytest.mark.parametrize("n", SIZES)
def test_least_mass(benchmark, n):
    # chain k with the mass a uniform split leaves ahead of it
    walker = _walker(cube_spec(n), RegionId(Region.CUBE, n))
    args = [
        (*walker.moments(k, walker.m_1 * (n - k + 1) / n), *walker.interval(k, -1.0))
        for k in range(1, n + 1)
    ]
    least = benchmark(lambda: [least_mass(*a) for a in args])
    assert len(least) == n and not any(math.isnan(mu) for mu in least)
