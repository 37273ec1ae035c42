"""Timing of the chain moments, the 1-D solves and rule assembly on default cube splits at n = 3 .. 512.

The file name does not match `test_*.py`, so the test suite does not
collect it and timing noise cannot fail the suite.  Run it by path:

    python -m pytest benchmarks/bench_chain.py --benchmark-json BENCH_chain.json

`reduced_moment_chain` computes the n chains' moments; `solve_two_point`
times the n one-dimensional solves of those moments alone; `assemble_rule`
adds the chain moments to the solves and writes the (2n, n) node array.
The constants, the split and, for the solves, the chain moments are
computed outside the timed call.
"""

import pytest

from symcub import (
    assemble_rule,
    compute_constants,
    cube_spec,
    default_split,
    reduced_moment_chain,
    solve_two_point,
)

SIZES = [3, 8, 32, 128, 512]


def _cube(n):
    spec = cube_spec(n)
    return spec, default_split(spec), compute_constants(spec)


@pytest.mark.parametrize("n", SIZES)
def test_reduced_moment_chain(benchmark, n):
    spec, split, consts = _cube(n)
    chain = benchmark(reduced_moment_chain, spec, split, consts)
    assert len(chain) == n


@pytest.mark.parametrize("n", SIZES)
def test_solve_two_point(benchmark, n):
    chain = reduced_moment_chain(*_cube(n))
    solved = benchmark(lambda: [solve_two_point(*moments) for moments in chain])
    assert all(len(nodes) == 2 for nodes, _ in solved)


@pytest.mark.parametrize("n", SIZES)
def test_assemble_rule(benchmark, n):
    spec, split, consts = _cube(n)
    rule = benchmark(assemble_rule, spec, split, consts)
    assert rule.nodes.shape == (2 * n, n)
