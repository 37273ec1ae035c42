"""Monte Carlo cross-check of the closed-form region moments.

For each built-in region at n in {2, 3, 4} and each of the seven moment
classes, a 10^6-sample estimate must agree with the closed form within
five standard errors.
"""

import math
import zlib

import numpy as np
import pytest

from symcub import Region, RegionId, region_spec
from reference_helpers import moment_of_monomial

N_SAMPLES = 1_000_000


def _sample_region(region: Region, n: int, rng: np.random.Generator) -> np.ndarray:
    if region is Region.SIMPLEX:
        return rng.dirichlet(np.ones(n + 1), size=N_SAMPLES)[:, :n]
    if region is Region.CUBE:
        return rng.uniform(0.0, 1.0, size=(N_SAMPLES, n))
    # positive sector: uniform in the ball, coordinates folded positive
    z = rng.standard_normal((N_SAMPLES, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    r = rng.uniform(0.0, 1.0, N_SAMPLES) ** (1.0 / n)
    return np.abs(z * r[:, None])


def _volume(region: Region, n: int) -> float:
    if region is Region.SIMPLEX:
        return 1.0 / math.factorial(n)
    if region is Region.CUBE:
        return 1.0
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1) / 2**n


def _class_exponents(n: int):
    reps = [
        (0,) * n,
        (1,) + (0,) * (n - 1),
        (2,) + (0,) * (n - 1),
        (1, 1) + (0,) * (n - 2),
        (3,) + (0,) * (n - 1),
        (2, 1) + (0,) * (n - 2),
    ]
    if n >= 3:
        reps.append((1, 1, 1) + (0,) * (n - 3))
    return reps


@pytest.mark.parametrize("region", list(Region))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_moments_within_five_standard_errors(region, n):
    rng = np.random.default_rng(zlib.crc32(f"{region.value}:{n}".encode()))
    samples = _sample_region(region, n, rng)
    volume = _volume(region, n)
    spec = region_spec(RegionId(region, n))
    for exps in _class_exponents(n):
        values = np.prod(samples ** np.asarray(exps), axis=1)
        estimate = volume * values.mean()
        stderr = volume * values.std() / math.sqrt(N_SAMPLES)
        exact = moment_of_monomial(spec, exps)
        assert abs(estimate - exact) <= 5.0 * stderr + 1e-15, (
            region,
            n,
            exps,
            estimate,
            exact,
            stderr,
        )
