"""Independent correctness oracle for degree-3 symmetric cubature rules.

Nothing here imports symcub.  The seven moments of each built-in region
come from Gamma-function closed forms evaluated with mpmath:

    simplex      L(x^a) = prod Gamma(a_i + 1) / Gamma(n + |a| + 1)
    ball sector  L(x^a) = prod Gamma((a_i + 1)/2) / (2^n Gamma((n + |a|)/2 + 1))
    cube         L(x^a) = prod 1 / (a_i + 1)

A rule is exact at degree <= 3 if and only if sum_k w_k (v.x_k)^d equals
L((v.x)^d) for d <= 3 and every direction v; for a permutation-symmetric
L that right-hand side is a polynomial in the seven moments and the power
sums p1, p2, p3 of v.  A seeded random direction catches any nonzero
error form with probability one, and each probe costs O(N*n).  The error
is measured relative to sum_k |w_k| |v.x_k|^d, the rule's own scale, so
it does not depend on how small L(1) is.

The expensive part (closed forms at high precision) runs once per region
and dimension in `directional_targets`, in the generator; `check_rule` is
plain numpy and runs after each timed operation, so the workload process
never imports mpmath.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

# Healthy float64 rules read about 1e-15 here; the published golden
# tables, transcribed to 14 decimals, read up to 2e-10 (table8).
# Corrupted rules are made to read at least CORRUPT_MIN_REL_ERROR.
REL_TOL = 1e-8
CORRUPT_MIN_REL_ERROR = 1e-4
DIRECTIONS = 4
MP_DPS = 50

REGIONS = ("simplex", "ball-sector", "cube")

# The published tables: (region, n, has a compensation node).  The eight
# numbered ones are what `symcub tables` writes.
GOLDEN_TABLES = {
    "table1": ("simplex", 3, False),
    "table2": ("simplex", 4, False),
    "table3": ("simplex", 3, False),
    "table4": ("simplex", 4, True),
    "table5": ("simplex", 4, True),
    "table6": ("ball-sector", 3, False),
    "table7": ("ball-sector", 4, False),
    "table8": ("ball-sector", 4, False),
    "table3_interior": ("simplex", 3, False),
}

# nonzero exponent pattern of each of the seven moment classes
MOMENT_CLASSES = {
    "m1": (),
    "mx": (1,),
    "mxx": (2,),
    "mxy": (1, 1),
    "mxxx": (3,),
    "mxxy": (2, 1),
    "mxyz": (1, 1, 1),
}


def region_moment(region: str, n: int, pattern: tuple[int, ...]):
    """L(x^a) for an exponent vector whose nonzero entries are `pattern`."""
    import mpmath

    degree = sum(pattern)
    with mpmath.workdps(MP_DPS):
        if region == "simplex":
            num = mpmath.fprod(mpmath.gamma(a + 1) for a in pattern)
            return num / mpmath.gamma(n + degree + 1)
        if region == "ball-sector":
            num = mpmath.fprod(mpmath.gamma(mpmath.mpf(a + 1) / 2) for a in pattern)
            num *= mpmath.gamma(mpmath.mpf(1) / 2) ** (n - len(pattern))
            return num / (2**n * mpmath.gamma(mpmath.mpf(n + degree) / 2 + 1))
        if region == "cube":
            return 1 / mpmath.fprod(mpmath.mpf(a + 1) for a in pattern)
    raise ValueError(f"unknown region {region!r}")


def region_moments(region: str, n: int) -> dict:
    """The seven moments of a region, keyed as in MOMENT_CLASSES."""
    return {key: region_moment(region, n, pat) for key, pat in MOMENT_CLASSES.items()}


def directional_moments(m: dict, v) -> list:
    """L((v.x)^d) for d = 0..3 from the seven moments and power sums of v."""
    import mpmath

    with mpmath.workdps(MP_DPS):
        vs = [mpmath.mpf(float(x)) for x in v]
        p1 = mpmath.fsum(vs)
        p2 = mpmath.fsum(x * x for x in vs)
        p3 = mpmath.fsum(x**3 for x in vs)
        return [
            m["m1"],
            m["mx"] * p1,
            m["mxx"] * p2 + m["mxy"] * (p1 * p1 - p2),
            m["mxxx"] * p3
            + 3 * m["mxxy"] * (p1 * p2 - p3)
            + m["mxyz"] * (p1**3 - 3 * p1 * p2 + 2 * p3),
        ]


@dataclass(frozen=True)
class Targets:
    """Seeded probe directions (n, J) and L((v_j.x)^d) as a (4, J) array."""

    region: str
    n: int
    mass: float
    directions: np.ndarray
    values: np.ndarray

    def to_json(self) -> dict:
        return {
            "region": self.region,
            "n": self.n,
            "mass": self.mass,
            "directions": self.directions.T.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Targets":
        return cls(
            region=data["region"],
            n=int(data["n"]),
            mass=float(data["mass"]),
            directions=np.asarray(data["directions"], dtype=float).T.copy(),
            values=np.asarray(data["values"], dtype=float),
        )


def directional_targets(region: str, n: int, seed: int) -> Targets:
    rng = random.Random(seed)
    m = region_moments(region, n)
    dirs = np.array([[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(DIRECTIONS)])
    values = np.array(
        [[float(x) for x in directional_moments(m, v)] for v in dirs]
    ).T
    return Targets(region, n, float(m["m1"]), dirs.T.copy(), values)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str
    rel_error: float
    nodes: int


def relative_error(nodes: np.ndarray, weights: np.ndarray, targets: Targets) -> float:
    """max over d <= 3 and probes of |sum w y^d - L(y^d)| / sum |w| |y|^d."""
    y = nodes @ targets.directions
    worst = 0.0
    for d in range(4):
        yd = y**d
        approx = weights @ yd
        scale = np.abs(weights) @ np.abs(yd)
        err = np.abs(approx - targets.values[d]) / np.where(scale > 0, scale, 1.0)
        worst = max(worst, float(err.max()))
    return worst


def check_rule(nodes, weights, targets: Targets, expected_nodes: int) -> Verdict:
    """Accept a rule iff it has the expected node count and is exact at degree <= 3."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    count = int(weights.shape[0]) if weights.ndim == 1 else -1
    if nodes.ndim != 2 or nodes.shape != (count, targets.n):
        return Verdict(False, f"shape {nodes.shape} / {weights.shape}", float("inf"), count)
    if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
        return Verdict(False, "non-finite entries", float("inf"), count)
    rel = relative_error(nodes, weights, targets)
    if count != expected_nodes:
        return Verdict(False, f"{count} nodes, expected {expected_nodes}", rel, count)
    if not rel <= REL_TOL:
        return Verdict(False, f"relative degree-3 error {rel:.3g} > {REL_TOL:g}", rel, count)
    return Verdict(True, "ok", rel, count)


def region_margins(region: str, nodes: np.ndarray) -> np.ndarray:
    """Smallest constraint margin of each node; > 0 means strictly inside."""
    nodes = np.asarray(nodes, dtype=float)
    low = nodes.min(axis=1)
    if region == "simplex":
        return np.minimum(low, 1.0 - nodes.sum(axis=1))
    if region == "ball-sector":
        return np.minimum(low, 1.0 - (nodes * nodes).sum(axis=1))
    if region == "cube":
        return np.minimum(low, 1.0 - nodes.max(axis=1))
    raise ValueError(f"unknown region {region!r}")


def parse_rule_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows of coordinates then weight; comment lines, the header and any
    trailing non-numeric cells (the note column of the golden tables) are
    skipped."""
    rows = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        values = []
        for cell in line.split(","):
            try:
                values.append(float(cell))
            except ValueError:
                break
        if values:
            rows.append(values)
    width = len(rows[0]) if rows else 0
    if width < 2 or any(len(r) != width for r in rows):
        raise ValueError("ragged or empty rule CSV")
    arr = np.asarray(rows, dtype=float)
    return arr[:, :-1].copy(), arr[:, -1].copy()
