"""Verification: polynomial exactness, node classification, rule diffs.

Exactness is checked in the original coordinates against every monomial
of total degree <= 3.  For n <= 8 each monomial is held as three column
indices into the node array, padded with the index of a column of ones,
and its exact value is gathered by symmetry class from the seven
moments.  Above that the check probes random directions v: a rule is
exact at degree <= 3 iff sum w (v.x)^d = L((v.x)^d) for d <= 3 and all
v, a closed form in the seven moments and the symmetric sums of v.
Degree-4 probes (x_i^4 and x_i^2 x_j^2) demonstrate that a degree-3 rule
is sharp; they are computed as two matrix products on the squared nodes
against two closed-form region moments.

Three tables are built once per process and shared, read-only, after
that: the monomial table of each n <= 8 (column triples, each
monomial's index among the seven moments, the first row of each degree
and each monomial's exponents); the probe table of each n > 8 (the
directions v from the fixed seed and their sums e1, e2, e3, p2 and p3);
and, per built-in region and n, the degree-4 targets with the index
pairs i < j.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .assembly import CubatureRule
from .errors import DimensionMismatchError, UnmatchedRuleError
from .moments import PATTERN_TO_FIELD, Region, RegionId, SymmetricMomentSpec, region_monomial_moment

__all__ = [
    "Degree4Witness",
    "ExactnessReport",
    "NodeClass",
    "NodeClassification",
    "RuleDiff",
    "check_exactness",
    "classify_nodes",
    "compare_to_reference",
    "degree4_nonexactness",
    "node_class",
    "node_margins",
]

# Full monomial enumeration is used up to this dimension; beyond it the
# check probes standard normal directions from a fixed seed.
FULL_ENUMERATION_MAX_DIM = 8
_PROBE_SEED = 0
_PROBE_DIRECTIONS = 4
# A node whose least region margin is within this of 0 is on the boundary.
BOUNDARY_TOL = 1e-9


class Degree4Witness(NamedTuple):
    """A degree-4 monomial, as its exponents, and the rule's error on it."""

    monomial: tuple[int, ...]
    error: float


@dataclass(frozen=True)
class ExactnessReport:
    """Errors of a rule against a moment spec over degree <= 3 monomials.

    `degree4_witness` is None unless a caller attaches the result of
    :func:`degree4_nonexactness`.
    """

    max_abs_error: float
    max_rel_error: float
    worst_monomial: tuple[int, ...] | None  # None above FULL_ENUMERATION_MAX_DIM
    per_degree_max: tuple[float, float, float, float]
    monomial_count: int
    degree4_witness: Degree4Witness | None = None


class NodeClass(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class NodeClassification:
    """Per-node region classification plus a weight-sign summary.

    `interior`, `boundary` and `exterior` count the nodes of each class in
    `classes`.  The field order is the key order of the CLI's JSON report.
    """

    classes: tuple[NodeClass, ...]
    interior: int
    boundary: int
    exterior: int
    tol: float
    positive_weights: int
    negative_weights: int
    zero_weights: int


@dataclass(frozen=True)
class RuleDiff:
    """Order-insensitive deviation between two rules of equal size; `passed`
    when both deviations are within `tol`."""

    max_node_distance: float
    max_weight_deviation: float
    tol: float
    passed: bool = field(init=False)

    def __post_init__(self):
        # a NaN deviation fails
        passed = self.max_node_distance <= self.tol and self.max_weight_deviation <= self.tol
        object.__setattr__(self, "passed", bool(passed))


@functools.lru_cache(maxsize=FULL_ENUMERATION_MAX_DIM)
def _monomial_table(
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    # column triples of every monomial of degree <= 3, by degree, then in
    # combinations_with_replacement order (column n is the padding column of ones),
    # each one's index among the seven moments in PATTERN_TO_FIELD order, the
    # first row of each degree, and each one's exponent tuple
    positions = [
        p for degree in range(4) for p in itertools.combinations_with_replacement(range(n), degree)
    ]
    columns = np.array([p + (n,) * (3 - len(p)) for p in positions])
    exponents = tuple(tuple(p.count(i) for i in range(n)) for p in positions)
    patterns = list(PATTERN_TO_FIELD)
    moments = np.array([
        patterns.index(tuple(sorted(filter(None, exps), reverse=True))) for exps in exponents
    ])
    starts = np.searchsorted([len(p) for p in positions], range(4))
    columns.flags.writeable = moments.flags.writeable = starts.flags.writeable = False
    return columns, moments, starts, exponents


@functools.lru_cache(maxsize=32)
def _probe_table(n: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The (n, 4) probe directions v and, per direction, e1, e2, e3, p2 and p3 of v."""
    v = np.random.default_rng(_PROBE_SEED).standard_normal((n, _PROBE_DIRECTIONS))
    # e2 and e3 of v by running prefix sums; p1^3 - 3 p1 p2 + 2 p3 would cancel
    pad = np.zeros((1, _PROBE_DIRECTIONS))
    e2_terms = v * np.vstack([pad, np.cumsum(v, axis=0)[:-1]])
    e3 = (v * np.vstack([pad, np.cumsum(e2_terms, axis=0)[:-1]])).sum(axis=0)
    sums = (v.sum(axis=0), e2_terms.sum(axis=0), e3, (v**2).sum(axis=0), (v**3).sum(axis=0))
    for array in (v, *sums):
        array.flags.writeable = False
    return v, sums


def _directional_report(rule: CubatureRule, spec: SymmetricMomentSpec) -> ExactnessReport:
    v, (e1, e2, e3, p2, p3) = _probe_table(spec.n)
    targets = (
        np.full(_PROBE_DIRECTIONS, spec.m_1),
        spec.m_x * e1,
        spec.m_xx * p2 + 2 * spec.m_xy * e2,
        spec.m_xxx * p3 + 3 * spec.m_xxy * (e1 * p2 - p3) + 6 * spec.m_xyz * e3,
    )
    y = rule.nodes @ v
    rel = np.empty((4, _PROBE_DIRECTIONS))
    for d, target in enumerate(targets):
        y_d = y**d
        # on the rule's own scale sum |w| |y|^d, or on |target| when that
        # is larger: an empty rule has no scale of its own
        own = np.maximum(np.abs(rule.weights) @ np.abs(y_d), np.abs(target))
        rel[d] = np.abs(rule.weights @ y_d - target) / np.where(own > 0, own, 1.0)
    # numpy maxima, not Python's max(), so that a NaN propagates
    per_degree = spec.moment_scale * rel.max(axis=1)
    return ExactnessReport(
        max_abs_error=float(per_degree.max()),
        max_rel_error=float(rel.max()),
        worst_monomial=None,
        per_degree_max=tuple(per_degree.tolist()),
        monomial_count=math.comb(spec.n + 3, 3),
    )


def check_exactness(rule: CubatureRule, spec: SymmetricMomentSpec) -> ExactnessReport:
    """Compare rule sums against spec moments for all degree <= 3 monomials.

    Up to FULL_ENUMERATION_MAX_DIM the errors are per monomial and the
    worst one is named.  Above it, max_rel_error is the largest
    |sum w (v.x)^d - L((v.x)^d)| / sum |w| |v.x|^d over the probes, and
    each degree's absolute error is its largest ratio times
    spec.moment_scale: a detector on the rule's own scale, not a
    per-monomial bound.
    """
    if rule.dim != spec.n:
        raise DimensionMismatchError(
            f"rule has dim {rule.dim} but spec has n = {spec.n}"
        )
    n = spec.n
    if n > FULL_ENUMERATION_MAX_DIM:
        return _directional_report(rule, spec)
    columns, moments, starts, exponents = _monomial_table(n)
    padded = np.ones((len(rule), n + 1))
    padded[:, :n] = rule.nodes
    values = padded[:, columns[:, 0]]
    values *= padded[:, columns[:, 1]]
    values *= padded[:, columns[:, 2]]
    approx = values.T @ rule.weights
    exact = np.array([getattr(spec, name) for name in PATTERN_TO_FIELD.values()])[moments]
    abs_err = np.abs(approx - exact)

    scale = max(spec.m_1, float(np.abs(exact).max()))
    denom = np.where(np.abs(exact) > 0, np.abs(exact), scale)
    rel_err = abs_err / denom

    worst = int(np.argmax(abs_err))
    return ExactnessReport(
        max_abs_error=float(abs_err[worst]),
        max_rel_error=float(rel_err.max()),
        worst_monomial=exponents[worst],
        # numpy maxima, so that a NaN propagates
        per_degree_max=tuple(np.maximum.reduceat(abs_err, starts).tolist()),
        monomial_count=len(columns),
    )


@functools.lru_cache(maxsize=32)
def _degree4_targets(region: RegionId) -> tuple[tuple[float, float, float], tuple[np.ndarray, ...]]:
    """L(x_1^4), L(x_1^2 x_2^2) and L(1) over a region, and the index pairs i < j."""
    pairs = np.triu_indices(region.n, 1)
    for index in pairs:
        index.flags.writeable = False
    heads = ((4,), (2, 2), ())
    targets = tuple(region_monomial_moment(region, h + (0,) * (region.n - len(h))) for h in heads)
    return targets, pairs


def degree4_nonexactness(rule: CubatureRule, region: RegionId) -> Degree4Witness | None:
    """Find a degree-4 monomial the rule gets wrong by more than 1e-6 * L(1).

    Probes x_i^4 and x_i^2 x_j^2 (i < j) against the closed-form region
    moments and returns the worst offender as a :class:`Degree4Witness`,
    the first in that order on a tie, or None when every probe is matched
    (which would flag an anomaly for a genuine degree-3 rule).
    """
    if rule.dim != region.n:
        raise DimensionMismatchError(
            f"rule has dim {rule.dim} but region has n = {region.n}"
        )
    n = region.n
    squares = rule.nodes * rule.nodes
    quartic = (squares * squares).T @ rule.weights
    (quartic_exact, pair_exact, mass), pairs = _degree4_targets(region)
    square_pairs = ((squares * rule.weights[:, None]).T @ squares)[pairs]
    errors = np.concatenate(
        [np.abs(quartic - quartic_exact), np.abs(square_pairs - pair_exact)]
    )
    worst = int(np.argmax(errors))
    if errors[worst] > 1e-6 * mass:
        exps = [0] * n
        if worst < n:
            exps[worst] = 4
        else:
            exps[pairs[0][worst - n]] = exps[pairs[1][worst - n]] = 2
        return Degree4Witness(tuple(exps), float(errors[worst]))
    return None


def node_margins(region: RegionId, nodes: Sequence[float] | np.ndarray) -> np.ndarray:
    """Signed constraint margins g_j(x) >= 0 describing the region.

    Takes one node of shape (n,) or the nodes of a rule as rows of an
    (N, n) array, and returns the margins along the last axis.
    """
    x = np.asarray(nodes, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != region.n:
        raise DimensionMismatchError(
            f"nodes have shape {x.shape}, expected (n,) or (N, n) with n = {region.n}"
        )
    if region.region is Region.SIMPLEX:
        outer = 1.0 - x.sum(axis=-1, keepdims=True)
    elif region.region is Region.BALL_SECTOR:
        # a dot product per row, summed exactly as x @ x sums one node
        outer = 1.0 - (x[..., None, :] @ x[..., :, None])[..., 0]
    elif region.region is Region.CUBE:
        outer = 1.0 - x
    else:
        raise ValueError(f"unknown region {region.region!r}")
    return np.concatenate([x, outer], axis=-1)


def node_class(least_margin: float, tol: float) -> NodeClass:
    """A node's class from its least region margin.

    Interior means the margin exceeds tol; exterior means it is below -tol
    or NaN; boundary is everything in between.
    """
    if not least_margin >= -tol:
        return NodeClass.EXTERIOR
    return NodeClass.INTERIOR if least_margin > tol else NodeClass.BOUNDARY


def classify_nodes(
    rule: CubatureRule, region: RegionId, tol: float = BOUNDARY_TOL
) -> NodeClassification:
    """Label every node interior, boundary or exterior relative to a region.

    Interior means all constraint margins exceed tol; exterior means some
    margin is below -tol or NaN; boundary is everything in between (see
    :func:`node_class`).  The regions are permutation-symmetric, so
    permuting a node never changes its class.
    """
    if rule.dim != region.n:
        raise DimensionMismatchError(
            f"rule has dim {rule.dim} but region has n = {region.n}"
        )
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    least = node_margins(region, rule.nodes).min(axis=1).tolist()
    classes = tuple([node_class(margin, tol) for margin in least])
    weights = rule.weights
    return NodeClassification(
        classes=classes,
        interior=classes.count(NodeClass.INTERIOR),
        boundary=classes.count(NodeClass.BOUNDARY),
        exterior=classes.count(NodeClass.EXTERIOR),
        tol=tol,
        positive_weights=int((weights > 0).sum()),
        negative_weights=int((weights < 0).sum()),
        zero_weights=int((weights == 0).sum()),
    )


def compare_to_reference(
    rule: CubatureRule, reference: CubatureRule, tol: float = 5e-9
) -> RuleDiff:
    """Diff two rules after pairing each node with its nearest reference node.

    The diff passes when both the largest node distance and the largest
    weight deviation are within tol.

    The comparison is insensitive to row order.  When the nearest-node map
    is one-to-one, every pair is at its smallest possible distance, so it
    is also the assignment of least total distance.  When two nodes share
    a nearest reference node the rules do not match: max_node_distance is
    then inf and the diff does not pass.  Rules with different node counts
    cannot be compared.
    """
    if rule.dim != reference.dim:
        raise DimensionMismatchError(
            f"rules have dims {rule.dim} and {reference.dim}"
        )
    if len(rule) != len(reference):
        raise UnmatchedRuleError(
            f"rules have {len(rule)} and {len(reference)} nodes"
        )
    # one row at a time keeps memory at O(N^2 + N n), not O(N^2 n)
    distance = np.empty((len(rule), len(reference)))
    for i, x in enumerate(rule.nodes):
        distance[i] = np.sqrt(((reference.nodes - x) ** 2).sum(axis=1))
    cols = distance.argmin(axis=1)
    # no nearest node shared; np.unique would import numpy.ma on its first call
    if np.bincount(cols).max() <= 1:
        node_dev = float(distance.min(axis=1).max())
    else:
        node_dev = np.inf
    weight_dev = float(np.abs(rule.weights - reference.weights[cols]).max())
    return RuleDiff(max_node_distance=node_dev, max_weight_deviation=weight_dev, tol=tol)
