"""Search over mass splits for node placement objectives.

The chain masses mu_1 .. mu_n are the free parameters of the
construction.  Different splits move the nodes around, so a split can be
sought that keeps every node inside the region (or at worst on its
boundary).  Candidates are scored lexicographically by

    (nodes violating the objective, negative weights, -min boundary margin)

and explored by seeded multi-start coordinate descent in an unconstrained
parametrization: a softmax map onto the mass simplex {mu > 0,
sum(mu) = m_1}, or per-coordinate sigmoids with sum(mu) free in
(0, 2*m_1) when a compensation node is allowed.  The search is
deterministic for a fixed (seed, budget) and makes no optimality claim.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assembly import CubatureRule, assemble_rule
from .decomposition import (
    DecompositionConstants,
    MassSplit,
    _chain_mass_bound,
    chain_higher_moments,
    compute_constants,
)
from .errors import InconsistentAtomError, InfeasibleMomentError, InvalidSplitError
from .moments import RegionId, SymmetricMomentSpec
from .validation import node_margins

__all__ = [
    "SearchMode",
    "SearchObjective",
    "SearchResult",
    "feasible_region_bounds",
    "search_masses",
]

_INFEASIBLE_SCORE = (math.inf, math.inf, math.inf)


class SearchMode(enum.Enum):
    FEASIBLE = "feasible"
    INTERIOR = "interior"
    INTERIOR_OR_BOUNDARY = "interior-or-boundary"


@dataclass(frozen=True)
class SearchObjective:
    mode: SearchMode = SearchMode.INTERIOR
    allow_compensation: bool = False
    max_evals: int = 5000
    seed: int = 0
    boundary_tol: float = 1e-9

    def __post_init__(self):
        if self.max_evals <= 0:
            raise ValueError(f"max_evals must be > 0, got {self.max_evals}")
        if not 0 <= self.boundary_tol < math.inf:
            raise ValueError(f"boundary_tol must be finite and >= 0, got {self.boundary_tol}")


@dataclass(frozen=True)
class SearchResult:
    split: MassSplit | None
    rule: CubatureRule | None
    satisfied: bool
    score: tuple[float, float, float]
    evaluations: int
    message: str


def feasible_region_bounds(
    spec: SymmetricMomentSpec,
    consts: DecompositionConstants,
    masses_so_far: Sequence[float] = (),
) -> list[float]:
    """Per-chain lower bounds on mu_k keeping each chain two-point feasible.

    The Hankel condition mu_k * m2 - m1^2 > 0 gives mu_k > m1^2 / m2,
    where m1 and m2 of chain k come from
    :func:`~symcub.decomposition.chain_higher_moments` and depend on the
    masses of earlier chains through the remaining mass.  Bounds are
    returned for chains 1 .. len(masses_so_far) + 1 (capped at n); the
    last chain has m1 = 0, so its bound is 0.
    """
    n = spec.n
    prefix = [float(m) for m in masses_so_far]
    if len(prefix) > n:
        raise InvalidSplitError(f"got {len(prefix)} masses for n = {n}")
    count = min(len(prefix) + 1, n)
    return [
        _chain_mass_bound(m1, m2)
        for m1, m2, _ in chain_higher_moments(spec, consts, prefix, count)
    ]


def _score_candidate(
    rule: CubatureRule, region: RegionId, mode: SearchMode, tol: float
) -> tuple[float, float, float]:
    margins = node_margins(region, rule.nodes).min(axis=1)
    # classify_nodes' thresholds: interior above tol, exterior below -tol
    if mode is SearchMode.INTERIOR:
        violations = np.count_nonzero(~(margins > tol))
    elif mode is SearchMode.INTERIOR_OR_BOUNDARY:
        violations = np.count_nonzero(margins < -tol)
    else:
        violations = 0
    negatives = int(np.sum(rule.weights < 0))
    return (float(violations), float(negatives), -float(margins.min()))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def search_masses(
    spec: SymmetricMomentSpec,
    region: RegionId,
    objective: SearchObjective,
) -> SearchResult:
    """Look for a mass split meeting the node-placement objective.

    Returns the first satisfying split found, or the best-scoring one
    within the evaluation budget flagged as not satisfied.
    """
    if region.n != spec.n:
        raise InvalidSplitError(
            f"region has n = {region.n} but spec has n = {spec.n}"
        )
    consts = compute_constants(spec)
    n = spec.n
    rng = np.random.default_rng(objective.seed)

    def masses_from(z: np.ndarray) -> tuple[float, ...]:
        if objective.allow_compensation:
            return tuple(2.0 * spec.m_1 * _sigmoid(z) / n)
        shifted = np.exp(z - z.max())
        return tuple(spec.m_1 * shifted / shifted.sum())

    def evaluate(z: np.ndarray):
        split = MassSplit(masses_from(z), compensation=objective.allow_compensation)
        try:
            rule = assemble_rule(
                spec, split, consts, region_label=region.region.value
            )
        except (InconsistentAtomError, InfeasibleMomentError, InvalidSplitError):
            # a candidate sitting exactly on a feasibility bound collapses
            # a chain to an atom; score it like any infeasible point
            return _INFEASIBLE_SCORE, split, None
        return (
            _score_candidate(rule, region, objective.mode, objective.boundary_tol),
            split,
            rule,
        )

    num_starts = max(4, min(8, objective.max_evals))
    starts = [np.zeros(n)]
    starts.extend(rng.normal(0.0, 0.5, size=(num_starts - 1, n)))

    best_score = _INFEASIBLE_SCORE
    best_split = None
    best_rule = None
    evaluations = 0

    def satisfied(score) -> bool:
        return score[0] == 0.0 and math.isfinite(score[2])

    done = False
    for z0 in starts:
        if done or evaluations >= objective.max_evals:
            break
        z = np.array(z0, dtype=float)
        score, split, rule = evaluate(z)
        evaluations += 1
        if score < best_score:
            best_score, best_split, best_rule = score, split, rule
        if satisfied(score):
            done = True
            break
        step = 0.75
        while step > 1e-3 and evaluations < objective.max_evals:
            improved = False
            for i in range(n):
                for sign in (1.0, -1.0):
                    if evaluations >= objective.max_evals:
                        break
                    candidate = z.copy()
                    candidate[i] += sign * step
                    cand_score, cand_split, cand_rule = evaluate(candidate)
                    evaluations += 1
                    if cand_score < score:
                        z, score = candidate, cand_score
                        improved = True
                        if cand_score < best_score:
                            best_score = cand_score
                            best_split, best_rule = cand_split, cand_rule
                        if satisfied(cand_score):
                            done = True
                        break
                if done:
                    break
            if done:
                break
            if not improved:
                step *= 0.5

    is_satisfied = satisfied(best_score) and best_rule is not None
    if best_rule is None:
        message = "no feasible split found within budget"
    elif is_satisfied:
        message = f"objective {objective.mode.value} satisfied"
    else:
        message = (
            f"budget exhausted; best split violates objective at "
            f"{int(best_score[0])} node(s)"
        )
    return SearchResult(
        split=best_split,
        rule=best_rule,
        satisfied=is_satisfied,
        score=best_score,
        evaluations=evaluations,
        message=message,
    )
