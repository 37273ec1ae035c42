"""Package the solved one-dimensional chains as a cubature rule.

A rule needs only the moment spec and the mass split: :func:`build_rule`
derives the constants from the spec, as the chain moments do.  Weights
pass through from the one-dimensional rules unchanged.  The chains are
solved and mapped to R^n on one of two paths, chosen by n alone:

* n < ARRAY_MIN_N: one loop walks the chain moments of
  :func:`~symcub.decomposition.reduced_moment_chain` and solves each chain
  by :func:`~symcub.decomposition.solve_two_point`; one call of
  :func:`~symcub.decomposition.map_nodes` then writes every row;
* n >= ARRAY_MIN_N: the chain moments as one array by
  :func:`~symcub.decomposition.chain_moment_array`, all chains at once by
  :func:`~symcub.decomposition.solve_two_point_array`, and the whole node
  array by :func:`~symcub.decomposition.map_nodes_array`.

The array path makes a fixed number of numpy calls, which cost more than
the per-chain loop at small n: on ``benchmarks/bench_chain.py``
(``test_build_rule_path``) it takes 1.02x the per-chain time at n = 20
and 0.87x at n = 24, and ARRAY_MIN_N = 24 is the least measured n where
the array path is ahead.  Both paths do the same operations in the same
order, so the rule is the same bit for bit.  The array path has one
fallback, the per-chain path: its kernels return None where they cannot
sum the masses exactly, including every invalid or unbalanced split, or
where a chain is an atom or infeasible.  So every split error,
infeasible-chain error and atom comes from the per-chain path: it
validates the split, writes the atom's one row, or raises the chain's
:class:`InfeasibleMomentError`.  Each path takes the compensation weight
as m_1 - fsum(masses).

The compensation node is the k = n image of t = 0; a node at t = 0 only
contributes to the zeroth moment of chain n, whose first and third
moments vanish, so adding it preserves degree-3 exactness while
absorbing the mass residual m_1 - sum(mu).

Node ordering is canonical: chain index ascending, node value descending
within a chain, compensation node last.  Identical inputs produce
bit-identical rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .decomposition import (
    MassSplit,
    chain_moment_array,
    compute_constants,
    default_split,
    least_mass,
    map_nodes,
    map_nodes_array,
    reduced_moment_chain,
    solve_two_point,
    solve_two_point_array,
)
from .errors import InfeasibleMomentError
from .moments import SymmetricMomentSpec

__all__ = [
    "CubatureRule",
    "build_rule",
]

# The least n at which build_rule solves and maps every chain at once.  On
# benchmarks/bench_chain.py's build_rule_path (the least of three runs on a
# 2-core x86 box) the array path takes 1.25x the per-chain time at n = 16,
# 1.02x at 20, 0.87x at 24, 0.75x at 28 and 0.67x at 32.
ARRAY_MIN_N = 24

_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True, eq=False)
class CubatureRule:
    """A weighted point set in R^n with a degree-3 exactness claim.

    `nodes` is a read-only float64 array of shape (N, dim), one node per
    row, and `weights` a read-only float64 array of shape (N,).  A
    float64 array argument is taken over as is and marked read-only, not
    copied; other sequences are converted once.  Rules compare by
    identity: use ``np.array_equal`` on the arrays to compare contents.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    degree: int = 3
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        nodes, weights = self.nodes, self.weights
        # a float64 ndarray is kept as it is; asarray would return it unchanged
        if type(nodes) is not np.ndarray or nodes.dtype is not _FLOAT64:
            nodes = np.asarray(nodes, dtype=np.float64)
        if type(weights) is not np.ndarray or weights.dtype is not _FLOAT64:
            weights = np.asarray(weights, dtype=np.float64)
        if nodes.size == 0:
            nodes = nodes.reshape(0, self.dim)
        if nodes.ndim != 2 or nodes.shape[1] != self.dim:
            raise ValueError(
                f"nodes have shape {nodes.shape}, expected (N, {self.dim})"
            )
        if weights.shape != (len(nodes),):
            raise ValueError(
                f"{len(nodes)} nodes but weights of shape {weights.shape}"
            )
        nodes.setflags(write=False)
        weights.setflags(write=False)
        if nodes is not self.nodes:
            object.__setattr__(self, "nodes", nodes)
        if weights is not self.weights:
            object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def node_array(self) -> np.ndarray:
        """The nodes, as an (N, dim) array; the same object as `nodes`."""
        return self.nodes

    @property
    def weight_array(self) -> np.ndarray:
        """The weights, as an (N,) array; the same object as `weights`."""
        return self.weights

    def total_weight(self) -> float:
        return math.fsum(self.weights.tolist())


def build_rule(
    spec: SymmetricMomentSpec,
    split: MassSplit | None = None,
    *,
    region_label: str = "custom",
) -> CubatureRule:
    """Solve all chains of `split` (the uniform split if None) and package the rule.

    Generically returns 2n nodes, or 2n + 1 when the split carries a
    compensation node; a chain of zero variance (a degenerate,
    single-orbit functional) contributes one node instead of two.  The
    nodes are mapped into one (N, n) array once every chain is solved,
    per chain below n = ARRAY_MIN_N and as arrays from there on.  An
    infeasible chain raises :class:`InfeasibleMomentError` tagged with
    the chain index and the lower bound on its mass that would restore
    feasibility.
    """
    if split is None:
        split = default_split(spec)
    n = spec.n
    consts = compute_constants(spec)
    built = _build_array(spec, split, consts) if n >= ARRAY_MIN_N else None
    nodes, weights = built or _build_per_chain(spec, split, consts)
    metadata = {
        "region": region_label,
        "masses": list(split.masses),
        "compensation": split.compensation,
        "constants": {"c_n": consts.c_n, "c_mid": consts.c_mid, "gamma": consts.gamma},
    }
    return CubatureRule(dim=n, nodes=nodes, weights=weights, metadata=metadata)


def _build_array(spec, split, consts):
    """The node and weight arrays of all chains solved at once, or None where
    the masses cannot be summed exactly or some chain is an atom or infeasible."""
    chain = chain_moment_array(spec, split)
    solved = None if chain is None else solve_two_point_array(chain)
    if solved is None:
        return None
    ts, ws = solved
    weights = ws.ravel()
    if split.compensation:
        weights = np.append(weights, spec.m_1 - math.fsum(split.masses))
    return map_nodes_array(ts, consts, split.compensation), weights


def _build_per_chain(spec, split, consts):
    """The node and weight arrays of the chains of `split`, solved one chain at a time."""
    solved: list[tuple[int, tuple[float, ...]]] = []
    weights: list[float] = []
    for k, (m0, m1, m2, m3) in enumerate(reduced_moment_chain(spec, split), start=1):
        try:
            ts, ws = solve_two_point(m0, m1, m2, m3)
        except InfeasibleMomentError as exc:
            bound = least_mass(m1, m2, m3)
            raise InfeasibleMomentError(
                f"chain {k} is infeasible (m0*m2 - m1^2 = {exc.hankel:.6e}); "
                f"feasibility needs mu_{k} > {bound:.9g}",
                hankel=exc.hankel,
                chain=k,
                mass_bound=bound,
            ) from exc
        solved.append((k, ts))
        weights += ws
    if split.compensation:
        solved.append((spec.n, (0.0,)))
        weights.append(spec.m_1 - math.fsum(split.masses))
    return map_nodes(solved, consts), np.array(weights)
