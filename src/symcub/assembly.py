"""Assemble full cubature rules from the solved one-dimensional chains.

Each chain-k node value t maps to a point of R^n:

    k = 1:          (eta, ..., eta)                with eta = (t - c_n) / n
    2 <= k <= n-1:  (alpha x (n-k+1), beta, gamma x (k-2))
                    beta  = gamma - t / (n - k + 2)
                    alpha = beta + (t - c_mid) / (n - k + 1)
    k = n:          (alpha, beta, gamma x (n-2))
                    beta  = gamma - (t + c_2) / 2,  alpha = beta + t

with c_2 = c_mid for n >= 3 and c_2 = c_n for n = 2.  Weights pass
through from the one-dimensional rules unchanged.  The compensation node
is the k = n image of t = 0; a node at t = 0 only contributes to the
zeroth moment of chain n, whose first and third moments vanish, so adding
it preserves degree-3 exactness while absorbing the mass residual
m_1 - sum(mu).

Every node is such a block pattern, so a rule is Theta(n^2) floats
written block by block into one (N, n) array by slice assignment.

Node ordering is canonical: chain index ascending, node value descending
within a chain, compensation node last.  Identical inputs produce
bit-identical rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .decomposition import (
    DecompositionConstants,
    MassSplit,
    _chain_mass_bound,
    compute_constants,
    default_split,
    reduced_moment_chain,
)
from .errors import InfeasibleMomentError
from .moment1d import solve_two_point
from .moments import SymmetricMomentSpec

__all__ = [
    "CubatureRule",
    "assemble_rule",
    "build_rule",
    "map_node",
]


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
        nodes = np.asarray(self.nodes, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
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
        object.__setattr__(self, "nodes", nodes)
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


def _write_chain(
    out: np.ndarray,
    row: int,
    k: int,
    ts: Sequence[float],
    consts: DecompositionConstants,
) -> int:
    """Write the chain-k images of node values ts into rows row, row + 1, ...

    Returns the next free row.  The trailing gamma block of a row is not
    written: `out` must already hold gamma there, which filling it with
    gamma once (`_gamma_filled`) does for every row.
    """
    n = consts.n
    if k == 1:
        for t in ts:
            out[row] = (t - consts.c_n) / n
            row += 1
        return row
    gamma = consts.gamma
    lead = n - k + 1
    for t in ts:
        if k == n:
            beta = gamma - (t + consts.c_2) / 2.0
            out[row, 0] = beta + t
        else:
            beta = gamma - t / (n - k + 2)
            out[row, :lead] = beta + (t - consts.c_mid) / lead
        out[row, lead] = beta
        row += 1
    return row


def _gamma_filled(rows: int, consts: DecompositionConstants) -> np.ndarray:
    out = np.empty((rows, consts.n))
    out.fill(consts.gamma)
    return out


def map_node(k: int, t: float, consts: DecompositionConstants) -> tuple[float, ...]:
    """Map a chain-k one-dimensional node value t back to a point of R^n, n = consts.n."""
    if not 1 <= k <= consts.n:
        raise ValueError(f"chain index must be in [1, {consts.n}], got {k}")
    out = _gamma_filled(1, consts)
    _write_chain(out, 0, k, (t,), consts)
    return tuple(out[0].tolist())


def assemble_rule(
    spec: SymmetricMomentSpec,
    split: MassSplit,
    consts: DecompositionConstants,
    *,
    region_label: str = "custom",
) -> CubatureRule:
    """Solve all chains and package the rule.

    Generically returns 2n nodes, or 2n + 1 when the split carries a
    compensation node; a chain of zero variance (a degenerate,
    single-orbit functional) contributes one node instead of two.  Each
    node is written straight into its row of one (N, n) array.  An
    infeasible chain raises :class:`InfeasibleMomentError` tagged with
    the chain index and the lower bound on its mass that would restore
    feasibility.
    """
    chain = reduced_moment_chain(spec, split, consts)
    n = spec.n
    nodes = _gamma_filled(2 * n + split.compensation, consts)
    weights: list[float] = []
    row = 0
    for k, (m0, m1, m2, m3) in enumerate(chain, start=1):
        try:
            ts, ws = solve_two_point(m0, m1, m2, m3)
        except InfeasibleMomentError as exc:
            bound = _chain_mass_bound(m1, m2)
            raise InfeasibleMomentError(
                f"chain {k} is infeasible (m0*m2 - m1^2 = {exc.hankel:.6e}); "
                f"feasibility needs mu_{k} > {bound:.9g}",
                hankel=exc.hankel,
                chain=k,
                mass_bound=bound,
            ) from exc
        row = _write_chain(nodes, row, k, ts, consts)
        weights.extend(ws)
    if split.compensation:
        row = _write_chain(nodes, row, n, (0.0,), consts)
        weights.append(spec.m_1 - math.fsum(split.masses))
    metadata = {
        "region": region_label,
        "masses": list(split.masses),
        "compensation": split.compensation,
        "constants": {"c_n": consts.c_n, "c_mid": consts.c_mid, "gamma": consts.gamma},
    }
    return CubatureRule(
        dim=n, nodes=nodes[:row], weights=np.array(weights), metadata=metadata
    )


def build_rule(
    spec: SymmetricMomentSpec,
    split: MassSplit | None = None,
    *,
    region_label: str = "custom",
) -> CubatureRule:
    """Convenience wrapper: constants plus assembly, default split if none."""
    if split is None:
        split = default_split(spec)
    return assemble_rule(
        spec, split, compute_constants(spec), region_label=region_label
    )
