"""Search over mass splits for node placement objectives.

The chain masses mu_1 .. mu_n are the free parameters of the
construction, and chain k's moments depend only on mu_k and the mass
ahead of it, r = m_1 - sum(mu_1 .. mu_{k-1}), so the chains are placed
one at a time.  A chain-k node is affine in its 1-D value t, so every
region margin is concave of degree <= 2 in t and {t : every margin >=
tau} is one interval [a, b].  The masses that put both of the chain's
nodes in [a, b] form one interval too, whose least element least_k(r)
:func:`~symcub.decomposition.least_mass` gives in closed form.

A walk at margin tau gives chains 1 .. n-1 their least masses.  Chain n
takes the remainder or, with compensation, its least mass, the rest
weighting the compensation node at chain n's vertex t = 0.  A chain-k
node has at most three distinct coordinates, so chain k has at most six
distinct margins whatever n is; a walk reads chain k's only when it
reaches chain k, and stops at the first chain that fails.  Margins that
do not move with t (those of the gamma block of chain k's nodes) only
cap tau: chain k admits no t once tau passes the least of them, so
the table keeps that least one as the chain's cap, checks it first, and
loops over the moving margins alone.  Chain n
admits every mass above its least (its nodes +-sqrt(m2 / mu) move
inwards), so when r - least_k(r) never decreases in r (no admissible
mass counting as -inf; the tests check this on a grid) the least mass
leaves each later chain the most it can have, and a walk fails only if
no split keeps every margin >= tau.  The search looks for the largest
margin a walk reaches on the grid a bisection of tau would visit, but
closes the bracket by interpolating chain n's surplus (its mass less its
least mass, which goes through 0 where the walks start to fail) instead
of halving it, with the Anderson-Bjorck rule against a stale end.  Walks
succeed below some tau and fail above it (the tests check this on a grid
too), so it ends on the same grid point, and so the same split, in 5-17
walks a pass (three regions, n <= 128) instead of 48.  It assembles that
split once.  With compensation a first pass keeps the compensation
weight >= 0; only if its split misses the objective may it go down to
-m_1.  For an interior or interior-or-boundary objective the search
first walks once at the objective's threshold with that weight >= 0.
If that walk fails, no such split keeps every node inside the
threshold, so the first pass could only miss the objective and the
search skips it; if it succeeds, the first pass runs as before.  The
walk table of a (spec, region) holds one row per chain, its cap, its
distinct moving margins and its chain-moment coefficients; it is built
once per process and only read after that.  A walk is one loop over
those rows that computes each chain's node interval, chain moments,
least mass and running exact sum of the masses inline, in the
operations of :func:`~symcub.decomposition.chain_moments`,
:func:`~symcub.decomposition.least_mass` and
:func:`~symcub.decomposition.add_exact`, with no call per chain.  A
failed walk returns a record of its failing chain, and the search words
the message of its result from one such record, once.  Nothing is
random: the same input gives the same split.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .assembly import CubatureRule, build_rule
from .decomposition import MassSplit, chain_table, compute_constants, map_nodes_array
from .errors import InvalidSplitError
from .moments import RegionId, SymmetricMomentSpec
from .validation import BOUNDARY_TOL, node_margins

__all__ = ["SearchMode", "SearchObjective", "SearchResult", "search_masses"]

_WALKS_PER_PASS = 48


class SearchMode(enum.Enum):
    FEASIBLE = "feasible"
    INTERIOR = "interior"
    INTERIOR_OR_BOUNDARY = "interior-or-boundary"


@dataclass(frozen=True)
class SearchObjective:
    """What the search asks of a split, and how many walks it may make.

    `seed` has no effect: the search is deterministic.  It is kept only
    because the benchmark's search workload still passes it.
    """

    mode: SearchMode = SearchMode.INTERIOR
    allow_compensation: bool = False
    max_evals: int = 5000
    seed: int = 0
    boundary_tol: float = BOUNDARY_TOL

    def __post_init__(self):
        object.__setattr__(self, "mode", SearchMode(self.mode))
        if not isinstance(self.max_evals, int) or isinstance(self.max_evals, bool):
            raise ValueError(f"max_evals must be an int, got {self.max_evals!r}")
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


def _score_candidate(
    rule: CubatureRule, region: RegionId, mode: SearchMode, tol: float
) -> tuple[float, float, float]:
    """(nodes the mode rejects, negative weights, -least margin), from one margin pass.

    A node is rejected by the thresholds of :func:`~symcub.validation.node_class`,
    counted in one comparison: interior means a least margin above tol, and
    exterior one below -tol or NaN.
    """
    least = node_margins(region, rule.nodes).min(axis=1)
    if mode is SearchMode.INTERIOR:
        violations = np.count_nonzero(~(least > tol))
    elif mode is SearchMode.INTERIOR_OR_BOUNDARY:
        violations = np.count_nonzero(~(least >= -tol))
    else:
        violations = 0
    negative = (rule.weights < 0).sum()
    return (float(violations), float(negative), -float(least.min()))


class _ChainWalk:
    """The walk table of (spec, region): one row per chain, and the walk over them.

    Row k - 1 is chain k's (cap, margins, moments, offset2, offset3): the
    least of its margins constant in t (inf if none), its distinct moving
    margins as (A, B, C) triples, and its chain moments, a fixed (m1, m2,
    m3) for chains 1 and n and None for a middle chain, whose moments with
    mass r ahead are (c_mid r, offset2 + c_mid^2 r, offset3 + c_mid^3 r)
    with `powers` = (c_mid, c_mid^2, c_mid^3), the coefficients of
    :func:`~symcub.decomposition.chain_table`.  Read-only once built: a
    walk keeps its state in locals, so one table serves every search of
    the same (spec, region).
    """

    def __init__(self, spec: SymmetricMomentSpec, region: RegionId):
        n = self.n = spec.n
        # Least masses are homogeneous of degree 1 in the spec, so the walk
        # runs on the spec scaled by m_1's power of two, which is exact:
        # no product in a least mass underflows however small L(1) is.
        self.scale = math.frexp(spec.m_1)[1]
        unit = spec.ldexp(-self.scale)
        self.m_1 = unit.m_1
        table = chain_table(unit)
        self.powers = tuple(table.powers.ravel().tolist())
        # every margin along chain k is A + B t + C t^2: read it at t = -1, 0, 1
        consts = compute_constants(spec)
        nodes = map_nodes_array(np.tile((-1.0, 0.0, 1.0), (n, 1)), consts)
        g_lo, A, g_hi = node_margins(region, nodes).reshape(n, 3, -1).transpose(1, 0, 2)
        B, C = 0.5 * (g_hi - g_lo), 0.5 * (g_hi + g_lo) - A
        # a linear margin leaves a C of rounding size only
        C[np.abs(C) <= 1e-12 * (np.abs(g_lo) + np.abs(A) + np.abs(g_hi))] = 0.0
        # a margin constant in t (the gamma block) only caps tau: chain k admits
        # no t once tau passes the least of them, and none moves [a, b] below that
        const = (B == 0) & (C == 0)
        caps = np.where(const, A, math.inf).min(axis=1).tolist()
        # chain k keeps its distinct moving margins only; max and min ignore their
        # order.  A chain's coordinates come in runs, so dropping each triple equal
        # to the one before it leaves a few per chain before any becomes a float.
        keep = ~const
        keep[:, 1:] &= (A[:, 1:] != A[:, :-1]) | (B[:, 1:] != B[:, :-1]) | (C[:, 1:] != C[:, :-1])
        kept = list(zip(A[keep].tolist(), B[keep].tolist(), C[keep].tolist()))
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        margins = [tuple(dict.fromkeys(kept[i:j])) for i, j in zip([0] + ends, ends)]
        moments = [table.first, *[None] * (n - 2), table.last]
        offsets = [(0.0, 0.0), *zip(*table.offsets[1:].tolist()), (0.0, 0.0)]
        self.rows = [
            (cap, margin, fixed, *offset)
            for cap, margin, fixed, offset in zip(caps, margins, moments, offsets)
        ]

    def walk(self, tau: float, slack: float | None):
        """The walk's masses at margin tau, or None and why it fails, and chain n's surplus.

        Masses, the surplus and `slack` are in units of 2^scale, like `m_1`.
        `slack`: None without compensation, else the compensation weight's
        floor below 0.  The surplus is the mass left to chain n less its least
        mass, negative when chain n runs short, and None when there is no such
        least mass (an earlier chain fails, or chain n admits none).  Why a
        walk fails is the record (k, tau, least, available) of its failing
        chain k: least and available are None when chain k admits no mass,
        else chain n's least and available mass in the spec's own units;
        :func:`_message` words it.

        Each chain takes its node interval [a, b], its moments with the mass
        ahead and its least mass in [a, b] inline, in the operations of
        :func:`~symcub.decomposition.chain_moments` and
        :func:`~symcub.decomposition.least_mass`, and the mass ahead comes
        from a running exact sum of the masses, as
        :func:`~symcub.decomposition.add_exact` keeps it.
        """
        inf, sqrt, fsum = math.inf, math.sqrt, math.fsum
        m_1, n = self.m_1, self.n
        cm, cm2, cm3 = self.powers
        masses, peeled, remaining = [], [], m_1  # peeled: exact sum of masses
        for k, (cap, margins, fixed, offset2, offset3) in enumerate(self.rows, 1):
            # [a, b]: every margin along chain k >= tau; a constant one below tau
            # or a concave one below it everywhere leaves none
            if tau > cap:
                return None, (k, tau, None, None), None
            a, b = -inf, inf
            for A, B, C in margins:
                A -= tau
                if C < 0:
                    disc = B * B - 4.0 * C * A
                    if disc < 0:
                        return None, (k, tau, None, None), None
                    root = sqrt(disc)
                    lo, hi = (root - B) / (2.0 * C), (-root - B) / (2.0 * C)
                    if lo > a:
                        a = lo
                    if hi < b:
                        b = hi
                elif B > 0:
                    if -A / B > a:
                        a = -A / B
                elif B < 0:
                    if -A / B < b:
                        b = -A / B
            if a > b:
                return None, (k, tau, None, None), None
            if fixed is None:
                m1, m2, m3 = cm * remaining, offset2 + cm2 * remaining, offset3 + cm3 * remaining
            else:
                m1, m2, m3 = fixed
            # the least mass of [least, most], which each end e of [a, b] cuts by
            # least_mass's conditions p mu + q >= 0: D(e) >= 0, then the vertex
            # on the inner side of e
            least, most = m1 * m1 / m2 if m2 > 0 else inf, inf
            det = m1 * m3 - m2 * m2
            if -inf < a < inf:
                p, q = m2 * a * a - m3 * a, det + m1 * m2 * a - m1 * m1 * a * a
                if p > 0:
                    if -q / p > least:
                        least = -q / p
                elif p < 0:
                    if -q / p < most:
                        most = -q / p
                elif q < 0:
                    return None, (k, tau, None, None), None
                p, q = m3 - 2.0 * a * m2, 2.0 * a * m1 * m1 - m1 * m2
                if p > 0:
                    if -q / p > least:
                        least = -q / p
                elif p < 0:
                    if -q / p < most:
                        most = -q / p
                elif q < 0:
                    return None, (k, tau, None, None), None
            if -inf < b < inf:
                p, q = m2 * b * b - m3 * b, det + m1 * m2 * b - m1 * m1 * b * b
                if p > 0:
                    if -q / p > least:
                        least = -q / p
                elif p < 0:
                    if -q / p < most:
                        most = -q / p
                elif q < 0:
                    return None, (k, tau, None, None), None
                p, q = -(m3 - 2.0 * b * m2), -(2.0 * b * m1 * m1 - m1 * m2)
                if p > 0:
                    if -q / p > least:
                        least = -q / p
                elif p < 0:
                    if -q / p < most:
                        most = -q / p
                elif q < 0:
                    return None, (k, tau, None, None), None
            if not (0 < least <= most and least < inf):
                return None, (k, tau, None, None), None
            if k == n:
                break
            masses.append(least)
            # add the mass to the partials of the exact running sum (Shewchuk)
            x, i = least, 0
            for y in peeled:
                if abs(x) < abs(y):
                    x, y = y, x
                s = x + y
                e = y - (s - x)
                if e:
                    peeled[i] = e
                    i += 1
                x = s
            peeled[i:] = [x]
            remaining = m_1 - fsum(peeled)
        available = remaining + (slack or 0.0)
        surplus = available - least
        if least > available:
            least, available = math.ldexp(least, self.scale), math.ldexp(available, self.scale)
            return None, (n, tau, least, available), surplus
        masses.append(remaining if slack is None else least)
        return tuple(masses), None, surplus


def _message(failure: tuple) -> str:
    """The words of a failed walk's record (k, tau, least, available)."""
    k, tau, least, available = failure
    if least is None:
        return f"chain {k} admits no mass > 0 at margin {tau:.6g}"
    return f"chain {k} needs mu >= {least:.9g} but {available:.9g} remains"


@functools.lru_cache(maxsize=32)
def _walker(spec: SymmetricMomentSpec, region: RegionId) -> _ChainWalk:
    """The walk table of (spec, region), built once per process."""
    return _ChainWalk(spec, region)


def _scaling(new: float | None, old: float | None) -> float:
    """Anderson-Bjorck: 1 - new / old, or 1/2 when that is <= 0 or either is unknown."""
    if new is None or not old:
        return 0.5
    factor = 1.0 - new / old
    return factor if factor > 0 else 0.5


def _bracket(walker: _ChainWalk, slack: float | None, budget: int):
    """(masses or None, walks, why the last failed walk failed) at the largest margin.

    Region margins never exceed 1; below -1 the bracket doubles until a walk
    succeeds at `ok`, the last failure (or 1) being `bad`.  The `depth` walks
    left would bisect [ok, bad] down to the grid ok + i h, h = (bad - ok) /
    2^depth, every point of which is an exact float.  Instead the bracket
    [lo, hi] of grid indices (lo succeeds, hi fails) closes by regula falsi on
    chain n's surplus, with the Anderson-Bjorck rule (BIT 1973): when an end
    is kept twice in a row, its surplus is scaled by 1 - f_new / f_old, where
    f_new is the surplus of the new other end and f_old that of the end it
    replaces, or by 1/2 when that factor is <= 0 or a surplus is unknown.
    A step lies strictly inside the bracket, and is its midpoint while the
    failing end has no surplus (it was never walked, or an earlier chain
    failed there).  When walks succeed for every margin below some tau and
    for none above, lo ends where the bisection would, in fewer walks.
    """
    best, ok, bad, why, bad_surplus = None, None, 1.0, None, None
    tau, walks = -1.0, 0
    while walks < budget and ok is None:
        masses, failure, surplus = walker.walk(tau, slack)
        walks += 1
        if masses is None:
            bad, why, bad_surplus = tau, failure, surplus
            tau *= 2.0
        else:
            ok, best, ok_surplus = tau, masses, surplus
    if ok is None:
        return None, walks, why
    depth = budget - walks
    h, lo, hi, moved = math.ldexp(bad - ok, -depth), 0, 1 << depth, 0
    while walks < budget and hi - lo > 1:
        if bad_surplus is None:
            i = (lo + hi) // 2
        else:
            step = round((hi - lo) * ok_surplus / (ok_surplus - bad_surplus))
            i = min(max(lo + step, lo + 1), hi - 1)
        masses, failure, surplus = walker.walk(ok + i * h, slack)
        walks += 1
        if masses is None:
            if moved < 0:
                ok_surplus *= _scaling(surplus, bad_surplus)
            hi, why, bad_surplus, moved = i, failure, surplus, -1
        else:
            if moved > 0 and bad_surplus is not None:
                bad_surplus *= _scaling(surplus, ok_surplus)
            lo, best, ok_surplus, moved = i, masses, surplus, 1
    return best, walks, why


def search_masses(
    spec: SymmetricMomentSpec, region: RegionId, objective: SearchObjective
) -> SearchResult:
    """The split of largest minimum node margin, and whether it meets the objective.

    The margin is found on the grid a 48-walk bisection of tau would
    visit, by regula falsi on chain n's surplus: the same split as that
    bisection, in fewer walks.  With compensation and an interior or
    interior-or-boundary objective, one walk at the objective's threshold
    with the compensation weight >= 0 comes first, and the pass that keeps
    that weight >= 0 is skipped when it fails; the walk is made only when
    `max_evals` leaves a walk for a pass after it.  If the split misses the
    objective, the message names the chain that fails at the objective's
    threshold.  At most one threshold walk, 48 walks per pass and one for
    that message, and at most `max_evals` in all.
    """
    if region.n != spec.n:
        raise InvalidSplitError(f"region has n = {region.n} but spec has n = {spec.n}")
    walker = _walker(spec, region)
    # node_class's thresholds: interior above tol, exterior below -tol
    side = {SearchMode.INTERIOR: 1.0, SearchMode.INTERIOR_OR_BOUNDARY: -1.0}.get(objective.mode)
    split, rule, score, evaluations, why = None, None, (math.inf,) * 3, 0, None
    slacks = (0.0, walker.m_1) if objective.allow_compensation else (None,)
    if side is not None and objective.allow_compensation and objective.max_evals > 1:
        # walks fail above some tau: failing at the threshold, no split with a
        # compensation weight >= 0 meets the objective, so skip that pass
        evaluations += 1
        if walker.walk(side * objective.boundary_tol, 0.0)[0] is None:
            slacks = (walker.m_1,)
    for slack in slacks:
        budget = min(_WALKS_PER_PASS, objective.max_evals - evaluations)
        masses, walks, failure = _bracket(walker, slack, budget)
        evaluations += walks
        if walks:  # a pass left without budget keeps the previous pass's reason
            why = failure
        if masses is None:
            continue
        split = MassSplit([math.ldexp(mu, walker.scale) for mu in masses], slack is not None)
        rule = build_rule(spec, split, region_label=region.region.value)
        score = _score_candidate(rule, region, objective.mode, objective.boundary_tol)
        if score[0] == 0.0 and math.isfinite(score[2]):
            message = f"objective {objective.mode.value} satisfied"
            return SearchResult(split, rule, True, score, evaluations, message)
    if side is not None and evaluations < objective.max_evals:
        _, why, _ = walker.walk(side * objective.boundary_tol, slack)
        evaluations += 1
    if why is None:
        message = f"best split violates objective at {int(score[0])} node(s)"
    else:
        message = _message(why)
    return SearchResult(split, rule, False, score, evaluations, message)
