"""Seeded input generator for the build, verify and search workloads.

Everything a workload process receives is written here, before symcub is
imported and before any timing starts: mass splits, rule files and their
corrupted copies, search instances and seeds, the operation schedule, and
the oracle's probe directions with their closed-form targets.  Nothing
here imports symcub, so the inputs do not change when the program under
test does, and the same seed gives byte-identical files.

Splits are drawn as t-parameters (mu_k = t_k * L(1) / n) and accepted only
when every chain's relative Hankel margin (m0*m2 - m1^2) / (m0*m2),
computed at 50 digits, is at least MIN_HANKEL_MARGIN.  Rule files are
built by an independent 50-digit implementation of the construction and
rounded to float64 at the end.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath
import numpy as np

import oracle

BUILD_SIZES = {
    "cube": (3, 8, 32, 128, 512),
    "ball-sector": (3, 8, 32, 128, 256),
    "simplex": (3, 8, 32, 128, 160),
}
SPLITS_PER_INSTANCE = 4  # the last one carries a compensation node
SPLIT_SIGMA = 0.1
MIN_HANKEL_MARGIN = 1e-2

# Verify ops per round for each n, taken from that n's six files in turn.
# Each is a multiple of six, so every round verifies each file equally
# often and the share of failed ops does not depend on how many rounds a
# run completes.  n = 64 gets about a third of the run time, so that some
# thirty ops set the tail, and the median op falls well inside the n = 3
# cluster.
VERIFY_OPS_PER_ROUND = {3: 450, 8: 204, 16: 30, 32: 12, 64: 6}
VERIFY_SIZES = tuple(VERIFY_OPS_PER_ROUND)
TABLE_OPS_PER_ROUND = 9

# (region, n, allow_compensation): the first five are satisfied by the
# seed's search, the last three exhaust the budget.
SEARCH_INSTANCES = (
    ("simplex", 3, False),
    ("ball-sector", 4, False),
    ("cube", 5, False),
    ("simplex", 4, True),
    ("ball-sector", 6, True),
    ("simplex", 4, False),
    ("ball-sector", 5, False),
    ("cube", 6, False),
)
SEARCH_BUDGET = 1000

# Rounds are written ahead; a run that outlasts them starts over.
ROUNDS = 200


def build_cost_ms(n: int) -> float:
    """Cost of one build op at the seed on a 2-core x86 box, fitted from
    0.16 ms at n = 3 to 35 ms at n = 512; used only to give every n about
    the same share of run time."""
    return 0.12 + 0.012 * n + 1.1e-4 * n * n


# n = 3 gets three quarters of a share, so that the median build op falls
# inside the n = 8 cluster rather than on the edge between n = 3 and n = 8.
BUILD_TIME_SHARE = {3: 0.75}


# ---------------------------------------------------------------- chains


def decomposition(m: dict, n: int):
    """(c_n, c_mid, gamma, d2, e3) at high precision."""
    d2 = m["mxx"] - m["mxy"]
    e3 = -(m["mxxx"] - 3 * m["mxxy"] + 2 * m["mxyz"])
    c_n = -(m["mxxx"] + (n - 3) * m["mxxy"] - (n - 2) * m["mxyz"]) / d2
    c_mid = e3 / d2
    return c_n, c_mid, (c_mid - c_n) / n, d2, e3


def chain_moments(m: dict, n: int, mu: list) -> list[tuple]:
    """(m0, m1, m2, m3) of the n one-dimensional chain functionals."""
    c, cm, _, d2, e3 = decomposition(m, n)
    s1 = n * m["mx"]
    s2 = n * m["mxx"] + n * (n - 1) * m["mxy"]
    s3 = n * m["mxxx"] + 3 * n * (n - 1) * m["mxxy"] + n * (n - 1) * (n - 2) * m["mxyz"]
    # moments of (x1 + ... + xn + c) under L
    chains = [(mu[0], s1 + c * m["m1"], s2 + 2 * c * s1 + c * c * m["m1"],
               s3 + 3 * c * s2 + 3 * c * c * s1 + c**3 * m["m1"])]
    ahead = m["m1"] - mu[0]
    for k in range(2, n):
        f2 = (n - k + 1) * (n - k + 2)
        chains.append((mu[k - 1], cm * ahead, f2 * d2 + cm * cm * ahead,
                       f2 * (n - k + 3) * e3 + cm**3 * ahead))
        ahead -= mu[k - 1]
    chains.append((mu[n - 1], mpmath.mpf(0), 2 * d2, mpmath.mpf(0)))
    return chains


def masses(m: dict, n: int, t: list[float]) -> list:
    return [mpmath.mpf(tk) * m["m1"] / n for tk in t]


def hankel_margin(m: dict, n: int, t: list[float]) -> float:
    """Smallest relative Hankel margin over the chains of a split."""
    with mpmath.workdps(oracle.MP_DPS):
        return float(min(
            (m0 * m2 - m1 * m1) / (m0 * m2)
            for m0, m1, m2, _ in chain_moments(m, n, masses(m, n, t))
        ))


def reference_rule(m: dict, n: int, t: list[float], compensation: bool):
    """The 2n (+1) node rule of a split, solved at high precision."""
    with mpmath.workdps(oracle.MP_DPS):
        mu = masses(m, n, t)
        c_n, c_mid, gamma, _, _ = decomposition(m, n)
        nodes, weights = [], []
        for k, (m0, m1, m2, m3) in enumerate(chain_moments(m, n, mu), start=1):
            det = m1 * m1 - m0 * m2
            b = (m0 * m3 - m1 * m2) / det
            c = (m2 * m2 - m1 * m3) / det
            root = mpmath.sqrt(b * b - 4 * c)
            t_hi, t_lo = (-b + root) / 2, (-b - root) / 2
            w_hi = (m1 - m0 * t_lo) / (t_hi - t_lo)
            for tv, w in ((t_hi, w_hi), (t_lo, m0 - w_hi)):
                nodes.append(_map_node(k, tv, n, c_n, c_mid, gamma))
                weights.append(w)
        if compensation:
            nodes.append(_map_node(n, mpmath.mpf(0), n, c_n, c_mid, gamma))
            weights.append(m["m1"] - mpmath.fsum(mu))
        return (
            np.array([[float(x) for x in node] for node in nodes]),
            np.array([float(w) for w in weights]),
        )


def _map_node(k: int, t, n: int, c_n, c_mid, gamma) -> list:
    if k == 1:
        return [(t - c_n) / n] * n
    if k == n:
        beta = gamma - (t + c_mid) / 2
        return [beta + t, beta] + [gamma] * (n - 2)
    beta = gamma - t / (n - k + 2)
    alpha = beta + (t - c_mid) / (n - k + 1)
    return [alpha] * (n - k + 1) + [beta] + [gamma] * (k - 2)


def feasible_split(m: dict, n: int, rng: random.Random, compensation: bool) -> list[float]:
    """Seeded random t-parameters whose chains all clear MIN_HANKEL_MARGIN."""
    for _ in range(100):
        e = [math.exp(SPLIT_SIGMA * rng.gauss(0.0, 1.0)) for _ in range(n)]
        total = n * (rng.uniform(0.9, 1.1) if compensation else 1.0)
        scale = total / math.fsum(e)
        t = [x * scale for x in e]
        if hankel_margin(m, n, t) >= MIN_HANKEL_MARGIN:
            return t
    raise RuntimeError(f"no feasible split found for n = {n}")


# ---------------------------------------------------------------- writers


def rule_json(nodes: np.ndarray, weights: np.ndarray, region: str) -> str:
    doc = {
        "dim": int(nodes.shape[1]),
        "degree": 3,
        "nodes": nodes.tolist(),
        "weights": weights.tolist(),
        "metadata": {"region": region},
    }
    return json.dumps(doc, indent=1) + "\n"


def rule_csv(nodes: np.ndarray, weights: np.ndarray) -> str:
    n = nodes.shape[1]
    lines = [",".join(f"x{i + 1}" for i in range(n)) + ",weight"]
    for row, w in zip(nodes.tolist(), weights.tolist()):
        lines.append(",".join(repr(x) for x in row) + f",{w!r}")
    return "\n".join(lines) + "\n"


def corrupt(nodes, weights, targets, rng: random.Random, kind: str):
    """Scale one weight or shift one coordinate, doubling the change until
    the oracle's relative error reaches CORRUPT_MIN_REL_ERROR."""
    i = rng.randrange(len(weights))
    j = rng.randrange(nodes.shape[1])
    delta = rng.uniform(1.0, 2.0) * 1e-5
    while True:
        x, w = nodes.copy(), weights.copy()
        if kind == "weight":
            w[i] *= 1.0 + delta
        else:
            x[i, j] += delta
        if oracle.relative_error(x, w, targets) >= oracle.CORRUPT_MIN_REL_ERROR:
            return x, w
        delta *= 2.0


# ---------------------------------------------------------------- workloads


def _targets(region: str, n: int, seed: int, cache: dict) -> str:
    key = f"{region}-{n}"
    if key not in cache:
        cache[key] = oracle.directional_targets(region, n, seed * 7919 + n).to_json()
    return key


def _build_inputs(seed: int, rng: random.Random) -> dict:
    targets: dict = {}
    instances = []
    for region, sizes in BUILD_SIZES.items():
        for n in sizes:
            m = oracle.region_moments(region, n)
            splits = [
                {"t": feasible_split(m, n, rng, comp), "compensation": comp}
                for comp in [False] * (SPLITS_PER_INSTANCE - 1) + [True]
            ]
            instances.append({
                "region": region,
                "n": n,
                "splits": splits,
                "targets": _targets(region, n, seed, targets),
            })
    # equal run time per n, shared among the regions that have it
    per_n = {}
    for inst in instances:
        per_n[inst["n"]] = per_n.get(inst["n"], 0) + 1
    budget = 2 * build_cost_ms(max(per_n))
    counts = [
        max(1, round(budget * BUILD_TIME_SHARE.get(inst["n"], 1.0)
                     / (per_n[inst["n"]] * build_cost_ms(inst["n"]))))
        for inst in instances
    ]
    schedule = []
    for r in range(ROUNDS):
        ops = [
            [i, (r * count + c) % SPLITS_PER_INSTANCE]
            for i, count in enumerate(counts)
            for c in range(count)
        ]
        rng.shuffle(ops)
        schedule.append(ops)
    return {"instances": instances, "targets": targets, "schedule": schedule}


def _verify_inputs(seed: int, rng: random.Random, workdir: Path) -> dict:
    targets: dict = {}
    rules_dir = workdir / "rules"
    rules_dir.mkdir()
    files = []
    for region in oracle.REGIONS:
        for n in VERIFY_SIZES:
            m = oracle.region_moments(region, n)
            key = _targets(region, n, seed, targets)
            tgt = oracle.Targets.from_json(targets[key])
            t = feasible_split(m, n, rng, False)
            clean = reference_rule(m, n, t, False)
            kind = "weight" if len(files) % 4 == 0 else "coordinate"
            bad = corrupt(*clean, tgt, rng, kind)
            for label, (x, w) in (("clean", clean), ("corrupt-" + kind, bad)):
                stem = f"{region}-{n}-{label}"
                (rules_dir / f"{stem}.json").write_text(rule_json(x, w, region))
                (rules_dir / f"{stem}.csv").write_text(rule_csv(x, w))
                verdict = oracle.check_rule(x, w, tgt, 2 * n)
                files.append({
                    "stem": stem,
                    "region": region,
                    "n": n,
                    "targets": key,
                    "expect_exit": 0 if verdict.ok else 3,
                    "rel_error": verdict.rel_error,
                })
    for region, n, _ in oracle.GOLDEN_TABLES.values():
        _targets(region, n, seed, targets)
    schedule = []
    for r in range(ROUNDS):
        ops = [["tables", 0, ""]] * TABLE_OPS_PER_ROUND
        for n, count in VERIFY_OPS_PER_ROUND.items():
            same_n = [i for i, f in enumerate(files) if f["n"] == n]
            for j in range(r * count, (r + 1) * count):
                fmt = ("json", "csv")[j // len(same_n) % 2]
                ops.append(["verify", same_n[j % len(same_n)], fmt])
        rng.shuffle(ops)
        schedule.append(ops)
    return {"files": files, "targets": targets, "schedule": schedule}


def _search_inputs(seed: int, rng: random.Random) -> dict:
    targets: dict = {}
    instances = [
        {"region": region, "n": n, "compensation": comp,
         "targets": _targets(region, n, seed, targets)}
        for region, n, comp in SEARCH_INSTANCES
    ]
    schedule = []
    for _ in range(ROUNDS):
        ops = [[i, rng.randrange(2**31)] for i in range(len(instances))]
        rng.shuffle(ops)
        schedule.append(ops)
    return {
        "instances": instances,
        "budget": SEARCH_BUDGET,
        "targets": targets,
        "schedule": schedule,
    }


def generate(workload: str, seed: int, workdir: Path) -> Path:
    """Write the inputs of one workload into an empty workdir."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "build":
        data = _build_inputs(seed, rng)
    elif workload == "verify":
        data = _verify_inputs(seed, rng, workdir)
    elif workload == "search":
        data = _search_inputs(seed, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    data.update(workload=workload, seed=seed)
    path = workdir / "inputs.json"
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")
    return path
