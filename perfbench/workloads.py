"""One workload process: import symcub, warm up, run the timed closed loop.

    python3 perfbench/workloads.py WORKDIR ROLE SPAWNED_AT SECONDS RESULT [SPANS]

ROLE is `setup` (import and warm up, then stop), `run` or `trace` (run
with per-layer spans).  SPAWNED_AT is the CLOCK_MONOTONIC reading taken
by the parent just before it started this process, so set-up time covers
interpreter start, `import symcub`, loading the inputs and one warm-up op
of each kind.

A single client sends one op at a time (closed loop) and runs whole
rounds of the input schedule until the ops have used SECONDS of time.
Each op's output is checked by the oracle after its timer has stopped.
`probe()` is timed after set-up, before the first op and after every
PROBE_EVERY_S of op time, so that the parent can scale times to a
reference speed.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_import_start = clock()
import symcub  # noqa: E402
import symcub.cli  # noqa: E402

IMPORT_S = clock() - _import_start

import oracle  # noqa: E402

# op outcomes
GOAL, OK, FAILED = 0, 1, 2

# The host's speed drifts within seconds, so the probe is timed again after
# every PROBE_EVERY_S of op time.
PROBE_EVERY_S = 0.5


def probe() -> float:
    """Seconds to build 4000 small tuples, the best of two tries with the
    collector off.  It is interpreter-bound like the library's own code and
    is timed next to the ops, so that the host's speed can be divided out."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(2):
            start = time.perf_counter()
            rows = [tuple([i * 0.5] * 8) for i in range(4000)]
            math.fsum(row[-1] for row in rows)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


class Build:
    """region_spec -> build_rule -> node and weight arrays."""

    def __init__(self, data, workdir):
        self.instances = data["instances"]
        self.targets = {k: oracle.Targets.from_json(v) for k, v in data["targets"].items()}
        self.schedule = data["schedule"]

    def warm_up(self):
        seen = set()
        for i, inst in enumerate(self.instances):
            if inst["region"] not in seen:
                seen.add(inst["region"])
                self.check([i, 0], self.run([i, 0]), None)

    def run(self, op):
        inst = self.instances[op[0]]
        split = inst["splits"][op[1]]
        spec = symcub.region_spec(symcub.RegionId(symcub.Region(inst["region"]), inst["n"]))
        masses = symcub.MassSplit.from_t(split["t"], spec, split["compensation"])
        rule = symcub.build_rule(spec, masses, region_label=inst["region"])
        return rule.node_array, rule.weight_array

    def check(self, op, out, error):
        inst = self.instances[op[0]]
        split = inst["splits"][op[1]]
        tgt = self.targets[inst["targets"]]
        record = {"region": inst["region"], "n": inst["n"], "split": op[1],
                  "compensation": split["compensation"], "mass": tgt.mass}
        if error is not None:
            return FAILED, record
        verdict = oracle.check_rule(out[0], out[1], tgt, 2 * inst["n"] + split["compensation"])
        record.update(reason=verdict.reason, rel_error=verdict.rel_error, nodes=verdict.nodes)
        return (GOAL if verdict.ok else FAILED), record


class Verify:
    """`symcub verify` on prepared rule files, plus a few `symcub tables`."""

    def __init__(self, data, workdir):
        self.files = data["files"]
        self.targets = {k: oracle.Targets.from_json(v) for k, v in data["targets"].items()}
        self.schedule = data["schedule"]
        self.rules = workdir / "rules"
        self.out = workdir / "out"
        self.out.mkdir(exist_ok=True)
        self.report = self.out / "verify.json"
        self.tables = self.out / "tables"

    def warm_up(self):
        for op in (["verify", 0, "json"], ["verify", 0, "csv"], ["tables", 0, ""]):
            self.prepare(op)
            self.check(op, self.run(op), None)

    def prepare(self, op):
        self.report.unlink(missing_ok=True)
        shutil.rmtree(self.tables, ignore_errors=True)

    def run(self, op):
        kind, i, fmt = op
        if kind == "tables":
            return symcub.cli.main(["tables", "--output-dir", str(self.tables)])
        f = self.files[i]
        return symcub.cli.main([
            "verify", str(self.rules / f"{f['stem']}.{fmt}"), "--region", f["region"],
            "--format", "json", "--output", str(self.report),
        ])

    def check(self, op, exit_code, error):
        kind, i, fmt = op
        if kind == "tables":
            return self._check_tables(exit_code, error)
        f = self.files[i]
        record = {"file": f"{f['stem']}.{fmt}", "region": f["region"], "n": f["n"],
                  "corrupt": f["expect_exit"] != 0, "expect_exit": f["expect_exit"],
                  "exit": exit_code, "mass": self.targets[f["targets"]].mass}
        if error is not None or exit_code != f["expect_exit"]:
            return FAILED, record
        report = json.loads(self.report.read_text())
        if report["pass"] != (exit_code == 0):
            record["reason"] = "report disagrees with exit code"
            return FAILED, record
        return GOAL, record

    def _check_tables(self, exit_code, error):
        record = {"file": "tables", "exit": exit_code}
        if error is not None or exit_code != 0:
            return FAILED, record
        for name, (region, n, comp) in oracle.GOLDEN_TABLES.items():
            if name == "table3_interior":
                continue  # not a numbered table; `symcub tables` does not write it
            path = self.tables / f"{name}.csv"
            try:
                nodes, weights = oracle.parse_rule_csv(path.read_text())
            except (OSError, ValueError) as exc:
                record["reason"] = f"{name}: {exc}"
                return FAILED, record
            verdict = oracle.check_rule(nodes, weights, self.targets[f"{region}-{n}"], 2 * n + comp)
            if not verdict.ok:
                record["reason"] = f"{name}: {verdict.reason}"
                return FAILED, record
        return GOAL, record


class Search:
    """search_masses with a fixed evaluation budget, interior objective."""

    def __init__(self, data, workdir):
        self.instances = data["instances"]
        self.budget = data["budget"]
        self.targets = {k: oracle.Targets.from_json(v) for k, v in data["targets"].items()}
        self.schedule = data["schedule"]
        self.problems = []
        for inst in self.instances:
            region = symcub.RegionId(symcub.Region(inst["region"]), inst["n"])
            self.problems.append((symcub.region_spec(region), region))

    def warm_up(self):
        self.check([0, 0], self.run([0, 0]), None)

    def run(self, op):
        inst = self.instances[op[0]]
        spec, region = self.problems[op[0]]
        objective = symcub.SearchObjective(
            mode=symcub.SearchMode.INTERIOR,
            allow_compensation=inst["compensation"],
            max_evals=self.budget,
            seed=op[1],
        )
        return symcub.search_masses(spec, region, objective)

    def check(self, op, result, error):
        inst = self.instances[op[0]]
        record = {"region": inst["region"], "n": inst["n"], "compensation": inst["compensation"],
                  "seed": op[1]}
        if error is not None:
            return FAILED, record
        record.update(satisfied=result.satisfied, evaluations=result.evaluations)
        if result.rule is None:
            if result.satisfied:
                record["reason"] = "satisfied without a rule"
                return FAILED, record
            return OK, record
        nodes = result.rule.node_array
        verdict = oracle.check_rule(
            nodes, result.rule.weight_array, self.targets[inst["targets"]],
            2 * inst["n"] + inst["compensation"],
        )
        record.update(reason=verdict.reason, rel_error=verdict.rel_error)
        if not verdict.ok:
            return FAILED, record
        if not result.satisfied:
            return OK, record
        margin = float(oracle.region_margins(inst["region"], nodes).min())
        record["min_margin"] = margin
        if not margin > 0:
            record["reason"] = f"satisfied but a node has margin {margin:.3g}"
            return FAILED, record
        return GOAL, record


WORKLOADS = {"build": Build, "verify": Verify, "search": Search}


def main(argv: list[str]) -> int:
    workdir, role, spawned_at, seconds, result_path = argv[:5]
    workdir = Path(workdir)
    data = json.loads((workdir / "inputs.json").read_text())
    workload = WORKLOADS[data["workload"]](data, workdir)
    tracer = None
    if role == "trace":
        import tracer as tracing

        tracer = tracing.install()
    workload.warm_up()
    first_op = clock()
    result = {
        "symcub": symcub.__file__,
        "setup_s": first_op - float(spawned_at),
        "import_s": IMPORT_S,
        "probe_s": probe(),
    }
    if role != "setup":
        result.update(run_loop(workload, data["workload"], float(seconds), tracer))
    if tracer is not None:
        result["layers"] = tracer.summary(len(result["latencies"]))
        tracer.write(Path(argv[5]))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


def run_loop(workload, kind: str, seconds: float, tracer) -> dict:
    latencies, status, failures, segment_ends = [], [], [], []
    probes = [probe()]
    busy = since_probe = 0.0
    wall_limit = clock() + 2 * seconds + 30
    prepare = getattr(workload, "prepare", None)
    rounds = 0
    while busy < seconds and clock() < wall_limit:
        for op in workload.schedule[rounds % len(workload.schedule)]:
            if prepare is not None:
                prepare(op)
            out = error = None
            if tracer is not None:
                tracer.begin_op(len(latencies), kind)
            start = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # an op that raises is a failed op
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            outcome, record = workload.check(op, out, error)
            if outcome == FAILED:
                record.update(op=len(latencies), round=rounds, kind=kind)
                if error is not None:
                    record["error"] = f"{type(error).__name__}: {error}"
                failures.append(record)
            latencies.append(elapsed)
            status.append(outcome)
            busy += elapsed
            since_probe += elapsed
            if since_probe >= PROBE_EVERY_S:
                segment_ends.append(len(latencies))
                probes.append(probe())
                since_probe = 0.0
        rounds += 1
    if segment_ends[-1:] != [len(latencies)]:
        segment_ends.append(len(latencies))
        probes.append(probe())
    return {"latencies": latencies, "status": status, "failures": failures,
            "rounds": rounds, "segment_ends": segment_ends, "probes": probes}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
