"""Self-tests of the benchmark: oracle, generator, tracer and metric names.

None of these import symcub; the golden tables are read as data files.
"""

import json
import random
import statistics
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import inputs
import oracle
import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "symcub" / "data"


def _golden(name):
    region, n, comp = oracle.GOLDEN_TABLES[name]
    nodes, weights = oracle.parse_rule_csv((DATA / f"{name}.csv").read_text())
    return nodes, weights, oracle.directional_targets(region, n, seed=11), 2 * n + comp


@pytest.mark.parametrize("name", sorted(oracle.GOLDEN_TABLES))
def test_oracle_accepts_golden_table(name):
    nodes, weights, targets, expected = _golden(name)
    verdict = oracle.check_rule(nodes, weights, targets, expected)
    assert verdict.ok, verdict


@pytest.mark.parametrize("name", sorted(oracle.GOLDEN_TABLES))
@pytest.mark.parametrize("kind", ["weight", "coordinate", "drop"])
def test_oracle_rejects_corrupted_golden_table(name, kind):
    nodes, weights, targets, expected = _golden(name)
    if kind == "drop":
        nodes, weights = nodes[:-1], weights[:-1]
    else:
        nodes, weights = inputs.corrupt(nodes, weights, targets, random.Random(name), kind)
    assert not oracle.check_rule(nodes, weights, targets, expected).ok


@pytest.mark.parametrize("region", oracle.REGIONS)
@pytest.mark.parametrize("compensation", [False, True])
def test_reference_construction_is_exact(region, compensation):
    n = 5
    m = oracle.region_moments(region, n)
    t = inputs.feasible_split(m, n, random.Random(3), compensation)
    nodes, weights = inputs.reference_rule(m, n, t, compensation)
    targets = oracle.directional_targets(region, n, seed=5)
    verdict = oracle.check_rule(nodes, weights, targets, 2 * n + compensation)
    assert verdict.ok and verdict.rel_error < 1e-14, verdict


def _tree(path: Path) -> dict:
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    trees = []
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workdir = tmp_path / label
        workdir.mkdir()
        inputs.generate(workload, seed, workdir)
        trees.append(_tree(workdir))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_verify_inputs_are_half_corrupted(tmp_path):
    inputs.generate("verify", 1, tmp_path)
    files = json.loads((tmp_path / "inputs.json").read_text())["files"]
    exits = [f["expect_exit"] for f in files]
    assert exits.count(0) == exits.count(3) == len(files) // 2
    assert max(f["n"] for f in files) <= 128  # check_exactness is never run above n = 128


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_rounds_have_one_composition(workload, tmp_path):
    # failures depend on the instance or file, so equal rounds give the same
    # failed share whatever the number of rounds a run completes
    inputs.generate(workload, 3, tmp_path)
    schedule = json.loads((tmp_path / "inputs.json").read_text())["schedule"]
    key = (lambda op: tuple(op[:2])) if workload == "verify" else (lambda op: op[0])
    first = Counter(key(op) for op in schedule[0])
    assert all(Counter(key(op) for op in ops) == first for ops in schedule)


def test_self_time_excludes_child_spans():
    clock = iter(float(t) for t in range(100))
    trace = tracer.Tracer()
    original = tracer.perf_counter
    tracer.perf_counter = lambda: next(clock)
    try:
        inner = trace.wrap("assembly.map_node", lambda: None)

        def outer_fn():
            inner()
            inner()

        outer = trace.wrap("assembly.assemble_rule", outer_fn)
        trace.begin_op(0, "build")
        outer()
        trace.end_op()
    finally:
        tracer.perf_counter = original
    layers = trace.summary(ops=1)
    # op opens at 0, outer at 1, inner spans 2-3 and 4-5, outer closes at 6
    assert layers["assembly.map_node.calls"] == 2
    assert layers["assembly.map_node.self_s"] == 2.0
    assert layers["assembly.assemble_rule.self_s"] == 3.0
    assert layers["cli.main.calls"] == 0


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == tracer.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)

    fake = {"latencies": [0.001 * (i + 1) for i in range(40)], "status": [0] * 39 + [2],
            "segment_ends": [20, 40], "probes": [0.002] * 3, "peak_rss_mb": 80.0}
    setups = [{"setup_s": 0.5, "probe_s": 0.002}]
    assert set(run.end_to_end(fake, setups)) == set(e2e)
    traced = set(tracer.Tracer().summary(ops=1)) | {"setup.import_s", "trace.ops_per_s_ratio"}
    assert traced == set(layers)


def test_tail_latency_has_ten_samples_beyond():
    lat = list(np.linspace(1.0, 2.0, 200))
    value, pct = run.tail_latency(lat)
    assert sum(1 for x in lat if x > value) == 10
    assert pct == pytest.approx(95.0)
    fake = {"latencies": lat, "status": [0] * 200, "segment_ends": [200],
            "probes": [run.REFERENCE_PROBE_S] * 2, "peak_rss_mb": 1.0}
    setups = [{"setup_s": 1.0, "probe_s": run.REFERENCE_PROBE_S}]
    assert run.end_to_end(fake, setups)["op_p50_ms"] == pytest.approx(
        statistics.median(lat) * 1e3)


def test_known_defects_are_told_apart():
    collapsed = {"kind": "build", "mass": 1e-216, "reason": "128 nodes, expected 256"}
    wrong_cube = {"kind": "build", "mass": 1.0, "reason": "128 nodes, expected 256"}
    accepted = {"kind": "verify", "corrupt": True, "exit": 0, "mass": 2.5e-5}
    rejected_clean = {"kind": "verify", "corrupt": False, "exit": 3, "mass": 2.5e-5}
    assert run.defect_of(collapsed) == "collapse"
    assert run.defect_of(accepted) == "absolute-gate"
    assert run.defect_of(wrong_cube) is None
    assert run.defect_of(rejected_clean) is None
