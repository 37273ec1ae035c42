"""symcub benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload {build,verify,search} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The inputs are generated from the
seed first; then each workload process is started fresh, single-threaded,
with the checkout's `src/` on its path.  SETUP_SPAWNS processes measure
set-up time (the middle one also runs the timed loop); with --trace 1 a
further process repeats the loop with per-layer spans.  Every op's output
is checked by the independent oracle in `oracle.py`.

Known defects of the program (KNOWN_DEFECTS) are counted as failed ops
and printed with their op ids; they do not make the result incorrect.
Any other failed op does.  The last line of standard output is the JSON
result; per-op failures, spans and the environment are written to
.perfbench_out/ as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("build", "verify", "search")
GOAL, FAILED = 0, 2  # op outcomes recorded by workloads.py
SETUP_SPAWNS = 5
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150

# Time of workloads.probe() on the reference box (2-core x86 VM, Python
# 3.11) in its faster state.  Its speed changes by up to 1.6x from one
# minute to the next, so every reported time is scaled to this speed by
# the probes taken next to it; raw times are printed beside them.
REFERENCE_PROBE_S = 0.0009

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "solved_frac": ("ratio", "higher"),
}

KNOWN_DEFECTS = {
    "collapse": (
        "build returns a collapsed rule: m0*m2 underflows in the Hankel test, so "
        "chains are taken as atoms (L(1) < 1e-150: simplex n >= 101, ball-sector n >= 200)",
        lambda f: f["kind"] == "build" and "error" not in f and f["mass"] < 1e-150,
    ),
    "absolute-gate": (
        "verify exits 0 on a corrupted rule: its gate 1e-8*max(1, L(1)) is absolute "
        "and L(1) < 1e-4 here",
        lambda f: f["kind"] == "verify" and f.get("corrupt") and f["exit"] == 0
        and f["mass"] < 1e-4,
    ),
}


def defect_of(failure: dict) -> str | None:
    for key, (_, matches) in KNOWN_DEFECTS.items():
        if matches(failure):
            return key
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "machine": platform.machine(),
    }


def spawn(workdir: Path, role: str, seconds: int, tag: str, spans: Path | None = None) -> dict:
    """Run one workload process to completion and return its result."""
    env = dict(os.environ)
    env.pop("SYMCUB_OUTPUT_DIR", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p]
        ),
    )
    result = workdir / f"result-{tag}.json"
    log = workdir / f"stderr-{tag}.txt"
    argv = [sys.executable, str(HERE / "workloads.py"), str(workdir), role]
    with open(log, "wb") as err:
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            argv + [repr(spawned_at), str(seconds), str(result)] + ([str(spans)] if spans else []),
            env=env, stdout=subprocess.DEVNULL, stderr=err, cwd=workdir,
        )
        try:
            code = proc.wait(timeout=SETUP_TIMEOUT_S if role == "setup" else RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result.exists():
        tail = log.read_text(errors="replace")[-3000:]
        raise RuntimeError(f"{role} process exited with {code}:\n{tail}")
    data = json.loads(result.read_text())
    expected = ROOT / "src" / "symcub" / "__init__.py"
    if Path(data["symcub"]).resolve() != expected.resolve():
        raise RuntimeError(f"measured {data['symcub']}, not {expected}")
    return data


def tail_latency(lat: list[float]) -> tuple[float, float]:
    """Latency with exactly ten samples beyond it, and its percentile."""
    ordered = sorted(lat)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def scaled(run: dict) -> list[float]:
    """Op latencies at reference speed: each segment's ops are scaled by
    REFERENCE_PROBE_S over the mean of the probes just before and after it."""
    out, start, probes = [], 0, run["probes"]
    for r, end in enumerate(run["segment_ends"]):
        factor = 2 * REFERENCE_PROBE_S / (probes[r] + probes[r + 1])
        out += [x * factor for x in run["latencies"][start:end]]
        start = end
    return out


def goodput(status: list[int], latencies: list[float]) -> float:
    """Correct ops per second of timed run; a failed op adds time, no work."""
    return (len(status) - status.count(FAILED)) / sum(latencies)


def end_to_end(run: dict, setups: list[dict]) -> dict:
    lat = scaled(run)
    return {
        "setup_s": statistics.median(
            s["setup_s"] * REFERENCE_PROBE_S / s["probe_s"] for s in setups),
        "ops_per_s": goodput(run["status"], lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_latency(lat)[0] * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "solved_frac": run["status"].count(GOAL) / len(lat),
    }


def report_failures(failures: list[dict]) -> bool:
    """Print failures grouped by cause, with op ids; True if all are known."""
    groups: dict[tuple, list[dict]] = {}
    for f in failures:
        defect = defect_of(f)
        where = " ".join(f"{k}={f[k]}" for k in ("region", "n", "file") if k in f)
        why = f.get("error") or f.get("reason") or f"exit {f.get('exit')}"
        groups.setdefault((defect, where, why), []).append(f)
    for (defect, where, why), group in sorted(groups.items(), key=lambda g: str(g[0])):
        ids = ", ".join(str(f["op"]) for f in group[:12]) + (", ..." if len(group) > 12 else "")
        label = f"known defect [{defect}]" if defect else "UNEXPECTED"
        print(f"  {label}: {group[0]['kind']} {where}: {why}; {len(group)} ops (ids {ids})")
    for key, (text, _) in KNOWN_DEFECTS.items():
        if any(defect == key for defect, _, _ in groups):
            print(f"  [{key}] {text}")
    return all(defect is not None for defect, _, _ in groups)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symcub" / "__init__.py").is_file():
        print(f"no symcub sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs.generate(args.workload, args.seed, workdir)
        # set-up is measured on both sides of the timed run, so that its
        # median spans more of the machine's drift
        setups = [spawn(workdir, "setup", args.seconds, f"setup{i}")
                  for i in range(SETUP_SPAWNS // 2)]
        run = spawn(workdir, "run", args.seconds, "run")
        setups.append(run)
        setups += [spawn(workdir, "setup", args.seconds, f"setup{i}")
                   for i in range(len(setups), SETUP_SPAWNS)]
        traced = None
        if args.trace:
            spans = out_dir / f"{args.workload}-seed{args.seed}-spans.npz"
            traced = spawn(workdir, "trace", args.seconds, "trace", spans)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    e2e = end_to_end(run, setups)
    raw = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": goodput(run["status"], run["latencies"]),
        "op_p50_ms": statistics.median(run["latencies"]) * 1e3,
        "op_tail_ms": tail_latency(run["latencies"])[0] * 1e3,
    }
    speed = REFERENCE_PROBE_S / statistics.median(run["probes"])
    measured = traced if traced is not None else run
    attempted = len(measured["latencies"])
    failed = measured["status"].count(FAILED)

    ops = len(run["latencies"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops: {ops} attempted in {run['rounds']} rounds, "
          f"{sum(run['latencies']):.3f} s timed, closed loop, 1 client")
    print(f"times at reference speed; this host ran at {speed:.3f} of it "
          f"(median of {len(run['probes'])} probes); raw values in brackets")
    print(f"setup_s = {e2e['setup_s']:.4f} s [{raw['setup_s']:.4f}] (median of "
          f"{len(setups)} spawns: " + ", ".join(f"{s['setup_s']:.3f}" for s in setups) + ")")
    print(f"ops_per_s = {e2e['ops_per_s']:.3f} 1/s [{raw['ops_per_s']:.3f}] "
          "(correct ops per timed second)")
    print(f"op_p50_ms = {e2e['op_p50_ms']:.4f} ms [{raw['op_p50_ms']:.4f}] "
          f"(median of {ops} ops)")
    print(f"op_tail_ms = {e2e['op_tail_ms']:.4f} ms [{raw['op_tail_ms']:.4f}] "
          f"(p{tail_latency(run['latencies'])[1]:.3f}, 10 of {ops} ops beyond)")
    print(f"fail_frac = {run['status'].count(FAILED) / ops:.5f} ratio "
          f"({run['status'].count(FAILED)} of {ops} ops failed)")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.1f} MB")
    print(f"solved_frac = {e2e['solved_frac']:.5f} ratio (ops that met their goal)")
    correct = report_failures(run["failures"])

    if traced is not None:
        metrics = dict(traced["layers"])
        factor = REFERENCE_PROBE_S / statistics.median(traced["probes"])
        for name, (unit, _) in tracer.PER_LAYER.items():
            if unit == "s/op":
                metrics[name] *= factor
            elif unit == "1/s" and name in metrics:
                metrics[name] /= factor
        metrics["setup.import_s"] = statistics.median(
            s["import_s"] * REFERENCE_PROBE_S / s["probe_s"] for s in setups)
        traced_rate = goodput(traced["status"], scaled(traced))
        metrics["trace.ops_per_s_ratio"] = traced_rate / e2e["ops_per_s"]
        print(f"traced run: {attempted} ops, ops_per_s {traced_rate:.3f} 1/s "
              f"({metrics['trace.ops_per_s_ratio']:.3f} of untraced); spans in {spans}")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {tracer.PER_LAYER[name][0]}")
        correct = report_failures(traced["failures"]) and correct
        units = tracer.PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END
    out_dir.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "metrics": metrics,
              "failures": run["failures"] + (traced["failures"] if traced else [])}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
