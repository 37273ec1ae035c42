"""Per-layer spans recorded from outside the library.

`install` wraps the public functions of each symcub module and rebinds
every name that refers to them, in every symcub module, so calls made
through names bound at import time (cli and search import
`assemble_rule`, `check_exactness` and `classify_nodes` directly) are
recorded too.  The node and weight arrays of a rule are cached
properties; their first computation is recorded as `assembly.rule_arrays`.
A module or function a later version no longer has is skipped and reads
zero.

Each span stores (name, parent span, op id, start, end) in flat arrays
and is written out when the run ends.  A layer's self time is its span's
duration minus the durations of its direct child spans.  Spans are
recorded only while an op runs, never during warm-up or result checks.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

TRACED = (
    "moments.region_spec",
    "decomposition.compute_constants",
    "decomposition.reduced_moment_chain",
    "moment1d.solve_two_point",
    "assembly.map_node",
    "assembly.assemble_rule",
    "assembly.build_rule",
    "assembly.rule_arrays",
    "validation.check_exactness",
    "validation.degree4_nonexactness",
    "validation.classify_nodes",
    "validation.compare_to_reference",
    "reference.regenerate_table",
    "search.search_masses",
    "ruleio.read_rule",
    "cli.main",
)

# name -> (unit, better); counts and times are per attempted op
PER_LAYER = {}
for _name in TRACED:
    PER_LAYER[f"{_name}.calls"] = ("1/op", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s/op", "lower")
    PER_LAYER[f"{_name}.errors"] = ("1/op", "lower")
PER_LAYER.update({
    "setup.import_s": ("s", "lower"),
    "assembly.rule_floats": ("1/op", "lower"),
    "validation.check_exactness.monomials": ("1/op", "lower"),
    "validation.check_exactness.tensor_bytes": ("bytes", "lower"),
    "ruleio.read_rule.bytes": ("bytes/op", "lower"),
    "search.evals": ("1/op", "lower"),
    "search.infeasible_evals": ("1/op", "lower"),
    "search.feasible_eval_frac": ("ratio", "higher"),
    "search.evals_per_s": ("1/s", "higher"),
    "trace.ops_per_s_ratio": ("ratio", "higher"),
})


def _rule_floats(counters, args, result):
    counters["assembly.rule_floats"] += len(result) * result.dim


def _exactness(counters, args, result):
    monomials = result.monomial_count
    rule = args[0]
    counters["validation.check_exactness.monomials"] += monomials
    tensor = monomials * len(rule) * rule.dim * 8
    counters["validation.check_exactness.tensor_bytes"] = max(
        counters["validation.check_exactness.tensor_bytes"], tensor
    )


def _read_bytes(counters, args, result):
    counters["ruleio.read_rule.bytes"] += os.path.getsize(args[0])


# post-call hooks that count work done, run after the span has closed
HOOKS = {
    "assembly.assemble_rule": _rule_floats,
    "validation.check_exactness": _exactness,
    "ruleio.read_rule": _read_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False
        self.counters = {
            key: 0 for key in (
                "assembly.rule_floats",
                "validation.check_exactness.monomials",
                "validation.check_exactness.tensor_bytes",
                "ruleio.read_rule.bytes",
            )
        }

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.span_failed[idx] = 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                try:
                    hook(self.counters, args, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    pass  # a later signature the hook does not know
            return result

        return traced

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_failed.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op: int, kind: str) -> None:
        self.op = op
        self.enabled = True
        self._op_span = self._open(self._name_id(f"op.{kind}"))

    def end_op(self) -> None:
        self._close(self._op_span)
        self.enabled = False

    def summary(self, ops: int) -> dict:
        """Per-layer metrics over the recorded spans, per attempted op."""
        import numpy as np

        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        failed = np.frombuffer(self.span_failed, dtype=np.int8).astype(float)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=dur - child, minlength=width)
        errors = np.bincount(names, weights=failed, minlength=width)
        per_op = 1.0 / max(ops, 1)
        out = {}
        for name in TRACED:
            i = self.names.index(name) if name in self.names else None
            out[f"{name}.calls"] = float(calls[i]) * per_op if i is not None else 0.0
            out[f"{name}.self_s"] = float(self_s[i]) * per_op if i is not None else 0.0
            out[f"{name}.errors"] = float(errors[i]) * per_op if i is not None else 0.0
        for key, value in self.counters.items():
            out[key] = float(value) if key.endswith("tensor_bytes") else value * per_op

        # evaluations are the assemble_rule calls made directly by a search
        evals = infeasible = 0
        search_time = 0.0
        if "search.search_masses" in self.names and "assembly.assemble_rule" in self.names:
            sid = self.names.index("search.search_masses")
            aid = self.names.index("assembly.assemble_rule")
            in_search = (names == aid) & has_parent
            in_search[in_search] = names[parent[in_search]] == sid
            evals = int(in_search.sum())
            infeasible = int(failed[in_search].sum())
            search_time = float(dur[names == sid].sum())
        out["search.evals"] = evals * per_op
        out["search.infeasible_evals"] = infeasible * per_op
        out["search.feasible_eval_frac"] = (evals - infeasible) / evals if evals else 0.0
        out["search.evals_per_s"] = evals / search_time if search_time > 0 else 0.0
        return out

    def write(self, path: Path) -> None:
        """Write every span, one array per column, as a compressed .npz."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            failed=np.frombuffer(self.span_failed, dtype=np.int8),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install() -> Tracer:
    """Wrap the traced functions of an imported symcub; returns the tracer."""
    tracer = Tracer()
    layers = {}
    for layer in dict.fromkeys(name.split(".")[0] for name in TRACED):
        try:
            layers[layer] = importlib.import_module(f"symcub.{layer}")
        except ImportError:
            pass  # a module a later version no longer has
    modules = [
        module for key, module in sys.modules.items()
        if key == "symcub" or key.startswith("symcub.")
    ]
    for name in TRACED:
        layer, attr = name.split(".")
        if layer not in layers:
            continue
        if name == "assembly.rule_arrays":
            _wrap_rule_arrays(tracer, layers[layer])
            continue
        original = getattr(layers[layer], attr, None)
        if not callable(original):
            continue
        wrapped = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return tracer


def _wrap_rule_arrays(tracer: Tracer, assembly) -> None:
    cls = getattr(assembly, "CubatureRule", None)
    for attr in ("node_array", "weight_array"):
        prop = vars(cls).get(attr) if cls is not None else None
        if isinstance(prop, functools.cached_property):
            wrapped = functools.cached_property(tracer.wrap("assembly.rule_arrays", prop.func))
            wrapped.__set_name__(cls, attr)
            setattr(cls, attr, wrapped)
